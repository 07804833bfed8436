"""Sky map, lightcone and observable-weight tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    AngularMap,
    LightconeBuilder,
    angles_from_vectors,
    compton_y_weights,
    xray_luminosity_weights,
)
from repro.cosmology import PLANCK18


class TestAngularMap:
    def test_total_weight_conserved(self):
        rng = np.random.default_rng(0)
        sky = AngularMap(n_theta=32, n_phi=64)
        n = 500
        theta = np.arccos(rng.uniform(-1, 1, n))
        phi = rng.uniform(0, 2 * math.pi, n)
        w = rng.uniform(0.5, 2.0, n)
        sky.add(theta, phi, w)
        assert sky.integral() == pytest.approx(w.sum(), rel=1e-10)

    def test_solid_angles_sum_to_4pi(self):
        sky = AngularMap(n_theta=16, n_phi=32)
        assert sky.pixel_solid_angle.sum() == pytest.approx(4 * math.pi)

    def test_isotropic_points_give_uniform_map(self):
        rng = np.random.default_rng(1)
        sky = AngularMap(n_theta=8, n_phi=16)
        n = 200_000
        theta = np.arccos(rng.uniform(-1, 1, n))
        phi = rng.uniform(0, 2 * math.pi, n)
        sky.add(theta, phi, np.ones(n))
        expected = n / (4 * math.pi)
        assert np.abs(sky.data / expected - 1).max() < 0.1

    def test_point_source_lands_in_one_pixel(self):
        sky = AngularMap(n_theta=16, n_phi=32)
        sky.add(np.array([1.0]), np.array([2.0]), np.array([5.0]))
        assert np.count_nonzero(sky.data) == 1
        assert sky.integral() == pytest.approx(5.0)

    @given(
        theta=st.floats(0.0, math.pi),
        phi=st.floats(0.0, 2 * math.pi - 1e-9),
        w=st.floats(0.1, 100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_single_weight_conserved(self, theta, phi, w):
        sky = AngularMap(n_theta=12, n_phi=24)
        sky.add(np.array([theta]), np.array([phi]), np.array([w]))
        assert sky.integral() == pytest.approx(w, rel=1e-9)


class TestAngles:
    def test_axis_directions(self):
        theta, phi, r = angles_from_vectors(
            np.array([[0.0, 0.0, 2.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        )
        assert theta[0] == pytest.approx(0.0)
        assert r[0] == pytest.approx(2.0)
        assert theta[1] == pytest.approx(math.pi / 2)
        assert phi[1] == pytest.approx(0.0)
        assert phi[2] == pytest.approx(3 * math.pi / 2)


class TestObservableWeights:
    def test_compton_y_scales_with_temperature(self):
        m = np.array([1e10, 1e10])
        u = np.array([100.0, 200.0])
        d = np.array([100.0, 100.0])
        y = compton_y_weights(m, u, d)
        assert y[1] / y[0] == pytest.approx(2.0, rel=1e-10)

    def test_compton_y_inverse_square(self):
        m = np.array([1e10, 1e10])
        u = np.array([100.0, 100.0])
        y = compton_y_weights(m, u, np.array([100.0, 200.0]))
        assert y[0] / y[1] == pytest.approx(4.0, rel=1e-10)

    def test_xray_density_squared(self):
        m = np.array([1e10, 1e10])
        u = np.array([100.0, 100.0])
        lx1 = xray_luminosity_weights(m, np.array([1e12]), u[:1])
        lx2 = xray_luminosity_weights(m, np.array([2e12]), u[:1])
        # L ~ n^2 V with V = m/rho -> L ~ n: doubling rho at fixed mass
        # doubles luminosity
        assert lx2[0] / lx1[0] == pytest.approx(2.0, rel=1e-10)

    def test_xray_sqrt_t(self):
        m = np.array([1e10])
        lx1 = xray_luminosity_weights(m, np.array([1e12]), np.array([100.0]))
        lx4 = xray_luminosity_weights(m, np.array([1e12]), np.array([400.0]))
        assert lx4[0] / lx1[0] == pytest.approx(2.0, rel=1e-10)


class TestLightcone:
    def setup_method(self):
        self.box = 500.0
        self.builder = LightconeBuilder(self.box, PLANCK18)

    def test_shell_radii_ordered(self):
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, self.box, (2000, 3))
        shell = self.builder.shell(pos, a_inner=0.9, a_outer=0.8)
        _, _, r = angles_from_vectors(shell.positions)
        assert np.all(r >= shell.chi_min - 1e-9)
        assert np.all(r < shell.chi_max + 1e-9)
        assert shell.chi_max > shell.chi_min > 0

    def test_shells_partition_volume(self):
        """Adjacent shells share no replicated particle positions."""
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, self.box, (1000, 3))
        s1 = self.builder.shell(pos, a_inner=0.95, a_outer=0.9)
        s2 = self.builder.shell(pos, a_inner=0.9, a_outer=0.85)
        _, _, r1 = angles_from_vectors(s1.positions)
        _, _, r2 = angles_from_vectors(s2.positions)
        assert r1.max() <= r2.min() + 1e-6

    def test_shell_density_matches_mean(self):
        """A uniform snapshot fills the shell at the mean number density."""
        rng = np.random.default_rng(4)
        n = 20000
        pos = rng.uniform(0, self.box, (n, 3))
        shell = self.builder.shell(pos, a_inner=0.92, a_outer=0.88)
        vol_shell = 4.0 / 3.0 * math.pi * (shell.chi_max**3 - shell.chi_min**3)
        expected = n / self.box**3 * vol_shell
        assert len(shell.positions) == pytest.approx(expected, rel=0.05)

    def test_projection_conserves_weight(self):
        rng = np.random.default_rng(5)
        pos = rng.uniform(0, self.box, (3000, 3))
        weights = rng.uniform(1, 2, 3000)
        shell = self.builder.shell(pos, a_inner=0.95, a_outer=0.9)
        sky = AngularMap(n_theta=16, n_phi=32)
        self.builder.project_shell(shell, weights, sky)
        assert sky.integral() == pytest.approx(
            weights[shell.indices].sum(), rel=1e-9
        )

    def test_invalid_shell_raises(self):
        with pytest.raises(ValueError):
            self.builder.shell(np.zeros((1, 3)), a_inner=0.5, a_outer=0.9)
