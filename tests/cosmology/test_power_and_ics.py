"""Linear power spectrum and initial-conditions tests."""

import numpy as np
import pytest

from repro.cosmology import (
    PLANCK18,
    LinearPower,
    eisenstein_hu_nowiggle,
    gaussian_field,
    zeldovich_ics,
)


@pytest.fixture(scope="module")
def power():
    return LinearPower(PLANCK18)


class TestTransferFunction:
    def test_large_scale_limit(self):
        """T(k) -> 1 as k -> 0."""
        t = eisenstein_hu_nowiggle(np.array([1e-5]), PLANCK18)
        assert t[0] == pytest.approx(1.0, abs=1e-3)

    def test_monotone_decreasing(self):
        k = np.logspace(-4, 2, 200)
        t = eisenstein_hu_nowiggle(k, PLANCK18)
        assert np.all(np.diff(t) < 0)

    def test_small_scale_suppression(self):
        t = eisenstein_hu_nowiggle(np.array([10.0]), PLANCK18)
        assert t[0] < 1e-3


class TestLinearPower:
    def test_sigma8_normalization(self, power):
        assert power.sigma8_at(1.0) == pytest.approx(PLANCK18.sigma8, rel=1e-3)

    @pytest.mark.xfail(strict=True, reason=(
        "sigma_r's quad runs at its default epsabs 1.49e-8 on an integral of "
        "2.19e-7, so _norm is 8.1e-5 low and sigma8_at(1) reads 0.8101672; "
        "the fix moves the recorded reference and needs its own re-record"))
    def test_sigma8_normalization_exact(self, power):
        assert power.sigma8_at(1.0) == pytest.approx(PLANCK18.sigma8,
                                                     rel=1e-10)

    def test_growth_scaling(self, power):
        """P(k, a) = D^2(a) P(k, 1)."""
        k = np.array([0.1, 1.0])
        d = PLANCK18.growth_factor(0.5)
        np.testing.assert_allclose(
            power(k, 0.5), power(k, 1.0) * d**2, rtol=1e-10
        )

    def test_power_positive(self, power):
        k = np.logspace(-3, 1.5, 50)
        assert np.all(power(k) > 0)

    def test_peak_location(self, power):
        """P(k) peaks near k_eq ~ 0.01-0.02 h/Mpc."""
        k = np.logspace(-3, 0, 400)
        pk = power(k)
        kpeak = k[np.argmax(pk)]
        assert 0.005 < kpeak < 0.05


class TestGaussianField:
    def test_zero_mean(self, power):
        delta = gaussian_field(32, 200.0, power, a=1.0, seed=1)
        assert abs(delta.mean()) < 1e-10

    def test_variance_scales_with_growth(self, power):
        d1 = gaussian_field(16, 500.0, power, a=1.0, seed=2)
        d2 = gaussian_field(16, 500.0, power, a=0.5, seed=2)
        growth = PLANCK18.growth_factor(0.5)
        assert d2.std() / d1.std() == pytest.approx(growth, rel=1e-6)

    def test_measured_power_matches_input(self, power):
        """Bin |delta_k|^2 and compare with P(k)."""
        n, box = 32, 400.0
        delta = gaussian_field(n, box, power, a=1.0, seed=3)
        dk = np.fft.rfftn(delta)
        k1 = np.fft.fftfreq(n, d=1.0 / n) * 2 * np.pi / box
        kz = np.fft.rfftfreq(n, d=1.0 / n) * 2 * np.pi / box
        kmag = np.sqrt(
            k1[:, None, None] ** 2 + k1[None, :, None] ** 2 + kz[None, None, :] ** 2
        )
        pk_est = np.abs(dk) ** 2 * box**3 / n**6
        # average within a k shell
        shell = (kmag > 0.1) & (kmag < 0.2)
        measured = pk_est[shell].mean()
        expected = power(kmag[shell]).mean()
        assert measured == pytest.approx(expected, rel=0.25)  # cosmic variance


class TestZeldovichICs:
    def test_particle_count_and_mass(self):
        ics = zeldovich_ics(8, 100.0, PLANCK18, a_init=0.02, seed=0)
        assert ics.positions.shape == (512, 3)
        total = ics.particle_mass * 512
        assert total == pytest.approx(PLANCK18.rho_mean0 * 100.0**3, rel=1e-10)

    def test_positions_in_box(self):
        ics = zeldovich_ics(8, 100.0, PLANCK18, a_init=0.02, seed=1)
        assert np.all(ics.positions >= 0)
        assert np.all(ics.positions < 100.0)

    def test_displacements_small_at_early_times(self):
        """Early ICs: displacements well below mean interparticle spacing."""
        box, n = 100.0, 8
        ics = zeldovich_ics(n, box, PLANCK18, a_init=0.01, seed=2)
        spacing = box / n
        coords = (np.arange(n) + 0.5) * spacing
        gx, gy, gz = np.meshgrid(coords, coords, coords, indexing="ij")
        lattice = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
        disp = ics.positions - lattice
        disp -= box * np.round(disp / box)
        assert np.abs(disp).max() < spacing

    def test_velocity_displacement_relation(self):
        """Zel'dovich: v = a H f psi, so |v| / |psi| is constant."""
        box, n, a = 200.0, 8, 0.02
        ics = zeldovich_ics(n, box, PLANCK18, a_init=a, seed=3)
        spacing = box / n
        coords = (np.arange(n) + 0.5) * spacing
        gx, gy, gz = np.meshgrid(coords, coords, coords, indexing="ij")
        lattice = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
        disp = ics.positions - lattice
        disp -= box * np.round(disp / box)
        expected_ratio = a * PLANCK18.hubble(a) * PLANCK18.growth_rate(a)
        ratio = ics.velocities / disp
        np.testing.assert_allclose(ratio, expected_ratio, rtol=1e-8)

    def test_2lpt_close_to_zeldovich_early(self):
        za = zeldovich_ics(8, 100.0, PLANCK18, a_init=0.01, seed=4, order=1)
        lpt2 = zeldovich_ics(8, 100.0, PLANCK18, a_init=0.01, seed=4, order=2)
        d = za.positions - lpt2.positions
        d -= 100.0 * np.round(d / 100.0)
        # 2LPT correction is second order -> tiny at a=0.01
        assert np.abs(d).max() < 0.05 * (100.0 / 8)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            zeldovich_ics(4, 10.0, PLANCK18, 0.02, order=3)
