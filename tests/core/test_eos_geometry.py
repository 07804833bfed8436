"""EOS and periodic-geometry unit/property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geometry import minimum_image, pair_displacements, wrap_positions
from repro.core.sph.eos import IdealGasEOS


class TestIdealGas:
    def setup_method(self):
        self.eos = IdealGasEOS()

    def test_pressure_definition(self):
        p = self.eos.pressure(np.array([2.0]), np.array([3.0]))
        assert p[0] == pytest.approx((5 / 3 - 1) * 2.0 * 3.0)

    def test_negative_u_clamped(self):
        assert self.eos.pressure(np.array([1.0]), np.array([-5.0]))[0] == 0.0
        assert self.eos.sound_speed(np.array([1.0]), np.array([-5.0]))[0] == 0.0

    def test_sound_speed_relation(self):
        """c_s^2 = gamma P / rho."""
        rho, u = np.array([1.7]), np.array([42.0])
        cs = self.eos.sound_speed(rho, u)
        p = self.eos.pressure(rho, u)
        assert cs[0] ** 2 == pytest.approx(5 / 3 * p[0] / rho[0])

    @given(u=st.floats(1e-3, 1e8), mu=st.floats(0.5, 1.3))
    @settings(max_examples=100, deadline=None)
    def test_temperature_roundtrip(self, u, mu):
        t = self.eos.temperature(u, mu=mu)
        back = self.eos.internal_energy_from_temperature(t, mu=mu)
        assert back == pytest.approx(u, rel=1e-12)

    def test_temperature_magnitude(self):
        """Physical anchor: ionized gas at 1e4 K has u ~ 210 (km/s)^2 and
        sound speed ~ 15 km/s (the classic warm-IGM numbers)."""
        u = self.eos.internal_energy_from_temperature(1.0e4, mu=0.59)
        assert u == pytest.approx(210.0, rel=0.01)
        cs = self.eos.sound_speed(1.0, u)
        assert cs == pytest.approx(15.3, rel=0.02)

    def test_custom_gamma(self):
        eos = IdealGasEOS(gamma=1.4)
        assert eos.pressure(1.0, 1.0) == pytest.approx(0.4)


class TestGeometry:
    def test_wrap(self):
        pos = np.array([[-0.1, 5.0, 10.2]])
        np.testing.assert_allclose(
            wrap_positions(pos, 10.0), [[9.9, 5.0, 0.2]], atol=1e-12
        )

    def test_minimum_image_scalar_box(self):
        dx = np.array([[7.0, -8.0, 0.5]])
        out = minimum_image(dx, 10.0)
        np.testing.assert_allclose(out, [[-3.0, 2.0, 0.5]])

    def test_minimum_image_vector_box(self):
        dx = np.array([[7.0, 3.0, 0.2]])
        out = minimum_image(dx, np.array([10.0, 4.0, 0.5]))
        np.testing.assert_allclose(out, [[-3.0, -1.0, 0.2]])

    def test_minimum_image_none_is_noop(self):
        dx = np.array([[100.0, -50.0, 3.0]])
        np.testing.assert_array_equal(minimum_image(dx, None), dx)

    @given(
        x=st.floats(-50, 50), box=st.floats(1.0, 20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_minimum_image_bounds(self, x, box):
        out = minimum_image(np.array([[x, 0.0, 0.0]]), box)
        assert abs(out[0, 0]) <= box / 2 + 1e-9

    def test_pair_displacements(self):
        pos = np.array([[0.5, 0.0, 0.0], [9.5, 0.0, 0.0]])
        dx = pair_displacements(pos, np.array([0]), np.array([1]), 10.0)
        np.testing.assert_allclose(dx, [[1.0, 0.0, 0.0]])
