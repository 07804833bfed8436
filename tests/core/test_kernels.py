"""Unit and property tests for SPH smoothing kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sph.kernels import KERNELS, get_kernel
from repro.core.sph.pair_batch import make_pair_batch
from repro.tree import PairRows

ALL_KERNELS = sorted(KERNELS)


@pytest.mark.parametrize("name", ALL_KERNELS)
class TestKernelBasics:
    def test_positive_inside_support(self, name):
        k = get_kernel(name)
        r = np.linspace(0.0, 0.999, 200)
        assert np.all(k.w(r, 1.0) > 0.0)

    def test_zero_outside_support(self, name):
        k = get_kernel(name)
        r = np.linspace(1.0, 3.0, 50)
        np.testing.assert_allclose(k.w(r, 1.0), 0.0, atol=1e-14)
        np.testing.assert_allclose(k.dw_dr(r, 1.0), 0.0, atol=1e-14)

    def test_normalization_3d(self, name):
        """4 pi integral r^2 W(r) dr == 1."""
        k = get_kernel(name)
        r = np.linspace(1e-6, 1.0, 20001)
        integrand = 4.0 * np.pi * r**2 * k.w(r, 1.0)
        total = np.trapezoid(integrand, r)
        assert total == pytest.approx(1.0, rel=1e-4)

    def test_monotone_decreasing(self, name):
        k = get_kernel(name)
        r = np.linspace(0.0, 0.999, 500)
        w = k.w(r, 1.0)
        assert np.all(np.diff(w) <= 1e-12)

    def test_derivative_matches_finite_difference(self, name):
        k = get_kernel(name)
        r = np.linspace(0.05, 0.95, 40)
        eps = 1e-6
        fd = (k.w(r + eps, 1.0) - k.w(r - eps, 1.0)) / (2 * eps)
        np.testing.assert_allclose(k.dw_dr(r, 1.0), fd, rtol=1e-4, atol=1e-8)

    def test_h_scaling(self, name):
        """W(r, h) = h^-3 W(r/h, 1)."""
        k = get_kernel(name)
        r = np.linspace(0.0, 1.9, 50)
        h = 2.0
        np.testing.assert_allclose(
            k.w(r, h), k.w(r / h, 1.0) / h**3, rtol=1e-12
        )

    def test_gradient_points_inward(self, name):
        """grad_i W for a separation x_i - x_j along +x points along -x."""
        pos = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
        rows = PairRows.measured(pos, np.array([0]), np.array([1]))
        b = make_pair_batch(rows, np.ones(2), get_kernel(name))
        assert b.gw_i[0, 0] < 0.0
        assert b.gw_i[0, 1] == b.gw_i[0, 2] == 0.0

    def test_gradient_zero_at_origin(self, name):
        """The self pair (r = 0) has no gradient."""
        rows = PairRows.measured(np.zeros((1, 3)), np.array([0]),
                                 np.array([0]))
        b = make_pair_batch(rows, np.ones(1), get_kernel(name))
        np.testing.assert_allclose(b.gw_i, 0.0)


@given(
    name=st.sampled_from(ALL_KERNELS),
    r=st.floats(0.0, 2.0),
    h=st.floats(0.1, 10.0),
)
@settings(max_examples=200, deadline=None)
def test_kernel_nonnegative_everywhere(name, r, h):
    k = get_kernel(name)
    val = k.w(np.array([r]), h)[0]
    assert val >= 0.0
    assert np.isfinite(val)


def test_unknown_kernel_raises():
    with pytest.raises(ValueError, match="unknown kernel"):
        get_kernel("nope")
