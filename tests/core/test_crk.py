"""CRK correction tests: the reproducing conditions are the core invariant."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scatter import SegmentReducer, segment_sum
from repro.core.sph.crk import (
    compute_corrections,
    compute_moments,
    corrected_kernel_pairs,
)
from repro.core.sph.hydro import compute_number_density
from repro.core.sph.kernels import get_kernel
from repro.core.sph.pair_batch import PairTiles, make_pair_batch
from repro.core.sph.viscosity import velocity_divergence_curl
from repro.tree import PairRows, neighbor_pairs


def glass_like_positions(n_per_dim, box, jitter, seed=0):
    rng = np.random.default_rng(seed)
    spacing = box / n_per_dim
    coords = (np.arange(n_per_dim) + 0.5) * spacing
    gx, gy, gz = np.meshgrid(coords, coords, coords, indexing="ij")
    pos = np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)
    pos += rng.uniform(-jitter, jitter, pos.shape) * spacing
    return np.mod(pos, box)


@pytest.fixture(scope="module")
def lattice_setup():
    box = 1.0
    n = 8
    pos = glass_like_positions(n, box, jitter=0.2, seed=42)
    h = np.full(len(pos), 2.6 * box / n)
    pi, pj = neighbor_pairs(pos, h, box=box)
    kernel = get_kernel("wendland_c4")
    return pos, h, pi, pj, kernel, box


def _batch(pos, h, pi, pj, kernel, box):
    return make_pair_batch(PairRows.measured(pos, pi, pj, box), h, kernel)


@pytest.fixture(scope="module")
def lattice_batch(lattice_setup):
    """``(batch, volumes)`` of the jittered lattice."""
    pos, h, pi, pj, kernel, box = lattice_setup
    b = _batch(pos, h, pi, pj, kernel, box)
    return b, compute_number_density(b)[1]


class TestMoments:
    def test_m0_positive(self, lattice_batch):
        m0, *_ = compute_moments(lattice_batch[1], lattice_batch[0])
        assert np.all(m0 > 0.0)

    def test_m2_symmetric(self, lattice_batch):
        _, _, m2, *_ = compute_moments(lattice_batch[1], lattice_batch[0])
        np.testing.assert_allclose(m2, np.swapaxes(m2, -1, -2), atol=1e-14)

    def test_moment_gradients_match_fd(self, lattice_setup, lattice_batch):
        """Moment gradients are *field* gradients: differentiate the moment
        sums with respect to the evaluation point, holding every neighbor
        (including the self particle, as a sample point) fixed."""
        pos, h, _, _, kernel, _ = lattice_setup
        b, vol = lattice_batch
        _, _, _, dm0, dm1, _ = compute_moments(vol, b)
        target = 7
        sel = b.pi == target
        xj = pos[target] - b.dx[sel]  # unwrapped neighbor positions
        vj = vol[b.pj[sel]]
        ht = h[target]

        def field_moments(x):
            d = x - xj
            r = np.sqrt(np.sum(d * d, axis=-1))
            w = kernel.w(r, ht)
            m0 = np.sum(vj * w)
            m1 = np.sum(vj[:, None] * (xj - x) * w[:, None], axis=0)
            return m0, m1

        eps = 1e-6
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = eps
            m0p, m1p = field_moments(pos[target] + e)
            m0m, m1m = field_moments(pos[target] - e)
            fd0 = (m0p - m0m) / (2 * eps)
            assert dm0[target, axis] == pytest.approx(fd0, rel=1e-4, abs=1e-6)
            fd1 = (m1p - m1m) / (2 * eps)
            np.testing.assert_allclose(
                dm1[target, axis], fd1, rtol=1e-4, atol=1e-6
            )


def _corrected(b, vol):
    """``(W^R, grad W^R)`` per row of ``b`` from its corrections."""
    corr = compute_corrections(vol, b)
    return corrected_kernel_pairs(corr, b.pi, b.dx, b.w_i, b.gw_i)


class TestReproducingConditions:
    def test_constant_reproduced(self, lattice_batch):
        """sum_j V_j W^R_ij == 1 exactly (zeroth-order consistency)."""
        b, vol = lattice_batch
        wr, _ = _corrected(b, vol)
        interp = np.zeros(b.n)
        np.add.at(interp, b.pi, vol[b.pj] * wr)
        np.testing.assert_allclose(interp, 1.0, atol=1e-9)

    def test_linear_field_reproduced(self, lattice_setup, lattice_batch):
        """sum_j V_j f(x_j) W^R_ij == f(x_i) for linear f (first-order)."""
        pos = lattice_setup[0]
        b, vol = lattice_batch
        pi, pj, dx = b.pi, b.pj, b.dx
        wr, _ = _corrected(b, vol)
        # evaluate the linear field at the periodically-unwrapped neighbor
        # location x_i - dx so linearity is meaningful across the wrap
        grad = np.array([0.7, -1.3, 2.1])
        xj_unwrapped = pos[pi] - dx
        fj = 0.5 + xj_unwrapped @ grad
        interp = np.zeros(len(pos))
        np.add.at(interp, pi, vol[pj] * wr * fj)
        expected = 0.5 + pos @ grad
        np.testing.assert_allclose(interp, expected, atol=1e-8)

    def test_corrected_gradient_exact_for_linear(self, lattice_setup,
                                                 lattice_batch):
        """sum_j V_j f(x_j) grad W^R_ij == grad f for linear f."""
        pos = lattice_setup[0]
        b, vol = lattice_batch
        pi, pj, dx = b.pi, b.pj, b.dx
        _, gwr = _corrected(b, vol)
        grad = np.array([0.7, -1.3, 2.1])
        xj_unwrapped = pos[pi] - dx
        fj = 0.5 + xj_unwrapped @ grad
        # gradient interpolant: grad f(x_i) ~ sum_j V_j (f_j - f_i) grad W^R
        # (the f_i subtraction removes the grad-of-constant term; with exact
        # gradient corrections sum_j V_j grad W^R_ij = 0 so either form works)
        est = np.zeros((len(pos), 3))
        np.add.at(est, pi, (vol[pj] * fj)[:, None] * gwr)
        np.testing.assert_allclose(est, np.broadcast_to(grad, est.shape), atol=1e-6)

    def test_plain_sph_does_not_reproduce_linear(self, lattice_setup,
                                                 lattice_batch):
        """Sanity: the uncorrected kernel fails the linear test (so the
        corrections are doing real work)."""
        pos = lattice_setup[0]
        b, vol = lattice_batch
        pi, pj, dx, w = b.pi, b.pj, b.dx, b.w_i
        grad = np.array([0.7, -1.3, 2.1])
        fj = 0.5 + (pos[pi] - dx) @ grad
        interp = np.zeros(len(pos))
        np.add.at(interp, pi, vol[pj] * w * fj)
        expected = 0.5 + pos @ grad
        err = np.abs(interp - expected).max()
        assert err > 1e-6  # uncorrected error is visible


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_constant_reproduction_random_configs(seed):
    """Property: zeroth-order consistency holds for random particle sets."""
    rng = np.random.default_rng(seed)
    n = 40
    pos = rng.uniform(0, 1, (n, 3))
    h = np.full(n, 0.45)
    kernel = get_kernel("cubic_spline")
    pi, pj = neighbor_pairs(pos, h, box=1.0)
    b = _batch(pos, h, pi, pj, kernel, 1.0)
    _, vol = compute_number_density(b)
    wr, _ = _corrected(b, vol)
    interp = np.zeros(n)
    np.add.at(interp, pi, vol[pj] * wr)
    np.testing.assert_allclose(interp, 1.0, atol=1e-7)


def _moments_oracle(vj, dx, w, gw, acc):
    """The six-reduction moment body the one-pass buffer of
    ``compute_moments`` replaced, kept as written: every delta term
    materialised per pair."""
    m0 = acc(vj * w)
    m1 = acc(vj[:, None] * (-dx) * w[:, None])
    outer = dx[:, :, None] * dx[:, None, :]
    m2 = acc(vj[:, None, None] * outer * w[:, None, None])
    dm0 = acc(vj[:, None] * gw)
    term = (-dx)[:, None, :] * gw[:, :, None]  # (P, a, b)
    eye = np.eye(3)
    term = term - eye[None, :, :] * w[:, None, None]
    dm1 = acc(vj[:, None, None] * term)
    t1 = eye[None, :, :, None] * dx[:, None, None, :] * w[:, None, None, None]
    t2 = eye[None, :, None, :] * dx[:, None, :, None] * w[:, None, None, None]
    t3 = outer[:, None, :, :] * gw[:, :, None, None]
    dm2 = acc(vj[:, None, None, None] * (t1 + t2 + t3))
    return m0, m1, m2, dm0, dm1, dm2


class TestPeriodicLattice:
    """Pair state reaches every stage through the batch, whose
    displacements are minimum-image wrapped: a perfect periodic lattice
    reads the same across a face as inside.  Unwrapped, the pairs across a
    face read a box length apart; a lattice then gets ``A`` up to 1.7 and
    ``|B|`` up to 8 instead of ``A = 1``, ``B = 0``, and the divergence of
    ``v_x = sin 2 pi x`` differs by up to 64 % of its peak between
    particles of one x-plane."""

    def test_faces_read_as_interior(self):
        n, box = 8, 1.0
        pos = glass_like_positions(n, box, jitter=0.0)
        h = np.full(len(pos), 2.0 * box / n)
        pi, pj = neighbor_pairs(pos, h, box=box)
        b = _batch(pos, h, pi, pj, get_kernel("wendland_c4"), box)
        assert np.abs(b.dx - (pos[pi] - pos[pj])).max() > 0.5  # faces crossed
        _, vol = compute_number_density(b)

        corr = compute_corrections(vol, b)
        np.testing.assert_allclose(corr.a, 1.0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(corr.b, 0.0, rtol=0, atol=1e-13)

        vel = np.zeros_like(pos)
        vel[:, 0] = np.sin(2.0 * np.pi * pos[:, 0])
        div, _ = velocity_divergence_curl(vel, vol, b)
        plane = np.round(pos[:, 0] * n - 0.5).astype(int)
        for k in range(n):
            on = div[plane == k]
            assert len(on) == n * n
            np.testing.assert_allclose(on, on[0], rtol=0, atol=1e-12)


class TestPairBatch:
    def test_rows_not_sorted_by_pi_raise(self, lattice_setup):
        pos, h, pi, pj, kernel, box = lattice_setup
        rows = PairRows.measured(pos, pi, pj, box)
        reversed_rows = PairRows(*(a[::-1] for a in rows))
        with pytest.raises(ValueError, match="sorted by pi"):
            make_pair_batch(reversed_rows, h, kernel)
        with pytest.raises(ValueError, match="sorted by pi"):
            PairTiles(reversed_rows, np.arange(len(pos)), h, kernel)


class TestOnePassMoments:
    SHAPES = [(), (3,), (3, 3), (3,), (3, 3), (3, 3, 3)]

    @staticmethod
    def _pairs(n, p, seed):
        rng = np.random.default_rng(seed)
        pi = np.sort(rng.integers(0, n, p))
        acc = lambda values: segment_sum(values, pi, n)  # noqa: E731
        return pi, (rng.uniform(0.5, 1.5, p), rng.normal(size=(p, 3)),
                    rng.uniform(0.0, 1.0, p), rng.normal(size=(p, 3)), acc)

    @pytest.mark.parametrize("n, p", [(50, 1500), (1, 7), (1, 1), (6, 0)])
    def test_matches_six_reduction_body(self, n, p):
        pi, args = self._pairs(n, p, seed=n + p)
        vj, dx, w, gw, _ = args
        # a batch-shaped input whose source j of row k is particle k
        batch = SimpleNamespace(pj=np.arange(p), dx=dx, w_i=w, gw_i=gw,
                                seg=SegmentReducer(pi, n, assume_sorted=True))
        got = compute_moments(vj, batch)
        want = _moments_oracle(*args)
        for g, w, shape in zip(got, want, self.SHAPES):
            assert g.shape == w.shape == (n,) + shape
            scale = np.max(np.abs(w)) if w.size else 0.0
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-13 * scale)
