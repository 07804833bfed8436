"""``neighbor_pairs`` against an O(N^2) oracle, as arrays in canonical order,
plus allocation guards on the build (counts, not timings)."""

import tracemalloc

import numpy as np
import pytest

from repro.tree import neighbor_pairs


def brute_force_arrays(pos, h, box=None, include_self=True):
    """Every (i, j) tested with the build's own criterion; ``ij`` meshgrid
    order is already ``(pi, pj)`` ascending."""
    n = len(pos)
    h = np.broadcast_to(np.asarray(h, dtype=np.float64), (n,))
    pi, pj = (a.ravel() for a in np.indices((n, n)))
    dx = pos[pi] - pos[pj]
    if box is not None:
        dx -= box * np.round(dx / box)
    r2 = np.einsum("pa,pa->p", dx, dx)
    rmax = np.maximum(h[pi], h[pj])
    keep = r2 < rmax * rmax
    if not include_self:
        keep &= pi != pj
    return pi[keep], pj[keep]


def assert_matches_oracle(pos, h, box=None, include_self=True):
    pi, pj = neighbor_pairs(pos, h, box=box, include_self=include_self)
    oi, oj = brute_force_arrays(pos, h, box=box, include_self=include_self)
    assert np.array_equal(pi, oi)
    assert np.array_equal(pj, oj)
    return pi, pj


BOX3 = np.array([1.0, 1.5, 0.75])


class TestOracle:
    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize(
        "box", [1.0, BOX3, None], ids=["scalar", "vector", "open"]
    )
    def test_per_particle_h(self, box, include_self):
        rng = np.random.default_rng(11)
        extent = 1.0 if box is None else box
        pos = rng.uniform(0, 1, (150, 3)) * extent
        h = rng.uniform(0.08, 0.3, 150)
        pi, _ = assert_matches_oracle(pos, h, box=box, include_self=include_self)
        assert len(pi) > 150

    @pytest.mark.parametrize("frac", [0.55, 0.9, 1.2])
    @pytest.mark.parametrize("box", [2.0, 2.0 * BOX3], ids=["scalar", "vector"])
    def test_h_above_half_the_box(self, box, frac):
        rng = np.random.default_rng(12)
        pos = rng.uniform(0, 1, (70, 3)) * box
        assert_matches_oracle(pos, np.full(70, frac * np.min(box)), box=box)

    def test_sparse_fof_like(self):
        rng = np.random.default_rng(13)
        pos = rng.uniform(0, 40.0, (1024, 3))
        pi, _ = assert_matches_oracle(pos, 0.79, box=40.0, include_self=False)
        assert len(pi) < 200

    @pytest.mark.parametrize("box", [1.0, None])
    def test_coincident_points(self, box):
        rng = np.random.default_rng(14)
        pos = np.repeat(rng.uniform(0.1, 0.9, (20, 3)), 3, axis=0)
        pi, pj = assert_matches_oracle(pos, 0.05, box=box, include_self=False)
        together = set(zip(pi.tolist(), pj.tolist()))
        assert {(0, 1), (1, 0), (0, 2), (2, 1)} <= together

    @pytest.mark.parametrize("box", [1.0, None])
    def test_zero_and_one_particle(self, box):
        pi, pj = neighbor_pairs(np.empty((0, 3)), np.empty(0), box=box)
        assert len(pi) == 0 and len(pj) == 0
        one = np.array([[0.3, 0.4, 0.5]])
        for include_self, rows in ((True, [0]), (False, [])):
            pi, pj = neighbor_pairs(one, 0.2, box=box, include_self=include_self)
            assert pi.tolist() == rows and pj.tolist() == rows

    def test_positions_on_and_outside_the_box_edge(self):
        """cKDTree rejects these unwrapped; the caller's positions still
        decide membership, through the minimum image."""
        box = 1.0
        rng = np.random.default_rng(15)
        pos = rng.uniform(0, box, (90, 3))
        pos[0] = [-1e-17, 0.5, 0.5]
        pos[1] = [box, 0.5, 0.52]
        pos[2] = [box + 1e-9, 0.48, 0.5]
        pos[3] = [-1e-9, 0.5, 0.48]
        pos[4] = [0.5, 1.0 + 3e-16, -3e-16]
        pos[5] = [2.3, -0.7, 0.5]
        pi, pj = assert_matches_oracle(pos, 0.2, box=box)
        together = set(zip(pi.tolist(), pj.tolist()))
        assert {(0, 1), (1, 2), (2, 3), (0, 3)} <= together

    @pytest.mark.parametrize("box", [1.0, None])
    def test_h_tiny_next_to_the_coordinates(self, box):
        """The candidate search stays a superset when rounding in the
        coordinates is comparable to h."""
        rng = np.random.default_rng(16)
        base = rng.uniform(0, 1, (40, 3))
        twins = base + 3e-10 * rng.normal(size=(40, 3))
        pos = 1.0e6 + np.concatenate([base, twins])
        pi, _ = assert_matches_oracle(pos, 1e-9, box=box, include_self=False)
        assert len(pi) >= 40

    def test_nonpositive_radii_rejected(self):
        with pytest.raises(ValueError):
            neighbor_pairs(np.zeros((3, 3)), 0.0, box=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("box", [1.0, None])
    def test_nonfinite_positions_rejected(self, box, bad):
        pos = np.random.default_rng(19).uniform(0, 1, (10, 3))
        pos[4, 1] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            neighbor_pairs(pos, 0.3, box=box)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBuildAllocations:
    def test_dense_box_peak_follows_neighbours(self):
        """3x3x3 bins used to expand all 1728^2 = 3.0 M candidate rows
        (~170 MB of index pairs and separations) to keep 0.2 M."""
        rng = np.random.default_rng(17)
        pos = rng.uniform(0, 2.0, (1728, 3))
        h = np.full(1728, 0.51)
        neighbor_pairs(pos, h, box=2.0)  # imports and lazy set-up
        peak = _traced_peak(lambda: neighbor_pairs(pos, h, box=2.0))
        assert peak < 24e6

    @pytest.mark.parametrize("box", [40.0, 400.0])
    def test_sparse_box_peak_ignores_bin_count(self, box):
        """1,024 points with linking length 0.79: 125,000 bins' worth of
        tables at box 40, 1.3e8 (refused outright) at box 400 — for the
        same handful of pairs."""
        rng = np.random.default_rng(18)
        pos = rng.uniform(0, box, (1024, 3))
        neighbor_pairs(pos, 0.79, box=box, include_self=False)
        peak = _traced_peak(
            lambda: neighbor_pairs(pos, 0.79, box=box, include_self=False)
        )
        assert peak < 8e6
