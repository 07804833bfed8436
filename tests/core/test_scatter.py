"""Segment reductions vs the buffered ufunc scatters they replace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scatter import (
    SegmentReducer,
    running_max,
    running_sum,
    segment_max,
    segment_sum,
)


def _add_at_reference(values, ids, n):
    out = np.zeros((n,) + np.asarray(values).shape[1:],
                   dtype=np.asarray(values).dtype)
    np.add.at(out, ids, values)
    return out


def _max_at_reference(values, ids, n, initial=0.0):
    v = np.asarray(values)
    out = np.full((n,) + v.shape[1:], initial, dtype=v.dtype)
    np.maximum.at(out, ids, v)
    return out


class TestSegmentSum:
    def test_duplicate_indices_accumulate(self):
        ids = np.array([0, 2, 2, 2, 5, 0])
        v = np.array([1.0, 10.0, 100.0, 1000.0, 7.0, 2.0])
        got = segment_sum(v, ids, 7)
        np.testing.assert_allclose(got, _add_at_reference(v, ids, 7))
        assert got[2] == 1110.0

    def test_empty_input(self):
        got = segment_sum(np.empty(0), np.empty(0, dtype=np.intp), 4)
        np.testing.assert_array_equal(got, np.zeros(4))
        got3 = segment_sum(np.empty((0, 3)), np.empty(0, dtype=np.intp), 4)
        np.testing.assert_array_equal(got3, np.zeros((4, 3)))

    def test_non_contiguous_segment_ids(self):
        # ids hit only segments {1, 5, 6} out of 9; the rest must stay zero
        ids = np.array([5, 1, 6, 5, 1])
        v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        got = segment_sum(v, ids, 9)
        np.testing.assert_allclose(got, _add_at_reference(v, ids, 9))
        assert got[[0, 2, 3, 4, 7, 8]].sum() == 0.0

    @pytest.mark.parametrize("trailing", [(), (3,), (3, 3), (12,)])
    def test_matches_add_at_random(self, trailing):
        rng = np.random.default_rng(42)
        ids = rng.integers(0, 50, size=400)
        v = rng.normal(size=(400,) + trailing)
        np.testing.assert_allclose(
            segment_sum(v, ids, 50), _add_at_reference(v, ids, 50),
            rtol=1e-12, atol=1e-12,
        )

    def test_unsorted_vs_sorted_agree(self):
        rng = np.random.default_rng(1)
        ids = rng.integers(0, 20, size=200)
        v = rng.normal(size=(200, 3))
        order = np.argsort(ids, kind="stable")
        a = segment_sum(v, ids, 20)
        b = segment_sum(v[order], ids[order], 20, assume_sorted=True)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_float32_accumulates_in_float32(self):
        rng = np.random.default_rng(2)
        ids = np.sort(rng.integers(0, 8, size=100))
        v = rng.normal(size=(100, 3)).astype(np.float32)
        got = segment_sum(v, ids, 8)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, _add_at_reference(v, ids, 8), rtol=1e-5)


class TestSegmentMax:
    def test_duplicates_and_empty_segments(self):
        ids = np.array([3, 0, 3, 3])
        v = np.array([2.0, -1.0, 9.0, 4.0])
        got = segment_max(v, ids, 5, initial=0.0)
        np.testing.assert_allclose(got, _max_at_reference(v, ids, 5))
        assert got[3] == 9.0
        assert got[1] == 0.0  # empty segment keeps the initial value

    def test_matches_maximum_at_random(self):
        rng = np.random.default_rng(7)
        ids = rng.integers(0, 30, size=500)
        v = rng.normal(size=500)
        np.testing.assert_allclose(
            segment_max(v, ids, 30, initial=-np.inf),
            _max_at_reference(v, ids, 30, initial=-np.inf),
        )

    def test_empty_input(self):
        got = segment_max(np.empty(0), np.empty(0, dtype=np.intp), 3,
                          initial=1.5)
        np.testing.assert_array_equal(got, np.full(3, 1.5))

    def test_all_negative_segment_with_neg_inf_initial(self):
        """Regression: the default ``initial=0.0`` silently clamps
        all-negative segments to zero; ``initial=-inf`` must return the
        true maximum instead (and keep -inf for empty segments)."""
        ids = np.array([0, 0, 2])
        v = np.array([-3.0, -1.5, -7.0])
        clamped = segment_max(v, ids, 3)  # documented legacy default
        np.testing.assert_array_equal(clamped, [0.0, 0.0, 0.0])
        true_max = segment_max(v, ids, 3, initial=-np.inf)
        np.testing.assert_array_equal(true_max, [-1.5, -np.inf, -7.0])

    def test_neg_inf_initial_safe_on_integer_values(self):
        """-inf on integer values maps to the dtype minimum rather than
        raising (np.full with -inf cannot cast to int) or promoting."""
        ids = np.array([0, 0, 2])
        v = np.array([-3, -1, -7], dtype=np.int64)
        got = segment_max(v, ids, 3, initial=-np.inf)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(
            got, [-1, np.iinfo(np.int64).min, -7]
        )

    def test_neg_inf_initial_float32_stays_float32(self):
        v = np.array([-2.0, -4.0], dtype=np.float32)
        got = segment_max(v, np.array([1, 1]), 2, initial=-np.inf)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(
            got, np.array([-np.inf, -2.0], dtype=np.float32)
        )


class TestSegmentReducer:
    def test_plan_reuse_many_reductions(self):
        rng = np.random.default_rng(3)
        ids = rng.integers(0, 40, size=300)
        red = SegmentReducer(ids, 40)
        for _ in range(3):
            v = rng.normal(size=(300, 3))
            np.testing.assert_allclose(red.sum(v), _add_at_reference(v, ids, 40),
                                       rtol=1e-12)
            s = rng.normal(size=300)
            np.testing.assert_allclose(
                red.max(s, initial=-np.inf),
                _max_at_reference(s, ids, 40, initial=-np.inf),
            )

    def test_assume_sorted_skips_permutation(self):
        ids = np.array([0, 0, 1, 4, 4, 4])
        red = SegmentReducer(ids, 6, assume_sorted=True)
        assert red.order is None
        v = np.arange(6, dtype=np.float64)
        np.testing.assert_allclose(red.sum(v), _add_at_reference(v, ids, 6))


class TestRunningReductions:
    """A sum or max continued over the blocks of a row list, in turn,
    ends on the bits of one reduction over the whole list."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 300), st.integers(0, 2**32 - 1),
           st.booleans(), st.lists(st.integers(0, 300), max_size=12))
    def test_any_chunking_is_one_reduction(self, n, p, seed, by_id, cuts):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, n, p)
        if by_id:  # pair lists arrive sorted by pi
            ids.sort()
        # magnitudes over 16 decades: a sum in another order would differ
        values = rng.normal(size=p) * 10.0 ** rng.integers(-8, 8, p)
        cuts = sorted(min(c, p) for c in cuts)
        total, peak = np.zeros(n), np.zeros(n)
        for lo, hi in zip([0] + cuts, cuts + [p]):
            running_sum(total, ids[lo:hi], values[lo:hi])
            running_max(peak, ids[lo:hi], values[lo:hi])
        assert np.array_equal(total,
                              np.bincount(ids, weights=values, minlength=n))
        assert np.array_equal(peak, SegmentReducer(ids, n).max(values))

    def test_a_column_continues_and_a_2d_target_raises(self):
        ids, v = np.array([2, 0, 2]), np.arange(9.0).reshape(3, 3)
        acc = np.zeros((3, 3))
        for k in range(3):
            running_sum(acc[:, k], ids, v[:, k])
        assert np.array_equal(acc, segment_sum(v, ids, 3))
        for helper in (running_sum, running_max):
            with pytest.raises(ValueError, match="1-D"):
                helper(np.zeros((3, 3)), ids, v)


class TestConservationAfterRefactor:
    def test_crksph_momentum_energy_at_roundoff(self):
        """The segment-reduction force assembly keeps the conservative
        symmetric-pair contract: total momentum and energy rates vanish to
        round-off."""
        from repro.core.sph import crksph_derivatives, get_kernel
        from repro.tree import neighbor_pairs

        rng = np.random.default_rng(17)
        n, box = 220, 9.0
        pos = rng.uniform(0, box, size=(n, 3))
        vel = rng.normal(scale=2.5, size=(n, 3))
        mass = rng.uniform(0.5, 2.0, size=n)
        u = rng.uniform(5.0, 20.0, size=n)
        h = np.full(n, 1.7 * box / n ** (1 / 3))
        kernel = get_kernel("wendland_c4")
        pi, pj = neighbor_pairs(pos, h, box=box)

        d = crksph_derivatives(pos, vel, mass, u, h, pi, pj, kernel, box=box)
        mom_rate = np.sum(mass[:, None] * d.accel, axis=0)
        e_rate = float(np.sum(mass * (np.einsum("na,na->n", vel, d.accel)
                                      + d.du_dt)))
        scale = float(np.sum(np.abs(mass[:, None] * d.accel)))
        assert np.all(np.abs(mom_rate) < 1e-11 * max(scale, 1.0))
        e_scale = float(np.sum(np.abs(mass * d.du_dt)))
        assert abs(e_rate) < 1e-10 * max(e_scale, 1.0)
