"""``PairCache`` queries return their rows' geometry: ``PairRows(pi, pj, dx,
r2)`` and ``ActivePairSlices.rows1/rows2`` are bitwise what a consumer would
have re-derived from the positions, and belong to the caller."""

import numpy as np
import pytest

from repro.core.geometry import pair_displacements
from repro.tree import PairCache, PairRows, neighbor_pairs

SKIN = 0.3
BOXES = {"scalar": 8.0, "vector": (8.0, 6.5, 7.0), "open": None}


def _setup(box, seed=5, n=180):
    rng = np.random.default_rng(seed)
    extent = np.broadcast_to(8.0 if box is None else box, (3,))
    pos = rng.uniform(0, 1, size=(n, 3)) * extent
    h = rng.uniform(0.6, 1.0, size=n)
    # a drift well inside every particle's skin * h / 2 allowance
    drift = rng.normal(size=pos.shape)
    drift *= (0.25 * SKIN * 0.6 / np.linalg.norm(drift, axis=1))[:, None]
    moved = pos + drift if box is None else np.mod(pos + drift, extent)
    sinks = np.sort(rng.choice(n, size=40, replace=False))
    return pos, moved, h, sinks


def _oracle_dx(pos, pi, pj, box):
    """The arithmetic every consumer used to repeat."""
    d = pos[pi] - pos[pj]
    if box is None:
        return d
    b = np.asarray(box, dtype=np.float64)
    return d - b * np.round(d / b)


def _assert_rows(rows, pos, h, box, include_self, sinks=None):
    """``sinks`` given: the unordered rows (``pi < pj``) touching them."""
    assert isinstance(rows, PairRows)
    fi, fj = neighbor_pairs(pos, h, box=box, include_self=include_self)
    if sinks is not None:
        m = (fi < fj) & (np.isin(fi, sinks) | np.isin(fj, sinks))
        fi, fj = fi[m], fj[m]
    assert np.array_equal(rows.pi, fi)
    assert np.array_equal(rows.pj, fj)
    assert np.array_equal(rows.dx, pair_displacements(pos, fi, fj, box))
    assert np.array_equal(rows.dx, _oracle_dx(pos, fi, fj, box))
    assert np.array_equal(rows.r2, np.einsum("pa,pa->p", rows.dx, rows.dx))


@pytest.mark.parametrize("include_self", [True, False])
@pytest.mark.parametrize("uniform_h", [False, True])
@pytest.mark.parametrize("box", BOXES.values(), ids=BOXES.keys())
class TestRowsCarryTheirGeometry:
    def test_full_and_sink_queries_before_and_after_drift(
        self, box, uniform_h, include_self
    ):
        pos, moved, h, sinks = _setup(box)
        if uniform_h:
            h = 0.9
        cache = PairCache(skin=SKIN, box=box, include_self=include_self)
        for x in (pos, moved):
            _assert_rows(cache.get(x, h), x, h, box, include_self)
            _assert_rows(cache.get_for_sinks(x, h, sinks), x, h, box,
                         include_self, sinks=sinks)
        assert cache.n_builds == 1

    def test_active_slices_carry_dx(self, box, uniform_h, include_self):
        pos, moved, h, sinks = _setup(box, seed=9)
        if uniform_h:
            h = 0.9
        cache = PairCache(skin=SKIN, box=box, include_self=include_self)
        cache.ensure(pos, h)
        sl = cache.active_slices(moved, h, sinks)
        for rows in (sl.rows1, sl.rows2):
            assert np.array_equal(
                rows.dx, _oracle_dx(moved, rows.pi, rows.pj, box))
        assert cache.n_builds == 1


@pytest.mark.parametrize("box", BOXES.values(), ids=BOXES.keys())
def test_scalar_h_is_uniform_support(box):
    pos, moved, _, sinks = _setup(box, seed=2)
    a = PairCache(skin=SKIN, box=box)
    b = PairCache(skin=SKIN, box=box)
    full = np.full(len(pos), 0.85)
    for x in (pos, moved):
        for got, want in (
            (a.get(x, 0.85), b.get(x, full)),
            (a.get_for_sinks(x, 0.85, sinks),
             b.get_for_sinks(x, full, sinks)),
        ):
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
    assert a.n_builds == b.n_builds == 1
    # growing a uniform support past the build radius still rebuilds
    a.get(moved, 0.85 * (1.0 + SKIN) * 1.01)
    assert a.n_rebuilds_h == 1


@pytest.mark.parametrize("keep_all", [False, True])
def test_returned_arrays_never_alias_the_cache(keep_all):
    pos, _, h, sinks = _setup(8.0, seed=4)
    # skin 0 keeps every cached row, the case where a view would be cheapest
    cache = PairCache(skin=0.0 if keep_all else SKIN, box=8.0)

    def queries():
        sl = cache.active_slices(pos, h, sinks)
        return [*cache.get(pos, h), *cache.get_for_sinks(pos, h, sinks),
                *sl.rows1[:3], *sl.rows2[:3]]

    first = queries()
    pristine = [a.copy() for a in first]
    for a in first:
        a[...] = -1
    for again, want in zip(queries(), pristine):
        assert np.array_equal(again, want)
