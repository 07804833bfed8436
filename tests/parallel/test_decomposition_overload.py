"""Decomposition, overload exchange, and migration tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import (
    CartesianDecomposition,
    World,
    build_overloaded_domains,
    exchange_overload,
    factor_ranks_3d,
    make_decomposition,
    migrate_particles,
    overload,
)
from repro.parallel.overload import GhostExchange, _ghost_images


class TestFactorization:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, {1}), (8, {2}), (27, {3}), (64, {4}), (12, {2, 3})],
    )
    def test_known_factorizations(self, n, expected):
        dims = factor_ranks_3d(n)
        assert np.prod(dims) == n
        assert set(dims) == expected

    @given(n=st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_property_product_and_balance(self, n):
        dims = factor_ranks_3d(n)
        assert int(np.prod(dims)) == n
        # no dimension should exceed n itself, and sorted aspect is minimal
        assert max(dims) <= n

    def test_invalid(self):
        with pytest.raises(ValueError):
            factor_ranks_3d(0)


class TestDecomposition:
    def test_rank_coords_roundtrip(self):
        d = make_decomposition(100.0, 12)
        for r in range(12):
            assert d.rank_of_coords(*d.coords_of(r)) == r

    def test_bounds_tile_box(self):
        d = make_decomposition(60.0, 8)
        vol = sum(np.prod(d.bounds(r)[1] - d.bounds(r)[0]) for r in range(8))
        assert vol == pytest.approx(60.0**3)

    def test_rank_of_positions_within_bounds(self):
        rng = np.random.default_rng(0)
        d = make_decomposition(50.0, 27)
        pos = rng.uniform(0, 50.0, (500, 3))
        ranks = d.rank_of_positions(pos)
        for r in np.unique(ranks):
            lo, hi = d.bounds(int(r))
            sel = pos[ranks == r]
            assert np.all(sel >= lo - 1e-12)
            assert np.all(sel <= hi + 1e-12)

    def test_overload_volume_fraction(self):
        d = make_decomposition(100.0, 8)  # 50-wide subdomains
        frac = d.overload_volume_fraction(5.0)
        assert frac == pytest.approx((60.0 / 50.0) ** 3 - 1.0)

    def test_out_of_range_rank(self):
        d = make_decomposition(10.0, 4)
        with pytest.raises(ValueError):
            d.coords_of(4)


class TestOverloadOracle:
    def test_every_particle_owned_once(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 40.0, (300, 3))
        d = make_decomposition(40.0, 8)
        domains = build_overloaded_domains(pos, d, overload_width=3.0)
        owned = np.concatenate([dom.owned_idx for dom in domains])
        assert sorted(owned.tolist()) == list(range(300))

    def test_ghosts_within_expanded_domain(self):
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, 40.0, (400, 3))
        d = make_decomposition(40.0, 8)
        w = 4.0
        domains = build_overloaded_domains(pos, d, overload_width=w)
        for dom in domains:
            lo, hi = d.bounds(dom.rank)
            gp = pos[dom.ghost_idx] + dom.ghost_shift
            assert np.all(gp >= lo - w - 1e-9)
            assert np.all(gp < hi + w + 1e-9)

    def test_ghost_completeness(self):
        """Every particle within `w` of a rank's domain appears as owned or
        ghost on that rank (short-range locality guarantee)."""
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 30.0, (200, 3))
        d = make_decomposition(30.0, 8)
        w = 3.0
        domains = build_overloaded_domains(pos, d, overload_width=w)
        for dom in domains:
            lo, hi = d.bounds(dom.rank)
            # brute force: particles within w of the domain (periodic)
            close = []
            for i, p in enumerate(pos):
                dvec = np.zeros(3)
                for ax in range(3):
                    x = p[ax]
                    # periodic distance to the interval [lo, hi]
                    cands = []
                    for shift in (-30.0, 0.0, 30.0):
                        xs = x + shift
                        cands.append(max(lo[ax] - xs, 0.0, xs - hi[ax]))
                    dvec[ax] = min(cands)
                if np.all(dvec < w):
                    close.append(i)
            present = set(dom.owned_idx.tolist()) | set(dom.ghost_idx.tolist())
            assert set(close).issubset(present)

    def test_width_validation(self):
        pos = np.random.default_rng(4).uniform(0, 10, (20, 3))
        d = make_decomposition(10.0, 27)  # 3.33-wide domains
        with pytest.raises(ValueError):
            build_overloaded_domains(pos, d, overload_width=2.0)
        with pytest.raises(ValueError):
            build_overloaded_domains(pos, d, overload_width=-1.0)

    def test_overload_fraction_grows_with_width(self):
        rng = np.random.default_rng(5)
        pos = rng.uniform(0, 40.0, (2000, 3))
        d = make_decomposition(40.0, 8)
        f1 = np.mean(
            [dom.overload_fraction
             for dom in build_overloaded_domains(pos, d, 2.0)]
        )
        f2 = np.mean(
            [dom.overload_fraction
             for dom in build_overloaded_domains(pos, d, 6.0)]
        )
        assert f2 > f1


class TestCommunicatingExchange:
    def test_exchange_matches_oracle(self):
        rng = np.random.default_rng(6)
        n, box, n_ranks, w = 240, 40.0, 8, 3.5
        pos = rng.uniform(0, box, (n, 3))
        d = make_decomposition(box, n_ranks)
        oracle = build_overloaded_domains(pos, d, w)
        owner = d.rank_of_positions(pos)
        ids = np.arange(n)

        def fn(comm):
            mine = owner == comm.rank
            gp, gids = exchange_overload(comm, pos[mine], ids[mine], d, w)
            return set(gids.tolist())

        world = World(n_ranks)
        results = world.run(fn)
        for dom, got in zip(oracle, results):
            assert got == set(dom.ghost_idx.tolist())

    def test_migration_rehomes_everyone(self):
        rng = np.random.default_rng(7)
        n, box, n_ranks = 160, 20.0, 8
        pos = rng.uniform(0, box, (n, 3))
        d = make_decomposition(box, n_ranks)
        owner = d.rank_of_positions(pos)
        ids = np.arange(n)
        # drift particles randomly (some cross boundaries)
        drift = rng.normal(0, 2.0, (n, 3))
        new_pos_global = np.mod(pos + drift, box)

        def fn(comm):
            mine = owner == comm.rank
            p, payload = migrate_particles(
                comm, new_pos_global[mine], {"ids": ids[mine]}, d
            )
            # everything I now hold belongs to me
            assert np.all(d.rank_of_positions(p) == comm.rank)
            return payload["ids"]

        world = World(n_ranks)
        results = world.run(fn)
        all_ids = np.concatenate(results)
        assert sorted(all_ids.tolist()) == list(range(n))


def _loop_ghost_images(pos, lo, hi, width, box, exclude_unshifted=False):
    """The 27-image sweep `_ghost_images` replaced, kept as the oracle:
    its emission order is what every bit-identity suite depends on."""
    pos = np.asarray(pos, dtype=np.float64)
    idx_chunks = []
    shift_chunks = []
    lo_e = lo - width
    hi_e = hi + width
    for sx in (-box, 0.0, box):
        for sy in (-box, 0.0, box):
            for sz in (-box, 0.0, box):
                shift = np.array([sx, sy, sz])
                if exclude_unshifted and sx == sy == sz == 0.0:
                    continue
                shifted = pos + shift
                mask = np.all((shifted >= lo_e) & (shifted < hi_e), axis=1)
                if mask.any():
                    sel = np.nonzero(mask)[0]
                    idx_chunks.append(sel)
                    shift_chunks.append(np.broadcast_to(shift, (len(sel), 3)))
    if idx_chunks:
        return np.concatenate(idx_chunks), np.vstack(shift_chunks)
    return np.empty(0, dtype=np.int64), np.empty((0, 3))


def _assert_same_selection(pos, lo, hi, width, box, exclude_unshifted):
    want_idx, want_shift = _loop_ghost_images(
        pos, lo, hi, width, box, exclude_unshifted)
    idx, shift = _ghost_images(pos, lo, hi, width, box, exclude_unshifted)
    np.testing.assert_array_equal(idx, want_idx)
    np.testing.assert_array_equal(shift, want_shift)
    assert idx.ndim == 1 and idx.dtype.kind == "i"
    assert shift.shape == (len(idx), 3) and shift.dtype == np.float64
    return idx, shift


GRIDS = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (4, 1, 1)]


class TestGhostImageSelection:
    """`_ghost_images` against the loop it replaced: same rows, same
    shifts, *same order* — ghost order fixes pair-row order and with it
    every summation the bit-identity contract covers."""

    @pytest.mark.parametrize("dims", GRIDS)
    @pytest.mark.parametrize("width_frac", [0.0, 0.1, 0.3, 0.499])
    @pytest.mark.parametrize("exclude_unshifted", [False, True])
    def test_matches_loop_in_order(self, dims, width_frac, exclude_unshifted):
        box = 12.0
        d = CartesianDecomposition(box, dims)
        width = width_frac * d.widths.min()
        rng = np.random.default_rng(5)
        # the driver drifts without wrapping: rows sit outside [0, box)
        pos = rng.uniform(-3.0, box + 3.0, (200, 3))
        selected = 0
        for rank in range(d.n_ranks):
            lo, hi = d.bounds(rank)
            idx, _ = _assert_same_selection(
                pos, lo, hi, width, box, exclude_unshifted)
            selected += len(idx)
        assert selected > 0

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("exclude_unshifted", [False, True])
    def test_empty_and_single_row(self, n, exclude_unshifted):
        box = 8.0
        d = CartesianDecomposition(box, (2, 1, 1))
        pos = np.full((n, 3), 0.25)
        for rank in range(2):
            lo, hi = d.bounds(rank)
            idx, shift = _assert_same_selection(
                pos, lo, hi, 1.0, box, exclude_unshifted)
            if n == 0:
                assert idx.shape == (0,) and shift.shape == (0, 3)

    @pytest.mark.parametrize("exclude_unshifted", [False, True])
    def test_closed_below_open_above(self, exclude_unshifted):
        # rank 0 of (2,1,1) on box 16, width 2: x in [-2, 10), y/z the
        # whole box plus margins; every number here is exact in binary
        box, width = 16.0, 2.0
        d = CartesianDecomposition(box, (2, 1, 1))
        lo, hi = d.bounds(0)
        x = np.array([-2.0, 10.0, 14.0, -6.0, 26.0, np.nextafter(10.0, 0.0),
                      np.nextafter(-2.0, -3.0)])
        pos = np.column_stack([x, np.full_like(x, 5.0), np.full_like(x, 5.0)])
        idx, shift = _assert_same_selection(
            pos, lo, hi, width, box, exclude_unshifted)
        got = {(int(i), float(s[0])) for i, s in zip(idx, shift)
               if s[1] == 0.0 and s[2] == 0.0}
        want = {(2, -box)}                # 14 - 16 = -2: on lo_e, in
        if not exclude_unshifted:
            want |= {(0, 0.0), (5, 0.0)}  # -2 on lo_e and just under hi_e
        # 10 and -6 + 16 = 26 - 16 = 10 sit on hi_e, row 6 just under
        # lo_e: out under every shift
        assert got == want
        # the same edges along y and z
        for axis in (1, 2):
            p = np.full((2, 3), 5.0)
            p[:, axis] = [lo[axis] - width, hi[axis] + width]
            idx, shift = _assert_same_selection(
                p, lo, hi, width, box, exclude_unshifted)
            unshifted = idx[np.all(shift == 0.0, axis=1)]
            assert unshifted.tolist() == ([] if exclude_unshifted else [0])

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 60),
        grid=st.sampled_from(GRIDS),
        width_frac=st.floats(0.0, 0.499),
        exclude_unshifted=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_matches_loop(self, seed, n, grid, width_frac,
                                   exclude_unshifted):
        box = 10.0
        d = CartesianDecomposition(box, grid)
        rng = np.random.default_rng(seed)
        pos = rng.uniform(-4.0, box + 4.0, (n, 3))
        rank = int(rng.integers(d.n_ranks))
        lo, hi = d.bounds(rank)
        _assert_same_selection(pos, lo, hi, width_frac * d.widths.min(),
                               box, exclude_unshifted)

    @pytest.mark.parametrize(
        "dims", [(2, 1, 1), (1, 1, 2), (2, 2, 1), (2, 2, 2)])
    def test_exchange_delivers_loop_order(self, dims):
        # along an axis with a single rank, a rank ships wrap images to
        # itself; the received sequence is the concatenation over source
        # ranks of what each source's loop selects for this destination
        rng = np.random.default_rng(11)
        n, box, w = 300, 30.0, 3.0
        d = CartesianDecomposition(box, dims)
        pos = rng.uniform(0, box, (n, 3))
        owner = d.rank_of_positions(pos)
        ids = np.arange(n)

        def fn(comm):
            mine = owner == comm.rank
            return exchange_overload(comm, pos[mine], ids[mine], d, w)

        results = World(d.n_ranks).run(fn)
        for dest, (ghost_pos, ghost_ids) in enumerate(results):
            lo, hi = d.bounds(dest)
            want_ids, want_pos = [], []
            for src in range(d.n_ranks):
                mine = owner == src
                idx, shift = _loop_ghost_images(
                    pos[mine], lo, hi, w, box, exclude_unshifted=src == dest)
                want_ids.append(ids[mine][idx])
                want_pos.append(pos[mine][idx] + shift)
            assert len(ghost_ids) > 0
            np.testing.assert_array_equal(ghost_ids, np.concatenate(want_ids))
            np.testing.assert_array_equal(ghost_pos, np.concatenate(want_pos))
            if 1 in dims:
                own = owner[ghost_ids] == dest
                assert own.any()  # wrap images of its own rows came back

    def test_one_selection_pass_per_destination(self, monkeypatch):
        # counts, not timers: the send list of one exchange costs one
        # np.nonzero and at most one np.all per destination (the 27-image
        # sweep made 27 np.all per destination)
        calls = []

        class CountingNumpy:
            def __getattr__(self, name):
                if name in ("nonzero", "all"):
                    calls.append(name)  # list.append is atomic across ranks
                return getattr(np, name)

        monkeypatch.setattr(overload, "np", CountingNumpy())
        rng = np.random.default_rng(12)
        box, n_ranks = 20.0, 2
        d = make_decomposition(box, n_ranks)
        pos = rng.uniform(0, box, (120, 3))
        owner = d.rank_of_positions(pos)

        def fn(comm):
            mine = owner == comm.rank
            exchange = GhostExchange(
                comm, pos[mine], {"ids": np.nonzero(mine)[0]}, d, 2.0)
            return len(exchange.wait()[0])

        received = World(n_ranks).run(fn)
        assert all(k > 0 for k in received)
        destinations = n_ranks * n_ranks
        assert 0 < calls.count("nonzero") <= destinations
        assert calls.count("all") <= destinations
