"""Verlet pair-list cache: correctness of reuse, filtering, and rebuilds."""

import numpy as np
import pytest

from repro.constants import G_COSMO
from repro.core.geometry import pair_geometry
from repro.core.gravity import (
    newtonian_pair_kernel,
    short_range_accelerations,
    short_range_shape,
)
from repro.core.sph import crksph_derivatives, get_kernel
from repro.tree import PairCache, PairRows, neighbor_pairs
from repro.tree.chaining_mesh import half_neighbor_pairs


def _pair_set(pi, pj):
    return set(zip(pi.tolist(), pj.tolist()))


def _random_setup(n=200, box=8.0, seed=5):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0, box, size=(n, 3))
    h = rng.uniform(0.6, 1.0, size=n)
    return rng, pos, h, box


class TestCachedListMatchesFresh:
    def test_first_query_equals_fresh_list(self):
        _, pos, h, box = _random_setup()
        cache = PairCache(skin=0.3, box=box)
        pi, pj = cache.get(pos, h)[:2]
        fi, fj = neighbor_pairs(pos, h, box=box)
        assert _pair_set(pi, pj) == _pair_set(fi, fj)
        assert cache.n_builds == 1

    def test_query_after_drift_within_skin_no_rebuild(self):
        rng, pos, h, box = _random_setup()
        cache = PairCache(skin=0.3, box=box)
        cache.get(pos, h)
        # drift each particle well inside its skin * h / 2 allowance
        drift = rng.normal(size=pos.shape)
        drift *= (0.25 * 0.3 * h / np.linalg.norm(drift, axis=1))[:, None]
        moved = np.mod(pos + drift, box)
        pi, pj = cache.get(moved, h)[:2]
        assert cache.n_builds == 1  # reused
        fi, fj = neighbor_pairs(moved, h, box=box)
        assert _pair_set(pi, pj) == _pair_set(fi, fj)

    def test_open_boundary_domain(self):
        rng = np.random.default_rng(9)
        pos = rng.uniform(0, 5, size=(100, 3))
        h = np.full(100, 0.8)
        cache = PairCache(skin=0.25, box=None)
        pi, pj = cache.get(pos + 0.0, h)[:2]
        fi, fj = neighbor_pairs(pos, h, box=None)
        assert _pair_set(pi, pj) == _pair_set(fi, fj)


class TestCachedQueryIsTheFreshArrays:
    """Row order is canonical, not a by-product of the build, so a query is
    ``array_equal`` to a fresh list whenever the cache last rebuilt."""

    @staticmethod
    def _assert_same_arrays(cache, pos, h, box):
        pi, pj = cache.get(pos, h)[:2]
        fi, fj = neighbor_pairs(pos, h, box=box)
        assert np.array_equal(pi, fi)
        assert np.array_equal(pj, fj)

    @pytest.mark.parametrize("periodic", [True, False])
    def test_after_sub_skin_drift(self, periodic):
        rng, pos, h, box = _random_setup()
        box = box if periodic else None
        cache = PairCache(skin=0.3, box=box)
        self._assert_same_arrays(cache, pos, h, box)
        drift = rng.normal(size=pos.shape)
        drift *= (0.25 * 0.3 * h / np.linalg.norm(drift, axis=1))[:, None]
        moved = np.mod(pos + drift, box) if periodic else pos + drift
        self._assert_same_arrays(cache, moved, h, box)
        assert cache.n_builds == 1

    def test_after_h_triggered_rebuild_and_later_drift(self):
        rng, pos, h, box = _random_setup()
        cache = PairCache(skin=0.25, box=box)
        cache.get(pos, h)
        grown = h.copy()
        grown[::7] *= 1.3
        self._assert_same_arrays(cache, pos, grown, box)
        assert cache.n_rebuilds_h == 1
        drift = rng.normal(size=pos.shape)
        drift *= (0.25 * 0.25 * h / np.linalg.norm(drift, axis=1))[:, None]
        self._assert_same_arrays(cache, np.mod(pos + drift, box), grown, box)
        assert cache.n_builds == 2


class TestRebuildTriggers:
    def test_drift_beyond_skin_rebuilds(self):
        rng, pos, h, box = _random_setup()
        cache = PairCache(skin=0.2, box=box)
        cache.get(pos, h)
        kick = np.zeros_like(pos)
        kick[7] = 1.1 * 0.5 * 0.2 * h[7]  # one particle past skin/2
        pi, pj = cache.get(np.mod(pos + kick, box), h)[:2]
        assert cache.n_builds == 2
        assert cache.n_rebuilds_drift == 1
        fi, fj = neighbor_pairs(np.mod(pos + kick, box), h, box=box)
        assert _pair_set(pi, pj) == _pair_set(fi, fj)

    def test_support_growth_rebuilds(self):
        _, pos, h, box = _random_setup()
        cache = PairCache(skin=0.25, box=box)
        cache.get(pos, h)
        grown = h.copy()
        grown[3] *= 1.3
        pi, pj = cache.get(pos, grown)[:2]
        assert cache.n_rebuilds_h == 1
        fi, fj = neighbor_pairs(pos, grown, box=box)
        assert _pair_set(pi, pj) == _pair_set(fi, fj)

    def test_support_shrink_reuses(self):
        _, pos, h, box = _random_setup()
        cache = PairCache(skin=0.25, box=box)
        cache.get(pos, h)
        pi, pj = cache.get(pos, 0.8 * h)[:2]
        assert cache.n_builds == 1
        fi, fj = neighbor_pairs(pos, 0.8 * h, box=box)
        assert _pair_set(pi, pj) == _pair_set(fi, fj)

    def test_changed_ids_rebuild(self):
        _, pos, h, box = _random_setup()
        cache = PairCache(skin=0.25, box=box)
        ids = np.arange(len(pos))
        cache.get(pos, h, ids=ids)
        other = ids.copy()
        other[[0, 1]] = other[[1, 0]]
        cache.get(pos, h, ids=other)
        assert cache.n_rebuilds_ids == 1

    def test_changed_count_rebuilds(self):
        _, pos, h, box = _random_setup()
        cache = PairCache(skin=0.25, box=box)
        cache.get(pos, h)
        cache.get(pos[:-5], h[:-5])
        assert cache.n_builds == 2

    def test_invalidate_forces_rebuild(self):
        _, pos, h, box = _random_setup()
        cache = PairCache(skin=0.25, box=box)
        cache.get(pos, h)
        cache.invalidate()
        cache.get(pos, h)
        assert cache.n_builds == 2

    def test_negative_skin_rejected(self):
        with pytest.raises(ValueError):
            PairCache(skin=-0.1)


def _equilibrated_gas(n_side=6, box=8.0, seed=12):
    """Jittered lattice with supports relaxed to ~40 neighbors — the
    well-conditioned neighborhood the CRK moment inversion expects."""
    from repro.core.sph import compute_number_density, make_pair_batch
    from repro.core.sph.hydro import update_smoothing_lengths

    rng = np.random.default_rng(seed)
    g = (np.indices((n_side,) * 3).reshape(3, -1).T + 0.5) * (box / n_side)
    pos = np.mod(g + rng.normal(scale=0.05 * box / n_side, size=g.shape), box)
    kernel = get_kernel("wendland_c4")
    h = np.full(len(pos), 1.6 * box / n_side)
    for _ in range(3):
        rows = PairRows.measured(pos, *neighbor_pairs(pos, h, box=box), box)
        _, vol = compute_number_density(make_pair_batch(rows, h, kernel))
        h = update_smoothing_lengths(vol, n_target=40, h_old=h)
    return rng, pos, h, kernel, box


class TestForcesThroughCache:
    def test_forces_match_fresh_after_drift_within_skin(self):
        """Cached-list CRKSPH forces equal fresh-list forces after a drift
        that stays inside the skin (pair sets identical; only summation
        order may differ)."""
        rng, pos, h, kernel, box = _equilibrated_gas()
        vel = rng.normal(scale=2.0, size=pos.shape)
        mass = np.full(len(pos), 1.0)
        u = np.full(len(pos), 15.0)

        cache = PairCache(skin=0.3, box=box)
        cache.get(pos, h)
        drift = rng.normal(size=pos.shape)
        drift *= (0.3 * 0.3 * h / np.linalg.norm(drift, axis=1))[:, None]
        moved = np.mod(pos + drift, box)

        pi_c, pj_c = cache.get(moved, h)[:2]
        assert cache.n_builds == 1
        d_cached = crksph_derivatives(
            moved, vel, mass, u, h, pi_c, pj_c, kernel, box=box
        )
        fi, fj = neighbor_pairs(moved, h, box=box)
        d_fresh = crksph_derivatives(
            moved, vel, mass, u, h, fi, fj, kernel, box=box
        )
        atol_a = 1e-10 * float(np.abs(d_fresh.accel).max())
        np.testing.assert_allclose(d_cached.accel, d_fresh.accel,
                                   rtol=1e-9, atol=atol_a)
        atol_u = 1e-10 * float(np.abs(d_fresh.du_dt).max())
        np.testing.assert_allclose(d_cached.du_dt, d_fresh.du_dt,
                                   rtol=1e-9, atol=atol_u)
        np.testing.assert_allclose(d_cached.max_signal_speed,
                                   d_fresh.max_signal_speed, rtol=1e-12)

    def test_conservation_through_cached_list(self):
        """Momentum/energy stay at round-off with a reused cached list —
        the filter preserves the symmetric pair-list contract."""
        rng, pos, h, box = _random_setup(n=180, seed=21)
        kernel = get_kernel("wendland_c4")
        vel = rng.normal(scale=2.0, size=pos.shape)
        mass = rng.uniform(0.5, 1.5, size=len(pos))
        u = np.full(len(pos), 10.0)

        cache = PairCache(skin=0.25, box=box)
        cache.get(pos, h)
        drift = rng.normal(scale=0.01 * h.min(), size=pos.shape)
        moved = np.mod(pos + drift, box)
        pi, pj = cache.get(moved, h)[:2]
        assert cache.n_builds == 1

        d = crksph_derivatives(moved, vel, mass, u, h, pi, pj, kernel, box=box)
        mom_rate = np.sum(mass[:, None] * d.accel, axis=0)
        e_rate = float(np.sum(mass * (np.einsum("na,na->n", vel, d.accel)
                                      + d.du_dt)))
        scale = float(np.sum(np.abs(mass[:, None] * d.accel)))
        assert np.all(np.abs(mom_rate) < 1e-11 * max(scale, 1.0))
        e_scale = float(np.sum(np.abs(mass * d.du_dt)))
        assert abs(e_rate) < 1e-10 * max(e_scale, 1.0)


class TestActiveSubsetQueries:
    """Active-sink pair queries: sink-set row selections must equal masked
    full queries, and the tiered slices must cover the CRK dependency
    closures."""

    def _sinks(self, n, k=40, seed=11):
        rng = np.random.default_rng(seed)
        return np.sort(rng.choice(n, size=k, replace=False))

    def test_get_for_sinks_equals_masked_get(self):
        """The unordered rows with an end in ``sinks`` are the ``pi < pj``
        rows of :meth:`get` that touch a sink, row for row and in order
        (half-list order), on periodic and open boxes."""
        _, pos, h, box = _random_setup()
        for b in (box, None):
            cache = PairCache(skin=0.3, box=b)
            rows = cache.get(pos, h)
            half = rows.pi < rows.pj
            for sinks in (np.empty(0, dtype=np.intp), np.array([3]),
                          self._sinks(len(pos))):
                m = half & (np.isin(rows.pi, sinks) | np.isin(rows.pj, sinks))
                for got, want in zip(cache.get_for_sinks(pos, h, sinks),
                                     rows):
                    np.testing.assert_array_equal(got, want[m])

    def test_get_for_sinks_after_drift_reuses_cache(self):
        rng, pos, h, box = _random_setup(seed=7)
        cache = PairCache(skin=0.3, box=box)
        cache.get(pos, h)
        drift = rng.normal(size=pos.shape)
        drift *= (0.25 * 0.3 * h / np.linalg.norm(drift, axis=1))[:, None]
        moved = np.mod(pos + drift, box)
        sinks = self._sinks(len(pos), seed=3)
        api, apj = cache.get_for_sinks(moved, h, sinks)[:2]
        assert cache.n_builds == 1  # reused across the drift
        fi, fj = neighbor_pairs(moved, h, box=box)
        m = (fi < fj) & (np.isin(fi, sinks) | np.isin(fj, sinks))
        assert _pair_set(api, apj) == _pair_set(fi[m], fj[m])

    def test_active_slices_tiers_and_pairs(self):
        _, pos, h, box = _random_setup()
        cache = PairCache(skin=0.3, box=box)
        pi, pj = cache.get(pos, h)[:2]
        sinks = self._sinks(len(pos), k=25, seed=5)
        sl = cache.active_slices(pos, h, sinks)

        # tier1 = sinks plus their gather sources
        t1 = np.unique(np.concatenate([sinks, pj[np.isin(pi, sinks)]]))
        np.testing.assert_array_equal(sl.tier1, t1)
        # tier2 = tier1 plus its gather sources
        t2 = np.unique(np.concatenate([t1, pj[np.isin(pi, t1)]]))
        np.testing.assert_array_equal(sl.tier2, t2)
        assert np.all(np.isin(sinks, sl.tier1))
        assert np.all(np.isin(sl.tier1, sl.tier2))

        # pairs1 are exactly the full-list rows whose sink is in tier1,
        # in CSR order; mask0 flags the sink-owned rows among them
        m1 = np.isin(pi, t1)
        np.testing.assert_array_equal(sl.rows1.pi, pi[m1])
        np.testing.assert_array_equal(sl.rows1.pj, pj[m1])
        np.testing.assert_array_equal(sl.mask0, np.isin(sl.rows1.pi, sinks))
        m2 = np.isin(pi, t2)
        np.testing.assert_array_equal(sl.rows2.pi, pi[m2])
        assert sl.n_pairs == (len(sl.rows1.pi) + len(sl.rows2.pi)
                              + int(sl.mask0.sum()))

    def test_active_hydro_rows_match_full(self):
        """crksph_derivatives_active reproduces the full evaluation on the
        sink rows exactly (same pair order, same reductions)."""
        from repro.core.sph import crksph_derivatives_active
        from repro.core.sph.eos import IdealGasEOS
        from repro.core.sph.viscosity import MonaghanViscosity

        rng, pos, h, box = _random_setup(n=160, seed=13)
        kernel = get_kernel("wendland_c4")
        vel = rng.normal(scale=2.0, size=pos.shape)
        mass = rng.uniform(0.5, 1.5, size=len(pos))
        u = rng.uniform(5.0, 20.0, size=len(pos))
        eos = IdealGasEOS()
        visc = MonaghanViscosity()

        cache = PairCache(skin=0.25, box=box)
        pi, pj = cache.get(pos, h)[:2]
        full = crksph_derivatives(pos, vel, mass, u, h, pi, pj, kernel,
                                  eos=eos, viscosity=visc, box=box)
        sinks = self._sinks(len(pos), k=30, seed=2)
        sl = cache.active_slices(pos, h, sinks)
        act = crksph_derivatives_active(pos, vel, mass, u, h, sl, kernel,
                                        eos=eos, viscosity=visc)
        np.testing.assert_array_equal(act.sinks, sinks)
        np.testing.assert_array_equal(act.accel, full.accel[sinks])
        np.testing.assert_array_equal(act.du_dt, full.du_dt[sinks])
        np.testing.assert_array_equal(act.max_signal_speed,
                                      full.max_signal_speed[sinks])
        np.testing.assert_array_equal(act.rho, full.rho[sl.tier1])

    def test_hop_closure_matches_bfs_over_superset(self):
        """hop_closure equals a breadth-first expansion over the cached
        (unfiltered) superset pair list."""
        _, pos, h, box = _random_setup()
        cache = PairCache(skin=0.3, box=box)
        cache.get(pos, h)
        spi, spj = cache._hpi, cache._hpj  # the half superset, pi < pj
        seeds = self._sinks(len(pos), k=12, seed=8)
        for hops in (0, 1, 2, 3):
            got = cache.hop_closure(pos, h, seeds, hops=hops)
            want = np.zeros(len(pos), dtype=bool)
            want[seeds] = True
            for _ in range(hops):
                want = want | np.isin(
                    np.arange(len(pos)),
                    np.concatenate([spj[want[spi]], spi[want[spj]]]),
                )
            np.testing.assert_array_equal(got, want)

    def test_hop_closure_accepts_boolean_seeds(self):
        _, pos, h, box = _random_setup()
        cache = PairCache(skin=0.3, box=box)
        seeds_idx = self._sinks(len(pos), k=10, seed=4)
        seeds_mask = np.zeros(len(pos), dtype=bool)
        seeds_mask[seeds_idx] = True
        a = cache.hop_closure(pos, h, seeds_idx, hops=2)
        b = cache.hop_closure(pos, h, seeds_mask, hops=2)
        np.testing.assert_array_equal(a, b)

    def test_hop_closure_is_monotone_and_contains_seeds(self):
        _, pos, h, box = _random_setup()
        cache = PairCache(skin=0.3, box=box)
        seeds = self._sinks(len(pos), k=8, seed=6)
        prev = None
        for hops in range(4):
            cur = cache.hop_closure(pos, h, seeds, hops=hops)
            assert cur[seeds].all()
            if prev is not None:
                assert np.all(prev <= cur)  # closures only grow with hops
            prev = cur

    def test_hop_closure_empty_seeds(self):
        _, pos, h, box = _random_setup()
        cache = PairCache(skin=0.3, box=box)
        got = cache.hop_closure(
            pos, h, np.empty(0, dtype=np.intp), hops=3
        )
        assert not got.any()

    def test_short_range_sink_rows_match_full(self):
        """Gravity on the unordered rows touching the sinks gives each sink
        its full-evaluation bits, and both match the directed sum."""
        rng, pos, h, box = _random_setup(n=150, seed=17)
        mass = rng.uniform(0.5, 1.5, size=len(pos))
        cache = PairCache(skin=0.25, box=box, include_self=False)
        cutoff = np.full(len(pos), 1.2)
        kw = dict(r_split=0.5, softening=0.02, box=box)
        rows = cache.get_for_sinks(pos, cutoff, None)
        full = short_range_accelerations(pos, mass, rows.pi, rows.pj, **kw)
        sinks = self._sinks(len(pos), k=35, seed=9)
        api, apj = cache.get_for_sinks(pos, cutoff, sinks)[:2]
        part = short_range_accelerations(pos, mass, api, apj, **kw)
        np.testing.assert_array_equal(part[sinks], full[sinks])

        pi, pj = cache.get(pos, cutoff)[:2]  # directed reference
        dx, r2 = pair_geometry(pos, pi, pj, box)
        r = np.sqrt(r2)
        w = (-G_COSMO * mass[pj] * newtonian_pair_kernel(r, 0.02)
             * short_range_shape(r, 0.5) / r)
        want = np.zeros((len(pos), 3))
        np.add.at(want, pi, w[:, None] * dx)
        np.testing.assert_allclose(full, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


class TestJointSkinBudget:
    """Support growth and drift share the skin: the list survives while
    every particle keeps ``g + δ <= skin/2`` counted from the build, and a
    violation is charged to ``h`` when the violating particle grew."""

    SKIN = 0.25

    def _moves(self, rng, n, budget):
        """Per-particle growth ``g`` and drift ``δ`` (units of ``h_build``)
        splitting ``budget`` at random, with a random drift direction."""
        split = rng.uniform(0.0, 1.0, n)
        g, delta = split * budget, (1.0 - split) * budget
        unit = rng.normal(size=(n, 3))
        unit /= np.linalg.norm(unit, axis=1)[:, None]
        return g, delta, unit

    @staticmethod
    def _assert_fresh(cache, pos, h, box):
        rows = cache.get(pos, h)
        fi, fj = neighbor_pairs(pos, h, box=box)
        assert np.array_equal(rows.pi, fi) and np.array_equal(rows.pj, fj)
        half = cache.get_for_sinks(pos, h, None)
        k = fi < fj
        assert np.array_equal(half.pi, fi[k]) and np.array_equal(half.pj, fj[k])

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("periodic", [True, False])
    def test_inside_budget_reuses_and_matches_fresh(self, seed, periodic):
        rng, pos, h, box = _random_setup(seed=seed)
        box = box if periodic else None
        cache = PairCache(skin=self.SKIN, box=box)
        cache.get(pos, h)
        budget = 0.5 * self.SKIN * rng.uniform(0.0, 0.99, len(pos))
        g, delta, unit = self._moves(rng, len(pos), budget)
        # growth accumulates over refreshes; each is measured from the build
        for t in (0.25, 0.5, 0.75, 1.0):
            moved = pos + (t * delta * h)[:, None] * unit
            if periodic:
                moved = np.mod(moved, box)
            self._assert_fresh(cache, moved, h * (1.0 + t * g), box)
        assert cache.n_builds == 1

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("violator", ["grow", "drift", "both"])
    def test_just_over_budget_rebuilds_with_reason(self, seed, violator):
        rng, pos, h, box = _random_setup(seed=seed)
        cache = PairCache(skin=self.SKIN, box=box)
        cache.get(pos, h)
        # everyone else uses up to 90 % of the budget, some by growing
        g, delta, unit = self._moves(
            rng, len(pos), 0.5 * self.SKIN * rng.uniform(0.0, 0.9, len(pos)))
        k = int(rng.integers(len(pos)))
        over = 0.5 * self.SKIN * 1.02
        g[k], delta[k] = {"grow": (over, 0.0), "drift": (0.0, over),
                          "both": (0.5 * over, 0.5 * over)}[violator]
        moved = np.mod(pos + (delta * h)[:, None] * unit, box)
        grown = h * (1.0 + g)
        self._assert_fresh(cache, moved, grown, box)
        assert cache.n_builds == 2
        want = "drift" if violator == "drift" else "h"
        assert (cache.n_rebuilds_h, cache.n_rebuilds_drift) == \
            ((1, 0) if want == "h" else (0, 1))

    def test_growth_elsewhere_does_not_name_a_drift_violation(self):
        _, pos, h, box = _random_setup(seed=3)
        cache = PairCache(skin=self.SKIN, box=box)
        cache.get(pos, h)
        grown = h.copy()
        grown[5] *= 1.0 + 0.4 * self.SKIN  # inside the budget
        kick = np.zeros_like(pos)
        kick[9, 0] = 0.51 * self.SKIN * h[9]  # over it, support unchanged
        cache.get(np.mod(pos + kick, box), grown)
        assert (cache.n_rebuilds_h, cache.n_rebuilds_drift) == (0, 1)


def _three_pass_slices(rows, sinks, n):
    """The reference active query: measure the sink rows, then all rows of
    tier 1, then all rows of tier 2 (``rows``: the full filtered list)."""
    from repro.tree import ActivePairSlices

    def sink_rows(s):
        at = np.flatnonzero(np.isin(rows.pi, s))
        return PairRows(*(np.take(a, at, axis=0) for a in rows))

    member = np.zeros(n, dtype=bool)
    member[sinks] = True
    t1 = member.copy()
    t1[sink_rows(sinks).pj] = True
    rows1 = sink_rows(np.flatnonzero(t1))
    t2 = t1.copy()
    t2[rows1.pj] = True
    return ActivePairSlices(sinks, np.flatnonzero(t1), np.flatnonzero(t2),
                            rows1, member[rows1.pi],
                            sink_rows(np.flatnonzero(t2)))


class TestActiveQueryMeasuresOnce:
    FIELDS = ("sinks", "tier1", "tier2", "mask0")

    @pytest.mark.parametrize("periodic", [True, False])
    def test_each_closure_row_measured_once_and_equal_to_three_passes(
            self, periodic, monkeypatch):
        import repro.tree.pair_cache as pc

        rng, pos, h, box = _random_setup(seed=23)
        box = box if periodic else None
        cache = PairCache(skin=0.3, box=box)
        cache.get(pos, h)
        drift = rng.normal(size=pos.shape)
        drift *= (0.2 * 0.3 * h / np.linalg.norm(drift, axis=1))[:, None]
        moved = pos + drift
        n = len(pos)
        seen = []

        def counting(x, pi, pj, b):
            seen.append(pi * n + pj)
            return pair_geometry(x, pi, pj, b)

        monkeypatch.setattr(pc, "pair_geometry", counting)
        for sinks in (np.empty(0, dtype=np.intp), np.array([7]),
                      np.sort(rng.choice(n, 20, replace=False)),
                      np.arange(n)):
            seen.clear()
            sl = cache.active_slices(moved, h, sinks)
            measured = np.concatenate(seen)
            assert len(np.unique(measured)) == len(measured)
            # each half-superset row with an end in tier 2, and no self
            # row, reaches pair_geometry exactly once
            spi, spj = cache._hpi, cache._hpj
            closure = np.isin(spi, sl.tier2) | np.isin(spj, sl.tier2)
            assert np.array_equal(np.sort(measured),
                                  spi[closure] * n + spj[closure])
            want = _three_pass_slices(cache.get(moved, h), sinks, n)
            for name in self.FIELDS:
                assert np.array_equal(getattr(sl, name), getattr(want, name))
            for got, ref in zip(sl.rows1 + sl.rows2, want.rows1 + want.rows2):
                assert np.array_equal(got, ref)
            assert sl.n_pairs == want.n_pairs
        assert cache.n_builds == 1

    def test_isolated_clump_counts_its_tier2_rows(self):
        """Explicit sinks on a clump with no outside neighbours: tier 2
        adds no rows, and the count still streams both tiers."""
        rng = np.random.default_rng(4)
        clump = 4.0 + rng.uniform(0.0, 0.3, (12, 3))
        far = rng.uniform(0.0, 2.0, (30, 3))
        pos = np.concatenate([far, clump])
        h = np.full(len(pos), 0.6)
        cache = PairCache(box=8.0)
        sinks = np.array([31, 35, 40])
        sl = cache.active_slices(pos, h, sinks)
        assert np.array_equal(sl.tier1, np.arange(30, 42))
        assert np.array_equal(sl.tier2, sl.tier1)
        assert np.array_equal(sl.rows2.pi, sl.rows1.pi) and not sl.full
        assert sl.n_pairs == (len(sl.rows1.pi) + len(sl.rows2.pi)
                              + int(sl.mask0.sum()))
        assert sl.n_pairs == 2 * 12 * 12 + 3 * 12


class TestStoredLists:
    @staticmethod
    def _holds_only_the_half_superset(cache, box):
        for name in ("_pi", "_pj", "_starts"):
            assert not hasattr(cache, name)
        hpi, hpj = half_neighbor_pairs(
            cache._ref_pos, cache._ref_h * (1.0 + cache.skin), box=box)
        assert np.array_equal(cache._hpi, hpi)
        assert np.array_equal(cache._hpj, hpj)
        assert cache.nbytes == hpi.nbytes + hpj.nbytes

    def test_gravity_cache_never_holds_directed_arrays(self):
        rng, pos, h, box = _random_setup(seed=31)
        cache = PairCache(box=box, include_self=False)
        for sinks in (None, np.arange(0, len(pos), 3), None):
            cache.get_for_sinks(pos, 1.1, sinks)
            self._holds_only_the_half_superset(cache, box)
            pos = np.mod(pos + rng.normal(scale=0.05, size=pos.shape), box)
        assert cache.n_builds >= 2  # drift forced rebuilds on the way

    def test_directed_query_keeps_only_the_directed_list(self):
        """A directed query returns the fresh directed list yet stores no
        directed form of it: whatever gravity and hydro queries run, the
        one list kept is the half superset of the last build."""
        rng, pos, h, box = _random_setup(seed=32)
        cache = PairCache(box=box)
        half = cache.get_for_sinks(pos, h, None)
        pi, pj = cache.get(pos, h)[:2]
        fi, fj = neighbor_pairs(pos, h, box=box)
        assert _pair_set(pi, pj) == _pair_set(fi, fj)
        self._holds_only_the_half_superset(cache, box)
        # the unordered query still serves, with no rebuild
        for got, want in zip(cache.get_for_sinks(pos, h, None), half):
            assert np.array_equal(got, want)
        assert cache.n_builds == 1
        sinks = np.arange(0, len(pos), 3)
        queries = (
            lambda c, x: c.get_for_sinks(x, h, None),
            lambda c, x: c.get(x, h),
            lambda c, x: c.get_for_sinks(x, h, sinks),
            lambda c, x: c.active_slices(x, h, sinks),
            lambda c, x: c.hop_closure(x, h, sinks, hops=2),
            lambda c, x: c.active_slices(x, h, None),
        )
        for _ in range(2):
            for query in queries:
                query(cache, pos)
                self._holds_only_the_half_superset(cache, box)
                pos = np.mod(pos + rng.normal(scale=0.03, size=pos.shape),
                             box)
        assert cache.n_builds >= 2  # drift forced rebuilds on the way
