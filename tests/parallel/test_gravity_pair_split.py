"""A rank splits its short-range gravity by pair frame, not by sink.

Before the ghost exchange lands, every owned-owned pair is evaluated for
every sink; after it, the pairs crossing from an owned particle to a ghost
continue the same running sums.  Owned rows precede ghosts in the
overloaded frame, so this replays, for every sink, the row order of one
pass over the overloaded frame's half list:

- each owned sink's acceleration is bitwise that of one ``gravity_rows``
  pass over the overloaded frame, for every sink and for an active set,
  at 2 and 4 ranks, on ICs whose pairs cross rank faces, and the directed
  rows counted are the same;
- the overloaded-frame gravity cache holds only crossing rows
  ``pi < n_owned <= pj`` and no self rows;
- the drift bound is CRKSPH's alone: a gravity-only run posts no drift
  reduction, a hydro run one per substep per rank.
"""

import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.constants import G_COSMO
from repro.core.gravity.short_range import PairSums
from repro.core.sink_rows import gravity_rows
from repro.core.timestep import a_hubble
from repro.cosmology import PLANCK18, zeldovich_ics
from repro.parallel.comm import SimComm, World
from repro.parallel.decomposition import make_decomposition
from repro.parallel.distributed_sim import (
    DistributedConfig,
    DistributedSimulation,
    RankDomain,
)
from repro.parallel.overload import GhostExchange
from repro.tree import PairCache
from repro.tree.chaining_mesh import half_neighbor_pairs

BOX = 100.0
A = 0.25


def _gravity_ics():
    """8^3 Zel'dovich particles 12.5 apart against a cutoff of about 15:
    every rank face has pairs across it."""
    ics = zeldovich_ics(8, BOX, PLANCK18, a_init=0.2, seed=17)
    pos = np.mod(ics.positions, BOX)
    return pos, ics.velocities, np.full(len(pos), ics.particle_mass)


def _gravity_config(**kw):
    return DistributedConfig(box=BOX, pm_grid=32, a_init=0.2, a_final=0.3,
                             n_pm_steps=2, cosmo=PLANCK18, r_split_cells=1.0,
                             **kw)


@pytest.mark.parametrize("m", [0, 150, 299, 300])
def test_two_passes_are_one_pass(m):
    """``gravity_rows`` over the first ``m`` rows, then over the crossing
    rows of the whole frame, continuing the same sums: the sinks' bits and
    directed rows of one pass over the whole frame, also when nothing
    follows the first rows (``m = n``) or nothing precedes them."""
    rng = np.random.default_rng(3)
    pos = rng.uniform(0, 6.0, (300, 3))
    mass = rng.uniform(0.5, 2.0, 300)
    cfg = SimpleNamespace(cutoff=1.3, r_split=0.4, softening=0.03)
    for sinks in (None, np.sort(rng.choice(m, m // 3, replace=False))):
        every = np.arange(m) if sinks is None else sinks
        one = np.zeros((300, 3))
        n_one = gravity_rows(one, PairCache(box=None), pos, mass, every, cfg,
                             1.0)
        sums, two = PairSums(m), np.zeros((m, 3))
        n_two = gravity_rows(None, PairCache(box=None), pos[:m], mass[:m],
                             sinks, cfg, 1.0, sums=sums)
        n_two += gravity_rows(two, PairCache(box=None, include_self=False),
                              pos, mass, sinks, cfg, 1.0, sums=sums, cross=m)
        assert np.array_equal(two[every], one[every])
        assert n_two == n_one


def _split_and_reference(comm, cfg, decomp, ics, active):
    """On one rank: the split's dv/da and pair count, one overloaded-frame
    pass's, and the frame the crossing cache indexes."""
    pos, vel, mass = ics
    n = len(pos)
    mine = decomp.rank_of_positions(pos) == comm.rank
    rank = RankDomain(comm, cfg, decomp, {
        "pos": pos[mine], "vel": vel[mine], "mass": mass[mine],
        "u": np.zeros(n)[mine], "ids": np.arange(n)[mine],
        "gas": np.zeros(n, dtype=bool)[mine],
    })
    n_owned = len(rank.pos)
    sinks = None
    if active:
        rng = np.random.default_rng(comm.rank)
        sinks = np.sort(rng.choice(n_owned, n_owned // 3, replace=False))
    dv_da = rank._short_forces(A, sinks, False)[0]
    # the same ghosts again: the exchange is a pure function of its inputs
    ghost_pos, gfl = GhostExchange(comm, rank.pos, {
        "mass": rank.mass, "ids": rank.ids}, decomp,
        cfg.overload_width).wait()
    frame = (np.vstack([rank.pos, ghost_pos]),
             np.concatenate([rank.mass, gfl["mass"]]),
             np.concatenate([rank.ids, gfl["ids"]]))
    ref = np.zeros((n_owned, 3))
    ref_pairs = gravity_rows(
        ref, PairCache(box=None), frame[0], frame[1],
        np.arange(n_owned) if sinks is None else sinks, cfg,
        G_COSMO / A, ids=frame[2])
    return dict(dv_da=dv_da, n_pairs=rank.n_pairs, sinks=sinks,
                ref=ref / a_hubble(cfg, A), ref_pairs=ref_pairs,
                n_owned=n_owned, frame=frame, cache=rank.grav_cache)


@pytest.mark.parametrize("active", [False, True], ids=["full", "active"])
@pytest.mark.parametrize("n_ranks", [2, 4])
def test_split_is_one_overloaded_pass(n_ranks, active):
    cfg = _gravity_config()
    decomp = make_decomposition(BOX, n_ranks)
    ics = _gravity_ics()
    ranks = World(n_ranks).run(_split_and_reference, cfg, decomp, ics,
                               active)
    n_crossing = 0
    for r in ranks:
        every = slice(None) if r["sinks"] is None else r["sinks"]
        assert np.array_equal(r["dv_da"][every], r["ref"][every])
        if r["sinks"] is not None:
            rest = np.ones(r["n_owned"], dtype=bool)
            rest[r["sinks"]] = False
            assert not r["dv_da"][rest].any()
        assert r["n_pairs"] == r["ref_pairs"]

        # the crossing cache: exactly the overloaded half list's rows from
        # an owned particle to a ghost, no self rows
        cache, (pos, _, ids), m = r["cache"], r["frame"], r["n_owned"]
        assert cache.include_self is False
        builds = cache.n_builds
        got = [cache.get_for_sinks(pos, cfg.cutoff, None, ids=ids, block=b)
               for b in range(cache.n_blocks(pos, cfg.cutoff, ids=ids,
                                             cross=m))]
        assert cache.n_builds == builds  # the list the split evaluated
        pi = np.concatenate([rows.pi for rows in got])
        pj = np.concatenate([rows.pj for rows in got])
        assert np.all(pi < m) and np.all(pj >= m)
        hpi, hpj = half_neighbor_pairs(pos, cfg.cutoff)
        crossing = (hpi < m) & (hpj >= m)
        assert np.array_equal(pi, hpi[crossing])
        assert np.array_equal(pj, hpj[crossing])
        n_crossing += len(pi)
    assert n_crossing > 0  # pairs do cross the rank faces


def _drift_posts(monkeypatch, cfg, n_ranks, pos, vel, mass, **kw):
    """Run; return the per-rank count of reductions posted from
    ``RankDomain.drift`` and the substeps the run took."""
    posts = Counter()
    iallreduce = SimComm.iallreduce

    def spy(self, value, op="sum"):
        if sys._getframe(1).f_code.co_name == "drift":
            posts[self.rank] += 1
        return iallreduce(self, value, op=op)

    monkeypatch.setattr(SimComm, "iallreduce", spy)
    sim = DistributedSimulation(cfg, n_ranks)
    sim.run(pos, vel, mass, **kw)
    return ([posts[r] for r in range(n_ranks)],
            sum(rec.n_substeps for rec in sim.step_records))


@pytest.mark.parametrize("hydro", [False, True], ids=["gravity", "hydro"])
def test_drift_reduction_is_hydro_only(monkeypatch, hydro):
    """A subcycled run with a heavy clump on deep rungs: gravity posts no
    drift reduction; hydro posts one per substep per rank."""
    rng = np.random.default_rng(5)
    g = (np.arange(4) + 0.5) * 120.0 / 4
    grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
    clump = 75.0 + 0.5 * rng.standard_normal((16, 3))
    pos = np.vstack([np.mod(grid + rng.normal(0, 1.0, grid.shape), 120.0),
                     clump])
    vel = rng.normal(0, 25.0, pos.shape)
    mass = np.full(len(pos), 1.0e10)
    mass[64:] = 2.0e12
    cfg = DistributedConfig(
        box=120.0, pm_grid=32, a_init=0.3, a_final=0.34, n_pm_steps=2,
        cosmo=PLANCK18, r_split_cells=1.0, subcycle=True, max_rung=2,
        hydro=hydro, sph_h=6.0 if hydro else 0.0,
    )
    posts, substeps = _drift_posts(
        monkeypatch, cfg, 2, pos, vel, mass, u=np.full(len(pos), 1.0e4),
        gas=np.arange(len(pos)) >= 64)
    assert substeps > cfg.n_pm_steps  # subcycled: several drifts a step
    assert posts == [substeps if hydro else 0] * 2
