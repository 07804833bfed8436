"""Distributed rung subcycling + nonblocking migration regression tests.

Pins the tentpole invariants of the rung-pipelined distributed driver
(that active-set overlap runs end on the bits of full-evaluation blocking
runs is a golden class, ``tests/integration/test_golden_hashes.py``):

- distributed ``StepRecord``/``SubcycleStats`` are honest — the claimed
  schedule matches what :class:`HierarchicalIntegrator` executes for the
  same rung multiset, and flat runs (depth 0 of the same loop) still
  report ``n_substeps=1``;
- a rank is a :class:`RankDomain` object that can be built and stepped
  without the simulation driver, and step hooks see the owned arrays;
- the two-wave nonblocking migration hides wire time (overlap migration
  wait shrinks vs blocking under latency) and cancels cleanly on an
  abort path (no leaked requests for the comm sanitizer).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.timestep import HierarchicalIntegrator
from repro.cosmology import PLANCK18
from repro.parallel.comm import CommError
from repro.parallel.distributed_sim import (
    DistributedConfig,
    DistributedSimulation,
)

BOX = 120.0


def _clustered_ics(seed=7, n_side=4, n_blob=24, blob_mass=2.0e12):
    """Jittered DM grid plus a tight heavy clump: the clump's mutual
    accelerations push its particles onto deep rungs while the background
    stays on rung 0 — the rung-imbalanced layout subcycling targets."""
    rng = np.random.default_rng(seed)
    g = (np.arange(n_side) + 0.5) * BOX / n_side
    grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1)
    dm = np.mod(grid.reshape(-1, 3) + rng.normal(0, 1.0, (n_side**3, 3)),
                BOX)
    blob = 75.0 + 0.5 * rng.standard_normal((n_blob, 3))
    pos = np.vstack([dm, blob])
    vel = rng.normal(0, 25.0, pos.shape)
    mass = np.full(len(pos), 1.0e10)
    mass[len(dm):] = blob_mass
    return pos, vel, mass


def _config(comm_mode, active_set, subcycle=True, latency=0.0,
            sanitize=False, **kw):
    return DistributedConfig(
        box=BOX, pm_grid=32, a_init=0.3, a_final=0.34, n_pm_steps=2,
        cosmo=PLANCK18, r_split_cells=1.0, comm_mode=comm_mode,
        subcycle=subcycle, active_set=active_set, max_rung=3,
        net_latency_s=latency, sanitize=sanitize, **kw,
    )


def _run(cfg, n_ranks, ics):
    pos, vel, mass = ics
    sim = DistributedSimulation(cfg, n_ranks)
    out = sim.run(pos.copy(), vel.copy(), mass.copy())
    return out, sim


def test_step_record_honesty_vs_serial_integrator(toy_domain):
    """The schedule a distributed record claims matches the schedule the
    rung loop executes for the same rung multiset.

    ``SubcycleStats.rung_counts`` carries the global rung histogram; the
    substep schedule (substep count, evaluation count, active totals) is
    a pure function of that multiset, so rebuilding the rungs and running
    :class:`HierarchicalIntegrator` over a force-free toy domain must
    reproduce every bookkeeping number the distributed run reported —
    whatever the rank count, particle counts included.
    """
    ics = _clustered_ics()
    da = (0.34 - 0.3) / 2
    for n_ranks in (1, 2, 4):
        (_, _, _), sim = _run(_config("overlap", True), n_ranks, ics)
        for rec in sim.step_records:
            stats = rec.subcycle
            assert stats is not None
            assert rec.n_substeps == stats.n_substeps == 2**rec.deepest_rung
            assert rec.deepest_rung == stats.deepest_rung
            assert rec.n_particles == stats.n_particles == len(ics[0])
            assert sum(stats.rung_counts) == stats.n_particles

            rungs = np.repeat(
                np.arange(len(stats.rung_counts)), stats.rung_counts
            ).astype(np.int16)
            n = len(rungs)
            ref = HierarchicalIntegrator(da).run(
                toy_domain(np.zeros((n, 3)), np.zeros((n, 3)), rungs), 0.3
            )
            assert stats.n_substeps == ref.n_substeps
            assert stats.n_force_evaluations == ref.n_force_evaluations
            assert stats.n_active_total == ref.n_active_total
            assert stats.deepest_rung == ref.deepest_rung


def test_flat_mode_reports_single_substep():
    ics = _clustered_ics()
    (_, _, _), sim = _run(_config("overlap", True, subcycle=False), 4, ics)
    for rec in sim.step_records:
        assert rec.n_substeps == 1
        assert rec.deepest_rung == 0
        # flat is depth 0 of the one loop: same reduced bookkeeping
        assert rec.subcycle.n_substeps == 1
        assert rec.subcycle.n_force_evaluations == 2
        assert rec.subcycle.n_particles == rec.n_particles == len(ics[0])
        assert rec.subcycle.rung_counts[0] == len(ics[0])


@pytest.mark.parametrize("comm_mode", ["blocking", "overlap"])
def test_flat_is_depth_zero_of_the_rung_loop(comm_mode):
    """``subcycle=False`` selects no second step body: it is the subcycled
    driver with every rung clipped to 0 (bitwise: the flat golden
    classes), less the depth reduction."""
    ics = _clustered_ics()
    _, flat = _run(_config(comm_mode, True, subcycle=False), 2, ics)
    _, deep0 = _run(replace(_config(comm_mode, True), max_rung=0), 2, ics)
    # the only saving: no depth reduction (one collective per rank-step)
    assert (deep0.traffic.collective_calls - flat.traffic.collective_calls
            == 2 * len(flat.step_records))


def test_rank_domain_steps_without_the_simulation_driver():
    """A rank is an object: build one on a 1-rank World and step it by
    hand; it lands where ``DistributedSimulation.run`` lands."""
    from repro.parallel.comm import World
    from repro.parallel.decomposition import make_decomposition
    from repro.parallel.distributed_sim import RankDomain

    pos, vel, mass = _clustered_ics()
    cfg = _config("overlap", True)
    n = len(pos)

    def drive(comm):
        rank = RankDomain(comm, cfg, make_decomposition(BOX, 1), {
            "pos": np.mod(pos, BOX), "vel": vel.copy(), "mass": mass.copy(),
            "u": np.zeros(n), "ids": np.arange(n),
            "gas": np.ones(n, dtype=bool),
        })
        first = rank.step()
        assert rank.flight is not None  # overlap: migration still in flight
        rank.step()
        rank.settle()
        assert rank.flight is None and rank.istep == 1
        assert first.subcycle.n_particles == n
        order = np.argsort(rank.ids)
        return rank.pos[order], rank.vel[order]

    (by_hand,) = World(1).run(drive)
    (p, v, _), _sim = _run(cfg, 1, (pos, vel, mass))
    assert np.array_equal(by_hand[0], p)
    assert np.array_equal(by_hand[1], v)


@pytest.mark.parametrize("subcycle", [False, True])
def test_step_hook_contract(subcycle):
    """Hooks get ``(comm, istep, a, my)`` on every rank after each step;
    ``my`` maps the six owned-array names and the union over ranks is a
    permutation of the input particles (what the checkpointer relies on).
    """
    pos, vel, mass = _clustered_ics()
    cfg = _config("overlap", True, subcycle=subcycle)
    sim = DistributedSimulation(cfg, 4)
    seen = {}

    def hook(comm, istep, a, my):
        names = ("pos", "vel", "mass", "u", "ids", "gas")
        assert len({len(my[k]) for k in names}) == 1
        seen[(istep, comm.rank)] = (a, my["ids"].copy(), my["mass"].copy())

    sim.step_hooks.append(hook)
    sim.run(pos.copy(), vel.copy(), mass.copy())
    assert set(seen) == {(i, r) for i in range(2) for r in range(4)}
    for istep in range(2):
        a_vals = {seen[(istep, r)][0] for r in range(4)}
        assert a_vals == {sim.step_records[istep].a}
        ids = np.concatenate([seen[(istep, r)][1] for r in range(4)])
        np.testing.assert_array_equal(np.sort(ids), np.arange(len(pos)))
        m = np.concatenate([seen[(istep, r)][2] for r in range(4)])
        np.testing.assert_array_equal(m[np.argsort(ids)], mass)


def test_nonblocking_migration_hides_wire_time():
    """Under fabric latency the overlap driver's migration wait collapses:
    wave 1 matures behind the closing evaluation, wave 2 behind the next
    opening, while blocking mode pays every alltoallv's latency idle."""
    ics = _clustered_ics()
    latency = 0.02

    def mig_wait(sim):
        return sum(r.comm_wait.get("migration", 0.0)
                   for r in sim.step_records)

    _, ovl = _run(_config("overlap", True, latency=latency), 4, ics)
    _, blk = _run(_config("blocking", True, latency=latency), 4, ics)
    assert mig_wait(blk) > 0
    assert mig_wait(ovl) < 0.5 * mig_wait(blk)

    # flat mode uses the same two-wave machinery
    _, fovl = _run(
        _config("overlap", True, subcycle=False, latency=latency), 4, ics
    )
    _, fblk = _run(
        _config("blocking", True, subcycle=False, latency=latency), 4, ics
    )
    assert mig_wait(fovl) < 0.5 * mig_wait(fblk)


def test_abort_cancels_in_flight_migration(monkeypatch):
    """A mid-step failure between the migration waves leaves no leaked
    requests: the abort path cancels both waves, so every request record
    the comm sanitizer tracked is settled."""
    from repro.sanitize.numerics import NumericsSanitizer

    ics = _clustered_ics()

    real = NumericsSanitizer.check_energy

    def tripwire(self, step, energy):
        # fires after the closing kick of step 1, i.e. with migration
        # wave 1 and wave 2 posted but not settled
        if step >= 1:
            raise FloatingPointError("injected tripwire")
        return real(self, step, energy)

    monkeypatch.setattr(NumericsSanitizer, "check_energy", tripwire)
    sim = DistributedSimulation(
        _config("overlap", True, sanitize=True), 4, observe=None
    )
    pos, vel, mass = ics
    with pytest.raises(CommError):
        sim.run(pos.copy(), vel.copy(), mass.copy())
    records = sim.world.sanitizer._records
    assert records, "sanitizer saw no requests"
    assert all(rec.settled for rec in records)
