"""X9: rung-pipelined distributed subcycling + nonblocking migration.

The deepest-rung particles of a clustered problem need da/8 kicks while
the background needs one; a flat distributed driver must step *everyone*
at the deep cadence, paying a full ghost exchange, FFT, and 7-field
migration per fine step.  The subcycled driver assigns rungs once per PM
interval, serves the deep-rung force evaluations from rank-local
active-sink pair queries over the overloaded ghost zone, and pipelines
them behind the in-flight exchanges; migration goes nonblocking in two
waves (positions + kick-invariant fields behind the closing evaluation,
velocities/u/acc_long behind the next opening), so its wire time leaves
the critical path entirely.

Modes compared over the same clustered layout at 4 ranks on a simulated
high-latency fabric:

- ``sub_overlap``   — subcycle + active-set + overlap + two-wave
  migration, sanitizers armed (the tentpole configuration);
- ``sub_blocking``  — subcycle, every particle evaluated every substep,
  blocking collectives: the bit-identity reference;
- ``flat_overlap``  — no subcycling; the PM interval is split into
  2^depth flat steps (same fine cadence for everyone) using the previous
  generation's overlap driver.

Full-mode acceptance: sub_overlap is >= 2x faster per PM interval than
flat_overlap, its migration wait share sits below 0.5 (from ~0.83 for
the blocking-migration overlap driver of X8), it is bit-identical to
sub_blocking, and the armed sanitizers report zero findings.  The run
also prints ``ghost_post_ms`` — the host-side cost of posting one ghost
exchange at these sizes, which the 0.15 s fabric latency otherwise buries.
"""

import time

import numpy as np

from repro.cosmology import PLANCK18
from repro.parallel import World, make_decomposition
from repro.parallel.distributed_sim import (
    DistributedConfig,
    DistributedSimulation,
)
from repro.parallel.overload import GhostExchange

from conftest import FULL, print_table, scaled

BOX = 120.0
N_RANKS = 4
MAX_RUNG = 3


def _clustered_ics(n_dm_side, n_blob, seed=7):
    """Jittered DM grid plus a tight heavy clump in one octant.

    The clump's mutual accelerations put its particles on deep rungs
    (the acceleration timestep criterion), concentrated on whichever
    ranks own that octant — deep-rung work is both rare and imbalanced,
    the regime the rung pipeline targets.
    """
    rng = np.random.default_rng(seed)
    g = (np.arange(n_dm_side) + 0.5) * BOX / n_dm_side
    grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1)
    dm = np.mod(
        grid.reshape(-1, 3) + rng.normal(0, 1.0, (n_dm_side**3, 3)), BOX
    )
    blob = 75.0 + 0.5 * rng.standard_normal((n_blob, 3))
    pos = np.vstack([dm, blob])
    vel = rng.normal(0, 25.0, pos.shape)
    mass = np.full(len(pos), 1.0e10)
    mass[len(dm):] = 2.0e12
    return pos, vel, mass


def _config(n_pm_steps, latency, **kw):
    return DistributedConfig(
        box=BOX, pm_grid=32, a_init=0.3,
        a_final=0.3 + 0.02 * n_pm_steps, n_pm_steps=n_pm_steps,
        cosmo=PLANCK18, r_split_cells=1.0, max_rung=MAX_RUNG,
        net_latency_s=latency, **kw,
    )


def _run(cfg, ics):
    pos, vel, mass = ics
    sim = DistributedSimulation(cfg, N_RANKS)
    t0 = time.perf_counter()
    out = sim.run(pos.copy(), vel.copy(), mass.copy())
    wall = time.perf_counter() - t0
    recs = sim.step_records
    total_wall = sum(sum(r.timers.values()) for r in recs)
    total_wait = sum(sum(r.comm_wait.values()) for r in recs)
    mig_wall = sum(r.timers.get("migration", 0.0) for r in recs)
    mig_wait = sum(r.comm_wait.get("migration", 0.0) for r in recs)
    return {
        "out": out, "sim": sim, "wall": wall,
        "wait_fraction": total_wait / max(total_wall, 1e-12),
        "migration_wait_s": mig_wait,
        "migration_wait_share": mig_wait / max(mig_wall, 1e-12),
    }


def _ghost_post_ms(cfg, ics, reps=20):
    """Mean wall of one ``GhostExchange`` construction (send-list
    selection + the per-field posts) over the bench's own rows, on an
    ideal wire so only the host-side set-up is timed."""
    pos, _, mass = ics
    decomp = make_decomposition(cfg.box, N_RANKS)
    owner = decomp.rank_of_positions(pos)

    def fn(comm):
        mine = owner == comm.rank
        fields = {"mass": mass[mine], "ids": np.nonzero(mine)[0]}
        spent = 0.0
        for _ in range(reps):
            t0 = time.perf_counter()
            exchange = GhostExchange(comm, pos[mine], fields, decomp,
                                     cfg.overload_width)
            spent += time.perf_counter() - t0
            exchange.wait()
        return spent / reps

    return 1e3 * float(np.mean(World(N_RANKS).run(fn)))


def test_x9_distributed_subcycle(benchmark):
    n_pm_steps = scaled(2, 1)
    latency = scaled(0.15, 0.02)
    ics = _clustered_ics(
        n_dm_side=scaled(8, 4), n_blob=scaled(48, 24)
    )
    res = {}

    def run():
        res["sub_overlap"] = _run(
            _config(n_pm_steps, latency, comm_mode="overlap",
                    subcycle=True, active_set=True, sanitize=True),
            ics,
        )
        res["sub_blocking"] = _run(
            _config(n_pm_steps, latency, comm_mode="blocking",
                    subcycle=True, active_set=False),
            ics,
        )
        # flat reference at the fine cadence the deepest rung demands:
        # 2^depth flat steps per PM interval, previous-generation driver
        depth = max(r.deepest_rung
                    for r in res["sub_overlap"]["sim"].step_records)
        res["flat_overlap"] = _run(
            _config(n_pm_steps * 2**depth, latency, comm_mode="overlap",
                    subcycle=False),
            ics,
        )
        return res

    benchmark.pedantic(run, rounds=1, iterations=1)

    sub = res["sub_overlap"]
    recs = sub["sim"].step_records
    depth = max(r.deepest_rung for r in recs)
    nsub = max(r.n_substeps for r in recs)
    # per-PM-interval wall: the flat reference takes 2^depth driver steps
    # to cover one interval
    step_s = {
        "sub_overlap": sub["wall"] / n_pm_steps,
        "sub_blocking": res["sub_blocking"]["wall"] / n_pm_steps,
        "flat_overlap": res["flat_overlap"]["wall"] / n_pm_steps,
    }
    speedup = step_s["flat_overlap"] / step_s["sub_overlap"]
    ghost_post_ms = _ghost_post_ms(_config(n_pm_steps, latency), ics)

    print_table(
        f"X9: distributed subcycling ({len(ics[0])} particles, "
        f"{N_RANKS} ranks, depth {depth} -> {nsub} substeps, "
        f"latency {latency}s)",
        ["Mode", "s / PM interval", "Wait frac", "Migration wait share"],
        [
            (m, f"{step_s[m]:.2f}", f"{res[m]['wait_fraction']:.2f}",
             f"{res[m]['migration_wait_share']:.2f}")
            for m in ("flat_overlap", "sub_blocking", "sub_overlap")
        ],
    )
    print(f"sub_overlap vs flat_overlap: {speedup:.2f}x per PM interval; "
          f"one ghost-exchange post {ghost_post_ms:.2f} ms")
    benchmark.extra_info.update({
        "depth": depth, "n_substeps": nsub, "speedup": speedup,
        "step_s": step_s,
        "migration_wait_share": sub["migration_wait_share"],
        "wait_fraction": sub["wait_fraction"],
        "ghost_post_ms": ghost_post_ms,
    })

    # bit-identity: active-set overlap == full-evaluation blocking on the
    # same rung schedule, under fabric latency, sanitizers armed
    for a, b, name in zip(res["sub_overlap"]["out"],
                          res["sub_blocking"]["out"],
                          ("pos", "vel", "ids")):
        assert np.array_equal(a, b), f"{name} differs across modes"
    assert sub["sim"].world.sanitizer.findings == []
    # the layout actually produced a deep schedule with honest records
    assert depth >= 2 and nsub == 2**depth
    for r in recs:
        assert r.subcycle is not None
        assert r.n_substeps == 2**r.deepest_rung

    if FULL:
        # acceptance: the rung pipeline beats the flat fine-cadence
        # driver >= 2x per PM interval and the two-wave migration keeps
        # its wait share below 0.5
        assert speedup >= 2.0
        assert sub["migration_wait_share"] < 0.5
