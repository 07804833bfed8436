"""X8: compute/communication overlap in the distributed driver.

Runs the same mixed DM+gas problem (gas clustered into one octant, so the
short-range load is rank-imbalanced) through ``DistributedSimulation`` at
2/4/8 ranks in both comm modes over a simulated fabric with per-message
latency (``net_latency_s`` — the in-process stand-in for the Slingshot
wire), comparing wall-clock per PM step and the fraction of rank-time
spent blocked in communication waits.  Blocking mode pays every
collective's wire time idle on the critical path; overlap mode posts the
ghost exchange, the PM density reduction, and the pipelined FFT
transposes early and computes provably-interior rows / the next gradient
axis while they are in flight, so most of the wire time disappears behind
compute.  The two modes are bit-identical (asserted here and in tier-1).

Full-mode acceptance: >= 1.3x step-time speedup with a reduced comm-wait
fraction at 4 ranks.
"""

import time

import numpy as np

from repro.cosmology import PLANCK18
from repro.parallel.distributed_sim import DistributedConfig, DistributedSimulation

from conftest import FULL, print_table, scaled

BOX = 120.0


def _clustered_mixed_ics(n_dm_side, n_gas_side, seed=4):
    """Jittered DM grid across the box + a gas blob in one octant.

    The blob concentrates the CRKSPH work on whichever ranks own that
    octant — the persistent load imbalance that makes blocking-mode
    collectives expensive (every other rank resynchronizes with the
    heavy ones at each exchange)."""
    rng = np.random.default_rng(seed)
    g = (np.arange(n_dm_side) + 0.5) * BOX / n_dm_side
    grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1)
    dm = np.mod(grid.reshape(-1, 3) + rng.normal(0, 1.0, (n_dm_side**3, 3)),
                BOX)
    b = (np.arange(n_gas_side) + 0.5) * (0.45 * BOX) / n_gas_side
    blob = np.stack(np.meshgrid(b, b, b, indexing="ij"), axis=-1)
    gas_pos = np.mod(
        blob.reshape(-1, 3) + rng.normal(0, 0.6, (n_gas_side**3, 3)), BOX
    )
    pos = np.vstack([dm, gas_pos])
    vel = rng.normal(0, 25.0, pos.shape)
    mass = np.full(len(pos), 1.0e10)
    u = np.full(len(pos), 1.0e4)
    gas = np.zeros(len(pos), dtype=bool)
    gas[len(dm):] = True
    return pos, vel, mass, u, gas


#: simulated per-message wire latency; ~10 collectives/step make blocking
#: mode pay ~10x this idle while overlap hides all but the unhidable few
NET_LATENCY_S = 0.15


def _config(comm_mode, n_pm_steps):
    return DistributedConfig(
        box=BOX, pm_grid=32, a_init=0.3, a_final=0.3 + 0.02 * n_pm_steps,
        n_pm_steps=n_pm_steps, cosmo=PLANCK18, r_split_cells=1.0,
        hydro=True, sph_h=1.6 * BOX / 14, comm_mode=comm_mode,
        net_latency_s=NET_LATENCY_S,
    )


def _run_mode(mode, n_ranks, ics, n_pm_steps):
    pos, vel, mass, u, gas = ics
    sim = DistributedSimulation(_config(mode, n_pm_steps), n_ranks)
    t0 = time.perf_counter()
    out = sim.run(pos, vel, mass, u=u, gas=gas)
    wall = time.perf_counter() - t0
    total_wait = sum(sim.traffic.wait_seconds.values())
    return {
        "wall_s": wall,
        "step_s": wall / n_pm_steps,
        # fraction of aggregate rank-time spent blocked on communication
        "comm_wait_fraction": total_wait / (n_ranks * wall),
        "records": sim.step_records,
        "out": out,
    }


def test_x8_comm_overlap(benchmark):
    rank_counts = scaled([2, 4, 8], [2])
    n_pm_steps = scaled(2, 1)
    ics = _clustered_mixed_ics(
        n_dm_side=scaled(9, 6), n_gas_side=scaled(8, 5)
    )
    out = {}

    def run():
        for n_ranks in rank_counts:
            blk = _run_mode("blocking", n_ranks, ics, n_pm_steps)
            ovl = _run_mode("overlap", n_ranks, ics, n_pm_steps)
            # overlap is bit-identical to blocking — same arrays, same bits
            for a, b, name in zip(blk["out"], ovl["out"],
                                  ("pos", "vel", "u", "ids")):
                assert np.array_equal(a, b), f"{name} differs across modes"
            out[n_ranks] = {
                "n_particles": len(ics[0]),
                "blocking_step_s": blk["step_s"],
                "overlap_step_s": ovl["step_s"],
                "speedup": blk["step_s"] / ovl["step_s"],
                "blocking_wait_fraction": blk["comm_wait_fraction"],
                "overlap_wait_fraction": ovl["comm_wait_fraction"],
                "overlap_comm_wait_by_phase": {
                    k: sum(r.comm_wait[k] for r in ovl["records"])
                    for k in ("short_range", "long_range", "migration")
                },
            }
        return out

    benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        f"X8: comm overlap vs blocking ({out[rank_counts[0]]['n_particles']} "
        f"particles, clustered gas, {n_pm_steps} PM steps)",
        ["Ranks", "Blocking (s/step)", "Overlap (s/step)", "Speedup",
         "Wait frac blk", "Wait frac ovl"],
        [
            (r, f"{v['blocking_step_s']:.2f}", f"{v['overlap_step_s']:.2f}",
             f"{v['speedup']:.2f}x", f"{v['blocking_wait_fraction']:.2f}",
             f"{v['overlap_wait_fraction']:.2f}")
            for r, v in out.items()
        ],
    )
    benchmark.extra_info.update({str(k): v for k, v in out.items()})

    for v in out.values():
        # StepRecord instrumentation present in both modes
        assert set(v["overlap_comm_wait_by_phase"]) == {
            "short_range", "long_range", "migration"
        }

    if FULL:
        # acceptance: overlap is >= 1.3x faster per step at 4 ranks with a
        # smaller share of rank-time lost to communication waits
        assert out[4]["speedup"] >= 1.3
        for r in rank_counts:
            if r >= 4:
                assert (out[r]["overlap_wait_fraction"]
                        < out[r]["blocking_wait_fraction"])
