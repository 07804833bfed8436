"""X12: rank-failure recovery overhead vs checkpoint cadence.

The paper's flagship run budgeted for a handful of node failures per
campaign day (MTTI at scale) by pairing buddy-replicated node-local
checkpoints with a sparser asynchronous bleed of the same shards to
the PFS.  This bench puts a number on the trade the cadence knob
buys: a 4-rank overlap+subcycle chaos run loses rank 2 mid–PM-interval
and recovers through the
detect→cancel→restore→redistribute→resume pipeline, at NVMe checkpoint
cadences of every 1, 2, and 3 steps.  Sparser cadence means less I/O
per step but an older restore point — more recomputed steps per
failure, visible as a growing recovered-wall / clean-wall ratio.

Invariants asserted in every mode: the recovery restores from the
newest checkpoint the cadence allows, the recovered final state is
bit-identical to the clean uninterrupted run, and the armed comm
sanitizer reports a clean teardown.
"""

import time

import numpy as np

from repro.campaign.runner import state_hash
from repro.cosmology import PLANCK18
from repro.observe import Observatory
from repro.observe.derived import recovery_report
from repro.parallel.distributed_sim import (
    DistributedConfig,
    DistributedSimulation,
)
from repro.resilience import (
    FaultPlan,
    RecoveryCoordinator,
    TieredCheckpointStore,
)

from conftest import print_table, scaled

BOX = 120.0
N_RANKS = 4


def _clustered_ics(n_blob, seed=7):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, BOX, size=(4, 3))
    pts = [np.mod(c + rng.normal(0, 6.0, size=(n_blob, 3)), BOX)
           for c in centers]
    pos = np.vstack(pts)
    vel = rng.normal(0, 50.0, size=pos.shape)
    mass = np.full(len(pos), 1.0e10)
    return pos, vel, mass


def _config(n_pm_steps):
    # r_split_cells=0.75 keeps the cutoff inside half the narrowest rank
    # domain after the decomposition shrinks onto 3 survivors
    return DistributedConfig(
        box=BOX, pm_grid=32, a_init=0.3,
        a_final=0.3 + 0.04 / 3 * n_pm_steps, n_pm_steps=n_pm_steps,
        cosmo=PLANCK18, r_split_cells=0.75, max_rung=3,
        comm_mode="overlap", subcycle=True, sanitize=True,
    )


def _chaos_case(cadence, ics, cfg, root, clean_hash):
    """One faulted run at a checkpoint cadence; returns its vitals."""
    pos, vel, mass = ics
    # kill in the final PM interval, mid-subcycle: the sparser the
    # cadence, the older the newest durable step at that point
    plan = FaultPlan.single(rank=2, step=cfg.n_pm_steps - 1, phase="rung")
    obs = Observatory()
    with TieredCheckpointStore(root / f"cad{cadence}",
                               n_nodes=N_RANKS) as store:
        coord = RecoveryCoordinator(store, observe=obs,
                                    checkpoint_every=cadence,
                                    pfs_every=cadence)
        t0 = time.perf_counter()
        res = coord.run(cfg, N_RANKS, pos.copy(), vel.copy(), mass.copy(),
                        fault_plan=plan)
        wall = time.perf_counter() - t0
    rec = res.recoveries[0]
    hash_ok = state_hash(pos=res.pos, vel=res.vel) == clean_hash

    pipeline = {r.phase: r.seconds for r in recovery_report(obs.registry)}
    san = coord.last_sim.world.sanitizer
    return {
        "cadence": cadence,
        "wall": wall,
        "restored_step": rec.restored_step,
        "recomputed_steps": (cfg.n_pm_steps - 1) - (
            rec.restored_step if rec.restored_step is not None else -1
        ),
        "tier": rec.tier,
        "recovery_s": sum(pipeline.values()),
        "pipeline": pipeline,
        "hash_ok": hash_ok,
        "findings": len(san.findings) if san is not None else 0,
    }


def test_x12_resilience(benchmark, tmp_path):
    n_pm_steps = scaled(3, 2)
    cadences = scaled([1, 2, 3], [1, 2])
    ics = _clustered_ics(n_blob=scaled(24, 12))
    cfg = _config(n_pm_steps)
    res = {}

    def run():
        # clean reference: the same run with no faults
        t0 = time.perf_counter()
        sim = DistributedSimulation(cfg, N_RANKS)
        cpos, cvel, _ = sim.run(ics[0].copy(), ics[1].copy(), ics[2].copy())
        res["clean_wall"] = time.perf_counter() - t0
        clean_hash = state_hash(pos=cpos, vel=cvel)
        res["cases"] = [
            _chaos_case(c, ics, cfg, tmp_path, clean_hash) for c in cadences
        ]
        return res

    benchmark.pedantic(run, rounds=1, iterations=1)

    clean = res["clean_wall"]
    print_table(
        f"X12: recovery overhead vs checkpoint cadence "
        f"({len(ics[0])} particles, {N_RANKS} ranks, "
        f"{n_pm_steps} PM steps, kill at step {n_pm_steps - 1})",
        ["Cadence", "Tier", "Restored", "Recomputed",
         "Overhead x", "Recovery s", "Hash"],
        [
            (c["cadence"], c["tier"], c["restored_step"],
             c["recomputed_steps"], f"{c['wall'] / clean:.2f}",
             f"{c['recovery_s']:.3f}", "ok" if c["hash_ok"] else "FAIL")
            for c in res["cases"]
        ],
    )
    benchmark.extra_info.update({
        "clean_wall_s": clean,
        "cases": [
            {k: v for k, v in c.items() if k != "pipeline"}
            for c in res["cases"]
        ],
    })

    for c in res["cases"]:
        # every cadence recovers onto 3 ranks, on the uninterrupted
        # run's bits, with a clean audit
        assert c["hash_ok"], f"cadence {c['cadence']}: hash mismatch"
        assert c["findings"] == 0
        # a single node death never costs the NVMe tier (buddy copies)
        assert c["tier"] == "nvme", c
        # the restore honors the cadence: newest durable step <= kill-1
        if c["restored_step"] is not None:
            assert c["restored_step"] % c["cadence"] == 0
    # sparser cadence never recomputes fewer steps
    recomp = [c["recomputed_steps"] for c in res["cases"]]
    assert recomp == sorted(recomp)
