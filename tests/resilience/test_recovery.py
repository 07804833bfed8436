"""End-to-end rank-failure recovery on the live distributed driver.

The headline chaos scenario of the resilience subsystem: a 4-rank
overlap+subcycle run with armed sanitizers loses a rank mid–PM-interval
(inside a ``rung/<r>`` substep phase), the coordinator restores from the
buddy-replicated NVMe tier and re-decomposes onto the 3 survivors, with a
clean in-flight-request teardown audit.  That the recovered runs end on
the uninterrupted run's bits is asserted by the ``recovered`` class of
``tests/integration/test_golden_hashes.py``.
"""

import numpy as np
import pytest

from repro.campaign.runner import state_hash
from repro.cosmology import PLANCK18
from repro.observe import Observatory
from repro.parallel.comm import RankFailure
from repro.parallel.distributed_sim import (
    DistributedConfig,
    DistributedSimulation,
)
from repro.resilience import (
    FaultPlan,
    KillSpec,
    RecoveryCoordinator,
)

BOX = 120.0


def clustered_ics(seed=7, n_blob=24):
    """Four gaussian blobs: clustered enough to drive deep rungs."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, BOX, size=(4, 3))
    pts = [np.mod(c + rng.normal(0, 6.0, size=(n_blob, 3)), BOX)
           for c in centers]
    pos = np.vstack(pts)
    vel = rng.normal(0, 50.0, size=pos.shape)
    mass = np.full(len(pos), 1.0e10)
    return pos, vel, mass


def chaos_config(n_pm_steps=3, comm_mode="overlap"):
    # r_split_cells=0.75 keeps 2*cutoff below the narrowest rank domain
    # of the *shrunken* decompositions (3-rank width 40, 2-rank width 60)
    return DistributedConfig(
        box=BOX, pm_grid=32, a_init=0.3, a_final=0.3 + 0.04 / 3 * n_pm_steps,
        n_pm_steps=n_pm_steps, cosmo=PLANCK18, r_split_cells=0.75,
        max_rung=3, comm_mode=comm_mode, subcycle=True, sanitize=True,
    )


class TestHeadlineChaosRun:
    def test_midstep_kill_recovers(self, make_store):
        self._kill_and_recover(make_store, "overlap")

    def test_midstep_kill_recovers_on_a_blocking_world(self, make_store):
        # the kill lands while peers sit in a fence, which raises before
        # GhostExchange/MigrationFlight exist to be cancelled: the audit
        # below is what holds the fence to settling its own group
        self._kill_and_recover(make_store, "blocking")

    def _kill_and_recover(self, make_store, comm_mode):
        pos, vel, mass = clustered_ics()
        cfg = chaos_config(comm_mode=comm_mode)
        store = make_store(4)
        plan = FaultPlan.single(rank=2, step=1, phase="rung")
        obs = Observatory(tracing=True)
        coord = RecoveryCoordinator(store, observe=obs)

        res = coord.run(cfg, 4, pos, vel, mass, fault_plan=plan)

        # one recovery, killed mid–PM-interval in a subcycle phase
        assert res.n_attempts == 2 and len(res.recoveries) == 1
        rec = res.recoveries[0]
        assert rec.failed_rank == 2 and rec.failed_step == 1
        assert rec.failed_phase.startswith("rung/")
        # NVMe buddy shards survive a single node death
        assert rec.tier == "nvme" and rec.restored_step == 0
        assert rec.ranks_before == 4 and rec.ranks_after == 3
        assert res.n_ranks_final == 3
        # cancellation audit: the abort cascade settled every request
        assert rec.n_requests > 0 and rec.n_unsettled == 0
        assert coord.last_sim.world.sanitizer.findings == []

        # every recovery-pipeline phase landed in the exported trace
        trace = obs.export_chrome_trace()
        names = {ev.get("name") for ev in trace["traceEvents"]}
        for phase in ("detect", "cancel", "restore", "redistribute",
                      "resume"):
            assert f"resilience/{phase}" in names
        assert "io/checkpoint" in names


class TestRecoveryPaths:
    def test_double_failure_walks_down_to_two_ranks(self, make_store):
        pos, vel, mass = clustered_ics(seed=11)
        cfg = chaos_config()
        store = make_store(4)
        plan = FaultPlan([KillSpec(2, 1, "rung"), KillSpec(0, 2)])
        coord = RecoveryCoordinator(store)

        res = coord.run(cfg, 4, pos, vel, mass, fault_plan=plan)

        assert [r.ranks_after for r in res.recoveries] == [3, 2]
        assert res.n_ranks_final == 2
        # the second restore reads shards the 3-rank world wrote
        assert res.recoveries[1].tier == "nvme"
        assert res.recoveries[1].restored_step >= 1

    def test_kill_during_checkpoint_write_tears_the_step(self, make_store):
        # rank 1 dies entering its step-1 checkpoint: shard 1 of step 1
        # has no copy anywhere, so the first recovery restores step 0;
        # the 3-rank world then re-writes step 1 over the torn set
        pos, vel, mass = clustered_ics(seed=13)
        cfg = chaos_config()
        store = make_store(4)
        plan = FaultPlan([KillSpec(1, 1, "checkpoint"),
                          KillSpec(0, 2, "rung")])
        coord = RecoveryCoordinator(store)

        res = coord.run(cfg, 4, pos, vel, mass, fault_plan=plan)

        first, second = res.recoveries
        assert first.failed_phase == "checkpoint"
        assert first.failed_step == 1
        assert (first.tier, first.restored_step) == ("nvme", 0)
        assert first.ranks_after == 3
        assert second.ranks_after == 2 and second.restored_step == 1
        # the second restore reads one shard set, of exactly n particles
        point = store.restorable_at(second.restored_step)
        assert len(point.paths) == 3
        arrays, _meta = store.restore(point)
        assert len(np.unique(arrays["ids"])) == len(arrays["ids"]) == len(pos)
        # and the run still ends on the uninterrupted bits
        rpos, rvel, _ = DistributedSimulation(cfg, 4).run(pos, vel, mass)
        assert state_hash(pos=rpos, vel=rvel) == \
            state_hash(pos=res.pos, vel=res.vel)

    def test_failure_before_any_checkpoint_cold_restarts(self, make_store):
        pos, vel, mass = clustered_ics(seed=5)
        cfg = chaos_config(n_pm_steps=2)
        store = make_store(4)
        # kill during step 0: the step hook has not run yet, nothing is
        # on disk, so recovery is a cold restart on 3 ranks
        plan = FaultPlan.single(rank=1, step=0, phase="short_range")
        coord = RecoveryCoordinator(store)

        res = coord.run(cfg, 4, pos, vel, mass, fault_plan=plan)

        rec = res.recoveries[0]
        assert rec.tier == "initial" and rec.restored_step is None
        # cold restart == clean 3-rank run of the whole segment
        ref = DistributedSimulation(cfg, 3)
        rpos, rvel, _ = ref.run(pos.copy(), vel.copy(), mass.copy())
        assert state_hash(pos=rpos, vel=rvel) == \
            state_hash(pos=res.pos, vel=res.vel)

    def test_failure_budget_exhausted_reraises(self, make_store):
        pos, vel, mass = clustered_ics(seed=5)
        cfg = chaos_config(n_pm_steps=2)
        store = make_store(4)
        plan = FaultPlan.single(rank=1, step=0)
        coord = RecoveryCoordinator(store, max_failures=0)
        with pytest.raises(RankFailure) as ei:
            coord.run(cfg, 4, pos, vel, mass, fault_plan=plan)
        assert ei.value.rank == 1

    def test_store_smaller_than_world_rejected(self, make_store):
        store = make_store(2)
        coord = RecoveryCoordinator(store)
        pos, vel, mass = clustered_ics()
        with pytest.raises(ValueError):
            coord.run(chaos_config(), 4, pos, vel, mass)

    def test_recovery_report_counts_pipeline_phases(self, make_store):
        from repro.observe.derived import recovery_report

        pos, vel, mass = clustered_ics()
        cfg = chaos_config()
        store = make_store(4)
        obs = Observatory()
        coord = RecoveryCoordinator(store, observe=obs)
        coord.run(cfg, 4, pos, vel, mass,
                  fault_plan=FaultPlan.single(rank=2, step=1, phase="rung"))
        rows = recovery_report(obs.registry)
        assert [r.phase for r in rows] == [
            "resilience/detect", "resilience/cancel", "resilience/restore",
            "resilience/redistribute", "resilience/resume",
        ]
        assert all(r.seconds > 0 for r in rows)
