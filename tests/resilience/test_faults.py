"""Fault injection: kill specs, MTTI plans, and typed rank failures."""

import time

import numpy as np
import pytest

from repro.cosmology import PLANCK18
from repro.parallel.comm import RankFailure, World
from repro.parallel.distributed_sim import (
    DistributedConfig,
    DistributedSimulation,
)
from repro.resilience import DEFAULT_KILL_PHASES, FaultPlan, KillSpec


class TestKillSpec:
    def test_exact_match(self):
        k = KillSpec(rank=2, step=1, phase="short_range")
        assert k.matches(2, 1, "short_range")
        assert not k.matches(1, 1, "short_range")
        assert not k.matches(2, 0, "short_range")
        assert not k.matches(2, 1, "long_range")

    def test_prefix_matches_rung_substeps(self):
        k = KillSpec(rank=0, step=3, phase="rung")
        assert k.matches(0, 3, "rung/0")
        assert k.matches(0, 3, "rung/2")
        assert not k.matches(0, 3, "migration")

    def test_no_phase_matches_any_phase(self):
        k = KillSpec(rank=1, step=0)
        assert k.matches(1, 0, "long_range")
        assert k.matches(1, 0, "rung/1")


class TestFaultPlan:
    def test_fires_once(self):
        plan = FaultPlan.single(rank=0, step=0, phase="short_range")
        with pytest.raises(RankFailure) as ei:
            plan.enter(0, 0, "short_range")
        assert ei.value.rank == 0 and ei.value.step == 0
        # the same point re-entered (e.g. after a cold restart) is safe
        plan.enter(0, 0, "short_range")
        assert plan.fired == [KillSpec(0, 0, "short_range")]

    def test_parse(self):
        plan = FaultPlan.parse("2:1:rung, 0:3")
        assert plan.kills == [KillSpec(2, 1, "rung"), KillSpec(0, 3, None)]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("2")

    def test_from_mtti_deterministic(self):
        a = FaultPlan.from_mtti(2.0, n_steps=50, n_ranks=4, seed=9)
        b = FaultPlan.from_mtti(2.0, n_steps=50, n_ranks=4, seed=9)
        assert a.kills == b.kills and a.kills
        for k in a.kills:
            assert 0 <= k.rank < 4
            assert 0 <= k.step < 50
            assert k.phase in DEFAULT_KILL_PHASES
        c = FaultPlan.from_mtti(2.0, n_steps=50, n_ranks=4, seed=10)
        assert c.kills != a.kills

    def test_comm_phase_kill_fires_inside_collective(self):
        plan = FaultPlan.single(rank=1, step=0, phase="comm")
        world = World(2, fault_plan=plan)

        def fn(comm):
            plan.enter(comm.rank, 0, "short_range")  # sets current point
            comm.allreduce(1.0)
            return comm.rank

        with pytest.raises(RankFailure) as ei:
            world.run(fn, timeout=30.0)
        assert ei.value.rank == 1
        assert ei.value.phase == "comm"
        assert "injected fault" in str(ei.value)


class TestHungRank:
    def test_timeout_raises_typed_failure_with_last_phase(self):
        world = World(2)

        def fn(comm):
            world.note_phase(comm.rank, 4, "long_range")
            if comm.rank == 1:
                time.sleep(8.0)  # never reports back within the timeout
            return comm.rank

        with pytest.raises(RankFailure) as ei:
            world.run(fn, timeout=0.3)
        err = ei.value
        assert err.rank == 1
        assert err.step == 4
        assert err.phase == "long_range"
        assert "hung-rank timeout" in str(err)

    def test_comm_timeout_configurable_via_config(self, monkeypatch):
        """DistributedConfig.comm_timeout_s reaches World.run(timeout=)."""
        captured = {}
        orig = World.run

        def spy(self, fn, *args, timeout=600.0):
            captured["timeout"] = timeout
            return orig(self, fn, *args, timeout=timeout)

        monkeypatch.setattr(World, "run", spy)
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 120.0, (16, 3))
        vel = rng.normal(0, 20.0, (16, 3))
        mass = np.full(16, 1.0e10)
        cfg = DistributedConfig(
            box=120.0, pm_grid=32, a_init=0.3, a_final=0.32, n_pm_steps=1,
            cosmo=PLANCK18, r_split_cells=1.0, comm_timeout_s=77.0,
        )
        DistributedSimulation(cfg, 2).run(pos, vel, mass)
        assert captured["timeout"] == 77.0
