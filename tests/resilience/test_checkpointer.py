"""The distributed checkpoint hook: cadences on a live run."""

import os

import pytest

from repro.parallel.distributed_sim import DistributedSimulation
from repro.resilience import DistributedCheckpointer

from .test_recovery import BOX, chaos_config, clustered_ics


class TestCadence:
    def test_invalid_cadence_rejected(self, make_store):
        store = make_store(2)
        for cadence in ({"every": 0}, {"pfs_every": 0}):
            with pytest.raises(ValueError):
                DistributedCheckpointer(store, box=BOX, **cadence)

    def test_every_two_writes_steps_zero_and_two(self, make_store):
        pos, vel, mass = clustered_ics(n_blob=12)
        cfg = chaos_config(n_pm_steps=4)
        store = make_store(2)
        ckpt = DistributedCheckpointer(store, box=BOX, every=2, pfs_every=4)
        sim = DistributedSimulation(cfg, 2)
        sim.step_hooks.append(ckpt)
        sim.run(pos.copy(), vel.copy(), mass.copy())
        assert store.flush()

        assert ckpt.written == [0, 2]
        assert store.steps() == [0, 2]
        # the PFS cadence counts global steps: only step 0 is bled
        assert sorted(os.listdir(store.pfs_dir)) == [
            "ckpt_00000.shard000.gio", "ckpt_00000.shard001.gio",
        ]
        # the hook posts no collective of its own
        plain = DistributedSimulation(cfg, 2)
        plain.run(pos.copy(), vel.copy(), mass.copy())
        assert sim.traffic.collective_calls == plain.traffic.collective_calls

    def test_a_resumed_run_numbers_checkpoints_along_the_trajectory(
            self, make_store):
        pos, vel, mass = clustered_ics(n_blob=12)
        cfg = chaos_config(n_pm_steps=3)
        store = make_store(2)
        ckpt = DistributedCheckpointer(store, box=BOX)
        sim = DistributedSimulation(cfg, 2)
        sim.step_hooks.append(ckpt)
        sim.run(pos.copy(), vel.copy(), mass.copy(), step=1, a=0.31)
        assert store.flush()

        assert ckpt.written == [1, 2] == store.steps()
        assert [rec.step for rec in sim.step_records] == [1, 2]
        with pytest.raises(ValueError, match="outside"):
            sim.run(pos.copy(), vel.copy(), mass.copy(), step=3)
