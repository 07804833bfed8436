"""Serial checkpointing through the one store: the full
NVMe -> bleed -> PFS -> restore loop of a serial run.

A serial run checkpoints as shard 0 of 1 into a one-node
:class:`~repro.resilience.store.TieredCheckpointStore`, from a single
``io_hooks`` entry; restore goes through the store's one scan.
"""

import os

import numpy as np

from repro.core.particles import Particles
from repro.core.simulation import Simulation, SimulationConfig
from repro.cosmology import PLANCK18, zeldovich_ics
from repro.iosim.checkpoint import PARTICLE_FIELDS
from repro.resilience import TieredCheckpointStore


def make_sim(seed=3):
    ics = zeldovich_ics(5, 25.0, PLANCK18, a_init=0.3, seed=seed)
    n = len(ics.positions)
    parts = Particles(
        pos=ics.positions, vel=ics.velocities,
        mass=np.full(n, ics.particle_mass),
        species=np.zeros(n, dtype=np.int8),
    )
    cfg = SimulationConfig(
        box=25.0, pm_grid=8, a_init=0.3, a_final=0.42, n_pm_steps=4,
        cosmo=PLANCK18, hydro=False, max_rung=1,
    )
    return Simulation(cfg, parts)


def checkpoint_hook(store, every=1):
    """The io_hook: every ``every``-th step as shard 0 of 1, bled."""
    def hook(sim, record):
        if record.step % every == 0:
            arrays = {f: getattr(sim.particles, f) for f in PARTICLE_FIELDS}
            meta = {"step": record.step, "a": record.a, "n_shards": 1}
            store.write_shard(record.step, 0, arrays, meta, node=0,
                              pfs=True)
    return hook


def pfs_names(store):
    return sorted(os.listdir(store.pfs_dir))


class TestManagerLoop:
    def test_per_step_checkpoints_reach_pfs(self, tmp_path):
        sim = make_sim()
        with TieredCheckpointStore(tmp_path, n_nodes=1) as store:
            sim.io_hooks.append(checkpoint_hook(store))
            sim.run(3)
        assert pfs_names(store) == [
            f"ckpt_{s:05d}.shard000.gio" for s in range(3)
        ]
        assert store.bleeder.stats.files_bled == 3
        # the NVMe tier keeps its copies: it is the preferred restore
        assert sorted(os.listdir(store.node_dir(0))) == pfs_names(store)
        assert store.latest_restorable().tier == "nvme"

    def test_cadence(self, tmp_path):
        sim = make_sim()
        with TieredCheckpointStore(tmp_path, n_nodes=1) as store:
            sim.io_hooks.append(checkpoint_hook(store, every=2))
            sim.run(4)
        assert store.steps() == [0, 2]

    def test_restore_latest_and_continue(self, tmp_path):
        ref = make_sim()
        ref.run(4)
        ref_pos = ref.particles.pos.copy()

        sim = make_sim()
        with TieredCheckpointStore(tmp_path, n_nodes=1) as store:
            sim.io_hooks.append(checkpoint_hook(store))
            sim.run(2)
        del sim  # crash

        point = store.latest_restorable()
        assert point.step == 1
        arrays, meta = store.restore(point)
        resumed = make_sim()
        resumed.particles = Particles(
            **{f: arrays[f] for f in PARTICLE_FIELDS}
        )
        n = len(resumed.particles)
        resumed.birth_a = np.zeros(n)
        resumed.sn_fired = np.zeros(n, dtype=bool)
        resumed.bh_mass = np.zeros(n)
        resumed.a = meta["a"]
        resumed.step_index = point.step + 1
        resumed.run(2)
        np.testing.assert_allclose(resumed.particles.pos, ref_pos, atol=1e-9)

    def test_restore_skips_corrupted_newest(self, tmp_path):
        sim = make_sim()
        with TieredCheckpointStore(tmp_path, n_nodes=1) as store:
            sim.io_hooks.append(checkpoint_hook(store))
            sim.run(3)
        # tear step 2 in both tiers
        for d in (store.node_dir(0), store.pfs_dir):
            newest = os.path.join(d, "ckpt_00002.shard000.gio")
            with open(newest, "r+b") as fh:
                fh.seek(-50, os.SEEK_END)
                byte = fh.read(1)
                fh.seek(-50, os.SEEK_END)
                fh.write(bytes([byte[0] ^ 0xFF]))
        point = store.latest_restorable()
        assert point.step == 1 and point.tier == "nvme"

    def test_restore_empty_store_is_none(self, tmp_path):
        with TieredCheckpointStore(tmp_path, n_nodes=1) as store:
            assert store.steps() == []
            assert store.latest_restorable() is None
