"""Tiered checkpoint store: buddy replication, torn writes, tier choice,
the PFS bleed and truncation on restore."""

import os
import shutil

import numpy as np
import pytest

from repro.campaign.runner import state_hash


def _shard_arrays(rng, n, id0):
    return {
        "pos": rng.uniform(0, 100.0, (n, 3)),
        "vel": rng.normal(0, 10.0, (n, 3)),
        "mass": np.full(n, 1.0e10),
        "u": np.zeros(n),
        "ids": np.arange(id0, id0 + n, dtype=np.int64),
        "gas": np.zeros(n, dtype=np.int8),
    }


def _write_step(store, step, n_nodes, rng, a=0.3, shuffle=False,
                pfs=True):
    """Buddy-replicated NVMe shards, bled to the PFS (flushed) unless
    ``pfs=False``; returns the merged state."""
    meta = {"step": step, "a": a, "n_shards": n_nodes}
    shards = []
    for s in range(n_nodes):
        arrays = _shard_arrays(rng, 5, id0=100 * s)
        if shuffle:
            order = rng.permutation(5)
            arrays = {k: v[order] for k, v in arrays.items()}
        shards.append(arrays)
        store.write_shard(step, s, arrays, meta, node=s,
                          buddy_node=(s + 1) % n_nodes, pfs=pfs)
    assert store.flush()
    return {
        k: np.concatenate([sh[k] for sh in shards]) for k in shards[0]
    }


def _pfs_path(store, step, shard):
    return os.path.join(store.pfs_dir,
                        f"ckpt_{step:05d}.shard{shard:03d}.gio")


def _corrupt(path):
    with open(path, "r+b") as fh:
        fh.seek(64)
        fh.write(b"\xde\xad\xbe\xef" * 8)


class TestBuddyReplication:
    def test_single_node_loss_keeps_nvme_restorable(self, make_store):
        store = make_store(4)
        rng = np.random.default_rng(1)
        merged = _write_step(store, 0, 4, rng)
        store.mark_lost(2)
        point = store.restorable_at(0)
        assert point is not None and point.tier == "nvme"
        arrays, meta = store.restore(point)
        assert meta["n_shards"] == 4
        order = np.argsort(merged["ids"], kind="stable")
        ref = {k: v[order] for k, v in merged.items()}
        assert state_hash(**arrays) == state_hash(**ref)

    def test_adjacent_double_loss_falls_back_to_pfs(self, make_store):
        # shard 1's two copies live on nodes 1 and 2; losing both tears
        # the NVMe set and the restore must come off the bled PFS set
        store = make_store(4)
        rng = np.random.default_rng(2)
        _write_step(store, 0, 4, rng)
        store.mark_lost(1)
        store.mark_lost(2)
        point = store.restorable_at(0)
        assert point is not None and point.tier == "pfs"

    def test_nvme_and_pfs_restores_bit_identical(self, make_store):
        # shard rows are written in a shuffled order; the id sort in
        # restore() must give one state whichever tier serves the set
        store = make_store(3)
        rng = np.random.default_rng(3)
        _write_step(store, 0, 3, rng, shuffle=True)
        nvme = store.restorable_at(0)
        assert nvme.tier == "nvme"
        for node in range(3):
            store.mark_lost(node)
        pfs = store.restorable_at(0)
        assert pfs.tier == "pfs"
        a1, m1 = store.restore(nvme)
        a2, m2 = store.restore(pfs)
        assert state_hash(**a1) == state_hash(**a2)
        assert m1["a"] == m2["a"]


class TestTornWrites:
    def test_torn_latest_step_skipped_for_older_pfs(self, make_store):
        # step 0 lives only on the PFS; step 1's shard 0 is torn on both
        # of its copies -> latest_restorable must reject step 1 entirely
        store = make_store(3)
        rng = np.random.default_rng(4)
        _write_step(store, 0, 3, rng, a=0.30)
        for node in range(3):
            for name in os.listdir(store.node_dir(node)):
                os.remove(os.path.join(store.node_dir(node), name))
        _write_step(store, 1, 3, rng, a=0.32, pfs=False)  # no PFS rescue
        _corrupt(store.shard_path(0, 1, 0))
        _corrupt(store.shard_path(1, 1, 0))
        point = store.latest_restorable()
        assert point is not None
        assert point.step == 0 and point.tier == "pfs"
        _, meta = store.restore(point)
        assert meta["a"] == pytest.approx(0.30)

    def test_corrupt_copy_falls_back_to_buddy(self, make_store):
        store = make_store(3)
        rng = np.random.default_rng(5)
        _write_step(store, 0, 3, rng)
        _corrupt(store.shard_path(0, 0, 0))  # primary copy of shard 0
        point = store.restorable_at(0)
        assert point is not None and point.tier == "nvme"
        # the chosen path for shard 0 is the buddy copy on node 1
        assert "node001" in point.paths[0]

    def test_all_tiers_gone_returns_none(self, make_store):
        store = make_store(2)
        assert store.latest_restorable() is None
        rng = np.random.default_rng(6)
        _write_step(store, 0, 2, rng, pfs=False)
        store.mark_lost(0)
        store.mark_lost(1)
        assert store.latest_restorable() is None


class TestRoundTrip:
    def test_mtti_faulted_cadence_roundtrip(self, make_store):
        """Writes at several steps under random node losses: the latest
        restorable point is always the newest step with a complete set,
        and restores hash-identically to what was written."""
        store = make_store(4)
        rng = np.random.default_rng(7)
        written = {}
        for step in range(4):
            merged = _write_step(store, step, 4, rng, a=0.3 + 0.01 * step)
            idx = np.argsort(merged["ids"], kind="stable")
            written[step] = {k: v[idx] for k, v in merged.items()}
        store.mark_lost(3)
        point = store.latest_restorable()
        assert point.step == 3
        arrays, meta = store.restore(point)
        assert state_hash(**arrays) == state_hash(**written[3])
        assert meta["step"] == 3

    def test_retention_prunes_old_nvme_steps(self, make_store):
        store = make_store(2, retention=2)
        rng = np.random.default_rng(8)
        for step in range(4):
            _write_step(store, step, 2, rng)
        kept = sorted(os.listdir(store.node_dir(0)))
        assert kept == [f"ckpt_{s:05d}.shard{k:03d}.gio"
                        for s in (2, 3) for k in (0, 1)]
        # the PFS tier is never pruned
        assert len(os.listdir(store.pfs_dir)) == 4 * 2


class TestStaleShards:
    def test_discard_after_keeps_world_sizes_apart(self, make_store,
                                                   monkeypatch):
        # a 4-rank world tears step 1 (rank 1 dies before writing), the
        # resumed 3-rank world re-writes step 1 under the same names: the
        # restore must never join the 4-world's stale shard003 to the
        # 3-world's set, whatever order the directories list in
        store = make_store(4)
        state = _shard_arrays(np.random.default_rng(9), 40, id0=0)

        def write(step, n_ranks, nodes, skip=()):
            meta = {"step": step, "a": 0.3, "n_shards": n_ranks}
            rows = np.array_split(np.arange(40), n_ranks)
            for rank in range(n_ranks):
                if rank in skip:
                    continue
                arrays = {k: v[rows[rank]] for k, v in state.items()}
                store.write_shard(step, rank, arrays, meta, node=nodes[rank],
                                  buddy_node=nodes[(rank + 1) % n_ranks],
                                  pfs=True)
            assert store.flush()

        write(0, 4, [0, 1, 2, 3])
        write(1, 4, [0, 1, 2, 3], skip=(1,))  # rank 1 died before writing
        store.mark_lost(1)
        assert store.latest_restorable().step == 0

        store.discard_after(0)
        write(1, 3, [0, 2, 3])  # the resumed world re-writes step 1

        listdir = os.listdir
        monkeypatch.setattr("repro.resilience.store.os.listdir",
                            lambda d: listdir(d)[::-1])
        point = store.latest_restorable()
        assert point.step == 1 and len(point.paths) == 3
        arrays, _ = store.restore(point)
        assert len(arrays["ids"]) == 40
        assert len(np.unique(arrays["ids"])) == 40

    def test_cold_restart_discards_everything(self, make_store):
        store = make_store(2)
        _write_step(store, 0, 2, np.random.default_rng(10))
        store.discard_after(-1)
        assert store.steps() == []
        assert store.latest_restorable() is None


class TestPfsBleed:
    def test_shards_bled_under_their_nvme_names(self, make_store):
        store = make_store(3)
        _write_step(store, 0, 3, np.random.default_rng(11))
        assert store.bleeder.stats.files_bled == 3
        for shard in range(3):
            with open(store.shard_path(shard, 0, shard), "rb") as fh:
                nvme = fh.read()
            with open(_pfs_path(store, 0, shard), "rb") as fh:
                assert fh.read() == nvme

    def test_drain_failure_falls_back_to_older_pfs_set(self, make_store,
                                                       monkeypatch):
        # the PFS copy of step 1's shard 2 fails: that step's PFS set is
        # incomplete, and with every node lost the restore takes step 0
        store = make_store(3)
        rng = np.random.default_rng(12)
        _write_step(store, 0, 3, rng, a=0.30)
        copyfile = shutil.copyfile

        def flaky(src, dst):
            if os.path.basename(src) == "ckpt_00001.shard002.gio":
                raise OSError("PFS write failed")
            return copyfile(src, dst)

        monkeypatch.setattr("repro.iosim.bleed.shutil.copyfile", flaky)
        _write_step(store, 1, 3, rng, a=0.32)
        assert store.bleeder.stats.errors == 1
        assert not os.path.exists(_pfs_path(store, 1, 2))
        assert os.path.exists(_pfs_path(store, 1, 1))
        assert store.restorable_at(1).tier == "nvme"
        for node in range(3):
            store.mark_lost(node)
        assert store.restorable_at(1) is None
        point = store.latest_restorable()
        assert point.step == 0 and point.tier == "pfs"
        _, meta = store.restore(point)
        assert meta["a"] == pytest.approx(0.30)
