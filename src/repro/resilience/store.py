"""Multi-tier checkpoint store with buddy-replicated NVMe shards.

Layout on disk (real files, CRC-protected GenericIO-style blocks via
:mod:`repro.iosim.checkpoint`)::

    <root>/nvme/node000/ckpt_00003.shard001.gio   per-rank shards
    <root>/pfs/ckpt_00003.shard001.gio            the same shards, bled

The HACC strategy: every rank writes its shard to its *own* node-local
NVMe **and** to its buddy's (``(rank+1) % n``), so a single node death
never destroys the only copy of a shard — the surviving ranks still
hold a complete NVMe set and restart without touching the (slow,
sparser-cadence) parallel file system.  At the PFS cadence the rank's
own file is also queued on the store's :class:`~repro.iosim.bleed.
AsyncBleeder`, which copies it to the PFS while the run computes; no
rank gathers or merges anything.  Only when the NVMe set is incomplete
or fails CRC validation (adjacent double failure, torn shard) does
restore fall back to the PFS shard set of the same step.

``node`` indices name *storage*, not ranks: after a recovery the
surviving world renumbers ranks 0..n-2 but keeps writing to its
original node directories (the coordinator carries the rank→node map),
and :meth:`mark_lost` removes a dead node's directory from every future
restore scan.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from ..iosim.bleed import AsyncBleeder
from ..iosim.checkpoint import CheckpointError, read_blocks, write_blocks

_SHARD_RE = re.compile(r"ckpt_(\d+)\.shard(\d+)\.gio$")


@dataclass(frozen=True)
class RestorePoint:
    """A restorable checkpoint: which step, from which tier."""

    step: int
    tier: str  # "nvme" | "pfs"
    #: one valid file per shard, shard order
    paths: tuple


class TieredCheckpointStore:
    """NVMe shard tier + its asynchronously bled PFS copy under one root."""

    def __init__(self, root: str, n_nodes: int, retention: int = 0):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.root = str(root)
        self.n_nodes = int(n_nodes)
        #: keep only the newest ``retention`` NVMe steps per node
        #: (0 = keep everything); PFS shards are never pruned
        self.retention = int(retention)
        #: node indices whose NVMe directory died with its rank
        self.lost: set[int] = set()
        self.pfs_dir = os.path.join(self.root, "pfs")
        for node in range(self.n_nodes):
            os.makedirs(self.node_dir(node), exist_ok=True)
        #: the PFS tier: background copies of NVMe shards
        self.bleeder = AsyncBleeder(self.pfs_dir)

    def node_dir(self, node: int) -> str:
        return os.path.join(self.root, "nvme", f"node{node:03d}")

    def shard_path(self, node: int, step: int, shard: int) -> str:
        return os.path.join(
            self.node_dir(node), f"ckpt_{step:05d}.shard{shard:03d}.gio"
        )

    # -- writes ----------------------------------------------------------------
    def write_shard(self, step: int, shard: int, arrays: dict, meta: dict,
                    node: int, buddy_node: int | None = None,
                    pfs: bool = False) -> int:
        """Write one rank's shard to its node (and its buddy's).

        ``meta`` must carry ``n_shards`` (the writing world's size) so a
        restore scan can tell a complete shard set from a torn one even
        when some copies are gone.  ``pfs=True`` queues the node's copy
        for the bleed to the PFS.  Returns bytes written.
        """
        if "n_shards" not in meta:
            raise ValueError("shard metadata needs n_shards")
        path = self.shard_path(node, step, shard)
        total = write_blocks(path, arrays, meta)
        if buddy_node is not None and buddy_node != node:
            total += write_blocks(
                self.shard_path(buddy_node, step, shard), arrays, meta
            )
        if self.retention > 0:
            self._prune_node(node)
        if pfs:
            self.bleeder.submit(path)
        return total

    def _prune_node(self, node: int) -> None:
        shards = list(self._shards([self.node_dir(node)]))
        old = sorted({s for s, _, _ in shards})[:-self.retention]
        if old:
            # a shard leaves NVMe only after its PFS copy has landed
            self.flush()
        for s, _, path in shards:
            if s in old:
                os.remove(path)

    # -- bleed lifecycle -------------------------------------------------------
    def flush(self) -> bool:
        """Wait until every queued shard has reached the PFS."""
        return self.bleeder.drain()

    def close(self) -> None:
        """Flush the bleed and stop its thread."""
        self.bleeder.close()

    def __enter__(self) -> "TieredCheckpointStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- failure bookkeeping ---------------------------------------------------
    def mark_lost(self, node: int) -> None:
        """A node died with its rank: its NVMe tier is gone for restores."""
        self.lost.add(int(node))

    def discard_after(self, step: int) -> None:
        """Delete every shard newer than ``step`` in every surviving tier.

        Called with the restore point (-1 on a cold restart): none of
        those shards completes a set, or it would have been the restore
        point, and the resumed world rewrites the same names with a
        different shard count — a stale shard left behind would join its
        sets.
        """
        self.flush()
        for _tier, dirs in self._tiers():
            for s, _, path in self._shards(dirs):
                if s > step:
                    os.remove(path)

    # -- scans -----------------------------------------------------------------
    def _tiers(self):
        """``(tier, dirs)`` in restore preference: the surviving node
        directories, then the PFS directory."""
        nvme = [self.node_dir(node) for node in range(self.n_nodes)
                if node not in self.lost]
        return (("nvme", nvme), ("pfs", [self.pfs_dir]))

    @staticmethod
    def _shards(dirs):
        """``(step, shard, path)`` of every shard file in ``dirs``."""
        for d in dirs:
            for name in os.listdir(d):
                m = _SHARD_RE.match(name)
                if m:
                    yield (int(m.group(1)), int(m.group(2)),
                           os.path.join(d, name))

    def steps(self) -> list[int]:
        """Every step any tier holds anything for (ascending)."""
        return sorted({s for _tier, dirs in self._tiers()
                       for s, _, _ in self._shards(dirs)})

    def restorable_at(self, step: int) -> RestorePoint | None:
        """The best valid restore at exactly ``step``: a complete,
        CRC-valid shard set on the surviving NVMe nodes (buddy copies
        count), else on the PFS."""
        for tier, dirs in self._tiers():
            copies: dict[int, list] = {}
            for s, shard, path in self._shards(dirs):
                if s == step:
                    copies.setdefault(shard, []).append(path)
            paths = self._complete_set(copies)
            if paths is not None:
                return RestorePoint(step=step, tier=tier, paths=paths)
        return None

    def latest_restorable(self, max_step: int | None = None
                          ) -> RestorePoint | None:
        """Newest valid restore point, walking steps backward.

        Tier preference at each step is NVMe first (node-local restart),
        PFS second; a step whose shard sets are torn (missing or corrupt
        shard) in both tiers is skipped entirely in favor of an older
        step.
        """
        for step in reversed(self.steps()):
            if max_step is not None and step > max_step:
                continue
            point = self.restorable_at(step)
            if point is not None:
                return point
        return None

    @staticmethod
    def _complete_set(copies: dict) -> tuple | None:
        """One CRC-valid copy per shard of a complete set, shard order."""
        # the intended set size comes from the first valid shard's
        # metadata — surviving files alone can't distinguish "complete"
        # from "the only copy of shard k died with its node"
        chosen: dict[int, str] = {}
        n_shards = None
        for shard, paths in copies.items():
            for path in paths:
                try:
                    _, meta = read_blocks(path, validate=True)
                except (CheckpointError, OSError, ValueError):
                    continue  # torn or corrupt copy: try the buddy's
                chosen[shard] = path
                if n_shards is None:
                    n_shards = int(meta["n_shards"])
                break
        if n_shards is None or any(k not in chosen for k in range(n_shards)):
            return None  # torn set: a shard has no valid copy left
        return tuple(chosen[k] for k in range(n_shards))

    # -- restore ---------------------------------------------------------------
    def restore(self, point: RestorePoint):
        """Load a restore point: ``(arrays, meta)``, rows sorted by ids.

        The id sort makes the restored state independent of how many
        shards it was split into and of the tier it came from — an NVMe
        restore and a PFS restore of the same step are bit-identical,
        which is what lets the recovery tests hash-compare across tiers.
        """
        parts = [read_blocks(p, validate=True) for p in point.paths]
        meta = dict(parts[0][1])
        arrays = {
            name: np.concatenate([a[name] for a, _ in parts])
            for name in parts[0][0]
        }
        order = np.argsort(arrays["ids"], kind="stable")
        arrays = {k: v[order] for k, v in arrays.items()}
        return arrays, meta
