"""In-run distributed checkpointing: the driver step hook.

A :class:`DistributedCheckpointer` is appended to
``DistributedSimulation.step_hooks`` and runs at the end of every step
body, where the union of per-rank owned arrays is the complete,
consistent global particle set (the closing kick has landed on every
rank; migration only re-homes particles afterwards).  Each rank writes
its shard to its node-local NVMe dir and its buddy's
(:class:`~repro.resilience.store.TieredCheckpointStore`), and every
``pfs_every`` steps the store's bleed copies the shard to the PFS in the
background — the slower, sparser, but node-death-proof tier.

The hook posts no collective: each rank writes only its own rows.  Its
entry is a failure surface like any driver phase (``"checkpoint"``), so
a fault plan can kill a rank mid-checkpoint and tear that step's set.
Positions are canonicalized (wrapped into the box) before hashing the
bytes to disk, because the driver deliberately drifts unwrapped between
migrations.
"""

from __future__ import annotations

import numpy as np

from .store import TieredCheckpointStore


class DistributedCheckpointer:
    """Step hook writing NVMe shards (+ their periodic PFS bleed).

    ``nodes`` maps the current world's rank index to its storage node
    (the coordinator shrinks this list as ranks die).  Checkpoints are
    numbered by the driver's step, which counts along the whole
    trajectory, so a resumed run numbers them where the failed one
    stopped.
    """

    def __init__(self, store: TieredCheckpointStore, box: float,
                 every: int = 1, pfs_every: int = 1, nodes=None):
        if every < 1 or pfs_every < 1:
            raise ValueError("checkpoint cadences must be >= 1")
        self.store = store
        self.box = float(box)
        self.every = int(every)
        self.pfs_every = int(pfs_every)
        self.nodes = (list(nodes) if nodes is not None
                      else list(range(store.n_nodes)))
        #: steps this hook has written (rank-shared, append-only
        #: per cadence decision — every rank appends the same values, so
        #: only the set matters; tests read it)
        self.written: list[int] = []

    def __call__(self, comm, istep: int, a: float, my: dict) -> None:
        if istep % self.every != 0:
            return
        world = comm.world
        if world.fault_plan is not None:
            world.fault_plan.enter(comm.rank, istep, "checkpoint")
        world.note_phase(comm.rank, istep, "checkpoint")
        arrays = dict(my, pos=np.mod(my["pos"], self.box))
        meta = {"step": istep, "a": float(a), "n_shards": comm.size}
        node = self.nodes[comm.rank]
        buddy = self.nodes[(comm.rank + 1) % comm.size]
        with world.tracer.span("io/checkpoint", cat="io", tid=comm.rank,
                               step=istep, tier="nvme"):
            self.store.write_shard(istep, comm.rank, arrays, meta,
                                   node=node, buddy_node=buddy,
                                   pfs=istep % self.pfs_every == 0)
        if comm.rank == 0:
            self.written.append(istep)
