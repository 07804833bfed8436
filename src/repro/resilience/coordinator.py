"""Rank-failure detection and recovery for the live distributed driver.

:class:`RecoveryCoordinator` runs a :class:`DistributedSimulation` under
a checkpointing step hook and, when a rank dies (injected
:class:`~repro.resilience.faults.FaultPlan` kill or hung-rank timeout —
both surface as a typed :class:`~repro.parallel.comm.RankFailure`),
drives the recovery pipeline::

    detect -> cancel -> restore -> redistribute -> resume

- **detect**: the typed failure carries rank / step / phase; the
  dead rank's storage node is marked lost.
- **cancel**: the abort cascade already tore down every in-flight
  request through the ``Request.cancel()`` paths (ghost exchanges,
  posted-ahead reductions, two-wave migration flights); the coordinator
  *audits* that teardown through the comm sanitizer — any unsettled
  request is a recovery bug and fails loudly.
- **restore**: once the bleed has flushed, the newest valid checkpoint
  tier wins — NVMe shards if the survivors (incl. buddy copies) hold a
  complete CRC-valid set, else the PFS shard set; with nothing on disk
  the segment cold-restarts from the initial conditions.  Every shard
  newer than the restore point is discarded, so the resumed (smaller)
  world never finds the failed world's torn steps among its own.
- **redistribute**: the cuboid decomposition is re-run over the
  surviving rank count (a fresh ``DistributedSimulation``), which
  re-scatters the restored particles by owner.
- **resume**: the same config runs on from the checkpoint's step and
  scale factor (``DistributedSimulation.run(step=, a=)``), so the
  resumed steps, checkpoint numbers and fault-plan steps are those of
  the one trajectory.

Each phase is timed under its ``resilience/*`` span (taxonomy-
registered), so recovery cost shows up in Perfetto traces and the
registry-derived :func:`~repro.observe.derived.recovery_report`.

Bit-identity contract: the recovered run ends on the bits of the
uninterrupted run, on whatever rank count survives as far as the rank
count itself is bitwise (DESIGN.md "Failure model and recovery"; the
``recovered`` class of ``tests/integration/test_golden_hashes.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..observe import Observatory
from ..observe.taxonomy import RESILIENCE_SPANS
from ..parallel.comm import RankFailure
from ..parallel.distributed_sim import (
    DistributedConfig,
    DistributedSimulation,
)
from .checkpointer import DistributedCheckpointer
from .store import TieredCheckpointStore


@dataclass
class RecoveryRecord:
    """One detect→resume pass: what failed and what the run resumed from."""

    failed_rank: int
    failed_node: int
    failed_step: int | None
    failed_phase: str | None
    #: step of the checkpoint resumed from (None = cold restart)
    restored_step: int | None
    #: "nvme" | "pfs" | "initial"
    tier: str
    ranks_before: int
    ranks_after: int
    #: requests the failing segment posted / left unsettled (audit)
    n_requests: int = 0
    n_unsettled: int = 0


@dataclass
class ResilientResult:
    """Final state of a run that survived (or never saw) rank deaths."""

    pos: np.ndarray
    vel: np.ndarray
    u: np.ndarray | None
    ids: np.ndarray
    recoveries: list
    n_attempts: int
    n_ranks_final: int


class RecoveryError(RuntimeError):
    """Recovery is impossible (teardown audit failed / out of budget)."""


class RecoveryCoordinator:
    """Runs a distributed config to completion across rank deaths.

    ``checkpoint_every`` / ``pfs_every`` are step cadences of the NVMe
    shards and of their bleed to the PFS (``pfs_every`` counts in
    steps, not in NVMe checkpoints).  The store's PFS drains land on
    this coordinator's trace.  ``max_failures`` bounds how many rank
    deaths one run may absorb before the failure is re-raised.
    """

    def __init__(self, store: TieredCheckpointStore,
                 observe: Observatory | None = None,
                 checkpoint_every: int = 1, pfs_every: int = 1,
                 max_failures: int = 4, min_ranks: int = 1):
        self.store = store
        self.observe = observe if observe is not None else Observatory()
        store.bleeder.tracer = self.observe.tracer
        self.checkpoint_every = int(checkpoint_every)
        self.pfs_every = int(pfs_every)
        self.max_failures = int(max_failures)
        self.min_ranks = int(min_ranks)
        #: the final (successful) segment's simulation, for inspection
        self.last_sim: DistributedSimulation | None = None

    def run(self, config: DistributedConfig, n_ranks: int,
            pos: np.ndarray, vel: np.ndarray, mass: np.ndarray,
            u: np.ndarray | None = None, gas: np.ndarray | None = None,
            fault_plan=None) -> ResilientResult:
        """Evolve to ``config.a_final`` no matter which ranks die."""
        if n_ranks > self.store.n_nodes:
            raise ValueError("store has fewer nodes than ranks")
        timers = self.observe.timer_group(
            self.observe.scope("recovery"), keys=RESILIENCE_SPANS,
            cat="resilience",
        )
        # rank r of the current world stores on node alive[r]; nodes are
        # removed (and marked lost in the store) as their ranks die
        alive = list(range(n_ranks))
        n = len(np.asarray(pos))
        # the run state the next attempt starts from
        seg = {
            "step": 0,
            "a": None,
            "pos": np.asarray(pos, dtype=np.float64),
            "vel": np.asarray(vel, dtype=np.float64),
            "mass": np.asarray(mass, dtype=np.float64),
            "u": (np.asarray(u, dtype=np.float64) if u is not None
                  else np.zeros(n)),
            "gas": (np.asarray(gas, dtype=bool) if gas is not None
                    else np.ones(n, dtype=bool)),
        }
        recoveries: list[RecoveryRecord] = []
        attempts = 0
        while True:
            attempts += 1
            sim = DistributedSimulation(
                config, len(alive), observe=self.observe,
                fault_plan=fault_plan,
            )
            sim.step_hooks.append(DistributedCheckpointer(
                self.store, box=config.box, every=self.checkpoint_every,
                pfs_every=self.pfs_every, nodes=alive,
            ))
            try:
                out = sim.run(seg["pos"], seg["vel"], seg["mass"],
                              u=seg["u"], gas=seg["gas"],
                              step=seg["step"], a=seg["a"])
            except RankFailure as failure:
                if len(recoveries) >= self.max_failures:
                    raise
                if len(alive) - 1 < self.min_ranks:
                    raise
                record = self._recover(sim, failure, alive, seg, timers)
                recoveries.append(record)
                continue
            self.last_sim = sim
            if config.hydro:
                fpos, fvel, fu, fids = out
            else:
                fpos, fvel, fids = out
                fu = None
            return ResilientResult(
                pos=fpos, vel=fvel, u=fu, ids=fids,
                recoveries=recoveries, n_attempts=attempts,
                n_ranks_final=len(alive),
            )

    # -- the detect→resume pipeline --------------------------------------------
    def _recover(self, sim, failure: RankFailure, alive: list,
                 seg: dict, timers) -> RecoveryRecord:
        tracer = self.observe.tracer
        cfg = sim.config

        with timers.time("resilience/detect", rank=failure.rank,
                         phase=failure.phase or ""):
            ranks_before = len(alive)
            node = alive.pop(failure.rank)
            self.store.mark_lost(node)
            tracer.instant("resilience/detect", cat="resilience",
                           rank=failure.rank, node=node,
                           step=failure.step, phase=failure.phase or "")

        with timers.time("resilience/cancel"):
            n_req, n_unsettled = 0, 0
            san = sim.world.sanitizer if sim.world is not None else None
            if san is not None:
                unsettled = san.unsettled()
                n_req = san.n_records()
                n_unsettled = len(unsettled)
                if unsettled:
                    rec = unsettled[0]
                    raise RecoveryError(
                        f"teardown audit: {n_unsettled} request(s) left "
                        f"unsettled after the abort cascade (first: "
                        f"{rec.kind} on rank {rec.rank}, {rec.detail}, "
                        f"posted at {rec.site})"
                    )
                if san.findings:
                    raise RecoveryError(
                        "comm sanitizer flagged the failing segment: "
                        + "; ".join(f.render() for f in san.findings)
                    )

        with timers.time("resilience/restore"):
            self.store.flush()
            point = self.store.latest_restorable()
            self.store.discard_after(point.step if point is not None else -1)
            if point is not None:
                arrays, meta = self.store.restore(point)
                restored_step: int | None = int(meta["step"])
                tier = point.tier
                if restored_step + 1 >= cfg.n_pm_steps:
                    raise RecoveryError(
                        "failure after the final step's checkpoint: "
                        "nothing left to resume"
                    )
                seg.update(
                    step=restored_step + 1, a=float(meta["a"]),
                    pos=arrays["pos"], vel=arrays["vel"],
                    mass=arrays["mass"], u=arrays["u"],
                    gas=arrays["gas"].astype(bool),
                )
            else:
                # nothing durable yet: restart from the state the failed
                # attempt started from (still in seg)
                restored_step, tier = None, "initial"

        with timers.time("resilience/redistribute"):
            # re-run the cuboid decomposition over the survivors; the
            # construction validates the overload constraint against the
            # shrunken domain widths before any particle moves
            DistributedSimulation(cfg, len(alive), observe=self.observe)

        with timers.time("resilience/resume"):
            record = RecoveryRecord(
                failed_rank=failure.rank, failed_node=node,
                failed_step=failure.step, failed_phase=failure.phase,
                restored_step=restored_step, tier=tier,
                ranks_before=ranks_before, ranks_after=len(alive),
                n_requests=n_req, n_unsettled=n_unsettled,
            )
            tracer.instant("resilience/resume", cat="resilience",
                           tier=tier, step=restored_step,
                           ranks=len(alive))
        return record
