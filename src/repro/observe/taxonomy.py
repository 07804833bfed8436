"""Registered span taxonomy: every span name a trace may contain.

The Fig. 2 / Fig. 6 benches and the CI trace diffs key off span names, so
an instrumented module inventing a name silently breaks attribution.
The ``span-taxonomy`` rule of ``python -m repro lint`` scans the
instrumented modules for span-name literals and fails when one is not
registered here.

Clock model (DESIGN.md "Observability"): wall-clock spans live on
``pid=WALL_PID`` with one ``tid`` per simulated rank; simulated-fabric
events (iosim tier models) carry explicit model timestamps on
``pid=SIM_PID``.
"""

from __future__ import annotations

#: serial driver phases — the StepRecord.timers keys (Fig. 2 breakdown)
SERIAL_PHASES = (
    "tree_build", "long_range", "short_range", "hydro",
    "subgrid", "analysis", "io", "other",
)

#: distributed driver phases — StepRecord.timers/comm_wait keys
DISTRIBUTED_PHASES = ("short_range", "long_range", "migration")

#: deepest rung the per-rung phase taxonomy covers (DistributedConfig
#: validates ``max_rung`` against this so every timer key is registered)
MAX_TAXONOMY_RUNG = 8

#: per-rung phases of the subcycled distributed driver: the substep
#: evaluation whose shallowest closing rung is r is timed (wall and
#: comm-wait alike) under "rung/r", alongside the base phase keys
RUNG_PHASES = tuple(f"rung/{r}" for r in range(MAX_TAXONOMY_RUNG + 1))

#: nonblocking migration: post/settle structural spans plus the async
#: slice spanning the in-flight window (final drift -> payload settle)
MIGRATION_SPANS = (
    "migration/post",
    "migration/settle",
    "migration/flight",
)

#: structural spans of the drivers
DRIVER_SPANS = (
    "step",
    "short_range/interior",
    "short_range/boundary",
    "ghost_exchange",
    "ghost_exchange/post",
)

#: communication-layer spans and async slices (SimComm / Request)
COMM_SPANS = (
    "comm/wait",
    "comm/ialltoallv",
    "comm/iallgather",
    "comm/iallreduce",
)

#: distributed-FFT stages
FFT_SPANS = (
    "fft/forward",
    "fft/inverse",
    "fft/transpose",
    "fft/stage",
)

#: GPU-resident solver
GPU_SPANS = (
    "gpu/upload",
    "gpu/kernel_launch",
)

#: multi-tier I/O (MultiTierWriter on the simulated clock; the
#: checkpoint store's shard writes and AsyncBleeder drains on the wall
#: clock)
IO_SPANS = (
    "io/nvme_write",
    "io/stall",
    "io/bleed",
    "io/pfs_drain",
    "io/checkpoint",
)

#: campaign execution engine: the ``campaign/queued`` async slice spans
#: admission -> dispatch; ``campaign/job`` wraps a whole run on a worker
#: track; power/ics/build are the cache-aware artifact stages; run is the
#: integration itself
CAMPAIGN_SPANS = (
    "campaign/job",
    "campaign/queued",
    "campaign/power",
    "campaign/ics",
    "campaign/build",
    "campaign/run",
    "campaign/retry",
    "campaign/cancelled",
)

#: rank-failure recovery pipeline (RecoveryCoordinator): the five phases
#: between a RankFailure and the resumed step loop, in order — failure
#: detection/attribution, in-flight request teardown audit, checkpoint
#: tier selection + load, re-decomposition over the survivors, and the
#: resumed-segment bookkeeping.  Timed into the registry (the recovery
#: overhead bench reads them back) and visible as spans in Perfetto.
RESILIENCE_SPANS = (
    "resilience/detect",
    "resilience/cancel",
    "resilience/restore",
    "resilience/redistribute",
    "resilience/resume",
)

#: every span name a conforming trace may contain
SPAN_NAMES = frozenset(
    SERIAL_PHASES + DISTRIBUTED_PHASES + RUNG_PHASES + MIGRATION_SPANS
    + DRIVER_SPANS + COMM_SPANS + FFT_SPANS + GPU_SPANS + IO_SPANS
    + CAMPAIGN_SPANS + RESILIENCE_SPANS
)


def is_registered(name: str) -> bool:
    return name in SPAN_NAMES
