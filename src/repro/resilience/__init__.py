"""End-to-end rank-failure resilience for the distributed driver.

The MTTI story of the paper's flagship run, made live: a
:class:`FaultPlan` kills ranks mid-step inside a real
:class:`~repro.parallel.distributed_sim.DistributedSimulation` (typed
:class:`~repro.parallel.comm.RankFailure` from compute or comm), a
:class:`DistributedCheckpointer` step hook writes buddy-replicated NVMe
shards into a :class:`TieredCheckpointStore`, whose background bleed
copies them to the PFS (no rank gathers anything), and a
:class:`RecoveryCoordinator` drives the
detect → cancel → restore → redistribute → resume pipeline until the
run reaches ``a_final`` on whatever ranks survive.  The
:class:`RetryPolicy` is the campaign engine's job-level analog
(bounded re-admission of failed jobs with simulated-clock backoff).

Quickstart (chaos run)::

    from repro.resilience import (FaultPlan, RecoveryCoordinator,
                                  TieredCheckpointStore)
    plan = FaultPlan.single(rank=2, step=1, phase="rung")
    with TieredCheckpointStore("/tmp/ckpt", n_nodes=4) as store:
        coord = RecoveryCoordinator(store)
        result = coord.run(cfg, 4, pos, vel, mass, fault_plan=plan)
    assert result.recoveries[0].ranks_after == 3

or from the CLI: ``python -m repro demo --ranks 4 --inject-fault 2:1``.
"""

from ..parallel.comm import RankFailure
from .checkpointer import DistributedCheckpointer
from .coordinator import (
    RecoveryCoordinator,
    RecoveryError,
    RecoveryRecord,
    ResilientResult,
)
from .faults import DEFAULT_KILL_PHASES, FaultPlan, KillSpec
from .retry import RetryPolicy
from .store import RestorePoint, TieredCheckpointStore

__all__ = [
    "DEFAULT_KILL_PHASES",
    "DistributedCheckpointer",
    "FaultPlan",
    "KillSpec",
    "RankFailure",
    "RecoveryCoordinator",
    "RecoveryError",
    "RecoveryRecord",
    "ResilientResult",
    "RestorePoint",
    "RetryPolicy",
    "TieredCheckpointStore",
]
