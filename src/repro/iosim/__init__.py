"""Multi-tier I/O simulation: NVMe, PFS, async bleed, checkpoints, faults."""

from .checkpoint import (
    CheckpointError,
    read_blocks,
    read_checkpoint,
    write_blocks,
    write_checkpoint,
)
from .bleed import AsyncBleeder, BleedStats
from .faults import (
    FaultRunStats,
    simulate_run_with_faults,
    young_daly_interval,
)
from .nvme import NVMeModel
from .pfs import PFSModel
from .tiers import DirectPFSWriter, MultiTierWriter, StepIORecord

__all__ = [
    "AsyncBleeder",
    "BleedStats",
    "CheckpointError",
    "DirectPFSWriter",
    "FaultRunStats",
    "MultiTierWriter",
    "NVMeModel",
    "PFSModel",
    "StepIORecord",
    "read_blocks",
    "read_checkpoint",
    "simulate_run_with_faults",
    "write_blocks",
    "write_checkpoint",
    "young_daly_interval",
]
