"""Simulated GPU execution: devices, warp splitting, counters, utilization."""

from .counters import CountingArray, OpCounters
from .device import H100_SXM5, MI250X_GCD, PVC_TILE, TABLE_I, GPUSpec, table_i_rows
from .occupancy import (
    OccupancyModel,
    active_compaction_stats,
    warp_splitting_occupancy_gain,
)
from .resident import GPUResidentSolver, ResidentPassResult
from .kernels import (
    SOLVER_KERNEL_MIX,
    VENDOR_PEAK_FACTOR,
    KernelProfile,
    peak_kernel,
    peak_utilization,
    sustained_utilization,
)
from .warp import (
    FIELD_SHAPES,
    SeparablePairKernel,
    coulomb_kernel,
    crk_coefficient_kernel,
    execute_leaf_pair_naive,
    execute_leaf_pair_warpsplit,
    hydro_force_kernel,
    lennard_jones_kernel,
    short_range_gravity_kernel,
    sph_density_kernel,
)

__all__ = [
    "FIELD_SHAPES",
    "H100_SXM5",
    "MI250X_GCD",
    "PVC_TILE",
    "SOLVER_KERNEL_MIX",
    "TABLE_I",
    "VENDOR_PEAK_FACTOR",
    "GPUSpec",
    "KernelProfile",
    "GPUResidentSolver",
    "CountingArray",
    "OccupancyModel",
    "OpCounters",
    "ResidentPassResult",
    "SeparablePairKernel",
    "active_compaction_stats",
    "coulomb_kernel",
    "crk_coefficient_kernel",
    "execute_leaf_pair_naive",
    "execute_leaf_pair_warpsplit",
    "hydro_force_kernel",
    "lennard_jones_kernel",
    "peak_kernel",
    "peak_utilization",
    "short_range_gravity_kernel",
    "sph_density_kernel",
    "sustained_utilization",
    "table_i_rows",
    "warp_splitting_occupancy_gain",
]
