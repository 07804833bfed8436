"""GPU occupancy model: registers per thread -> resident warps -> efficiency.

Quantifies the mechanism behind warp splitting's payoff (paper §IV-B2):
interaction kernels are register-pressure limited, so cutting per-thread
registers raises occupancy, which hides memory and pipeline latency.  The
model follows the standard occupancy calculation — a register file of
fixed size per compute unit divided among resident warps — plus a
saturating latency-hiding curve mapping occupancy to achieved efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import GPUSpec


@dataclass(frozen=True)
class OccupancyModel:
    """Register-file occupancy for one compute unit (CU/SM/Xe-core)."""

    registers_per_cu: int = 65536  # 64k 32-bit registers (MI250X/H100 class)
    max_warps_per_cu: int = 32
    #: occupancy at which latency is fully hidden for compute-bound kernels
    saturation_occupancy: float = 0.25

    def resident_warps(self, registers_per_thread: int, warp_size: int) -> int:
        """Warps that fit in the register file (allocation granularity 8)."""
        if registers_per_thread < 1:
            raise ValueError("registers_per_thread must be >= 1")
        regs = 8 * int(np.ceil(registers_per_thread / 8.0))
        per_warp = regs * warp_size
        return int(min(self.registers_per_cu // per_warp, self.max_warps_per_cu))

    def occupancy(self, registers_per_thread: int, warp_size: int) -> float:
        """Resident warps / maximum warps, in [0, 1]."""
        return self.resident_warps(registers_per_thread, warp_size) / float(
            self.max_warps_per_cu
        )

    def latency_hiding_efficiency(self, occupancy: float) -> float:
        """Fraction of issue slots kept busy at a given occupancy.

        Saturating curve: eff = min(1, occ / occ_sat).  Below saturation
        the CU starves on latency; above it extra warps add nothing —
        the standard shape of occupancy-vs-throughput measurements.
        """
        return float(min(1.0, max(occupancy, 0.0) / self.saturation_occupancy))


def active_compaction_stats(
    leaf_counts, leaf_active_counts, warp_size: int
) -> dict:
    """Warp-issue accounting: predicated vs compacted mixed-rung tiles.

    ``leaf_counts[l]``/``leaf_active_counts[l]`` are total and active
    i-particle counts per leaf.  Predication issues every i-tile of every
    active leaf (``ceil(n/half)`` tiles, inactive lanes masked); compaction
    issues only ``ceil(n_active/half)`` dense tiles per leaf — the
    paper's mixed-rung force kernels.  Returns issued half-warp tile
    counts, mean issued-lane occupancy of each scheme, and the issue
    reduction factor the warp scheduler sees.
    """
    half = max(warp_size // 2, 1)
    totals = np.asarray(leaf_counts, dtype=np.int64)
    actives = np.asarray(leaf_active_counts, dtype=np.int64)
    if totals.shape != actives.shape:
        raise ValueError("leaf_counts and leaf_active_counts must align")
    if np.any(actives > totals):
        raise ValueError("active counts exceed leaf populations")
    live = actives > 0  # fully inactive leaves are skipped by both schemes
    tiles_pred = int(np.ceil(totals[live] / half).sum())
    tiles_comp = int(np.ceil(actives[live] / half).sum())
    n_active = int(actives.sum())
    return {
        "issued_tiles_predicated": tiles_pred,
        "issued_tiles_compacted": tiles_comp,
        "lane_occupancy_predicated": (
            n_active / (tiles_pred * half) if tiles_pred else 1.0
        ),
        "lane_occupancy_compacted": (
            n_active / (tiles_comp * half) if tiles_comp else 1.0
        ),
        "issue_reduction": tiles_pred / max(tiles_comp, 1),
    }


def warp_splitting_occupancy_gain(
    kernel, device: GPUSpec, model: OccupancyModel | None = None
) -> dict:
    """Occupancy and efficiency with and without warp splitting.

    ``kernel`` is a :class:`~repro.gpusim.warp.SeparablePairKernel`; the
    register estimates for the split and naive variants drive the standard
    occupancy calculation.
    """
    model = model or OccupancyModel()
    out = {}
    for split in (False, True):
        regs = kernel.register_estimate(split)
        occ = model.occupancy(regs, device.warp_size)
        out["split" if split else "naive"] = {
            "registers": regs,
            "resident_warps": model.resident_warps(regs, device.warp_size),
            "occupancy": occ,
            "efficiency": model.latency_hiding_efficiency(occ),
        }
    out["efficiency_gain"] = (
        out["split"]["efficiency"] / max(out["naive"]["efficiency"], 1e-12)
    )
    return out
