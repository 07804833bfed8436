"""Mixed-precision study: FP64 spectral solver, FP32 short-range kernels.

The multi-scale design lets CRK-HACC run the FFT-based long-range solver
in FP64 (preserving spectral accuracy) while executing short-range GPU
kernels in FP32 for speed and memory (paper §IV-A).  This module makes
that trade measurable: it evaluates the short-range pair force in both
precisions and quantifies the FP32 error against the force scale, to be
compared with the other error sources in the split (PM mesh noise ~1%,
handover tail ~1e-4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# sanitize: allow-file-dtype-discipline -- this module *is* the FP32
# study; every float32 here is the deliberate downcast under measurement

from ...constants import G_COSMO
from ..geometry import pair_displacements
from ..scatter import segment_sum
from .force_split import newtonian_pair_kernel, short_range_shape
from .short_range import require_unordered, short_range_accelerations


def short_range_accelerations_fp32(
    pos, mass, pi, pj, r_split, softening, box=None, g_newton=G_COSMO
):
    """FP32 evaluation of the short-range pair force (same algorithm as
    the FP64 path — unordered pairs ``pi < pj``, each applied to both
    ends — with arrays downcast once at entry like a GPU upload)."""
    require_unordered(pi, pj)
    pos32 = np.asarray(pos, dtype=np.float32)
    mass32 = np.asarray(mass, dtype=np.float32)
    box32 = None if box is None else np.asarray(box, dtype=np.float32)
    dx = pair_displacements(pos32, pi, pj, box32).astype(np.float32)
    r = np.sqrt(np.einsum("pa,pa->p", dx, dx, dtype=np.float32)).astype(
        np.float32
    )
    kern = newtonian_pair_kernel(r, softening).astype(np.float32)
    if r_split > 0:
        kern = kern * short_range_shape(r, r_split).astype(np.float32)
    with np.errstate(invalid="ignore", divide="ignore"):
        coef = np.where(r > 0, -np.float32(g_newton) * kern / r,
                        np.float32(0)).astype(np.float32)
    n = len(pos32)
    # segment_sum keeps FP32 accumulation (reduceat path) like GPU atomics
    return (segment_sum((mass32[pj] * coef)[:, None] * dx, pi, n)
            - segment_sum((mass32[pi] * coef)[:, None] * dx, pj, n))


@dataclass
class PrecisionReport:
    """FP32-vs-FP64 short-range force comparison."""

    rms_relative_error: float
    max_relative_error: float
    median_relative_error: float
    memory_ratio: float  # FP32 bytes / FP64 bytes for the particle state

    @property
    def acceptable(self) -> bool:
        """FP32 error well below the ~1% PM mesh noise of the split."""
        return self.rms_relative_error < 1.0e-3


def compare_precisions(
    pos, mass, pi, pj, r_split, softening, box=None
) -> PrecisionReport:
    """Evaluate the short-range force in FP64 and FP32 and compare."""
    a64 = short_range_accelerations(
        pos, mass, pi, pj, r_split=r_split, softening=softening, box=box
    )
    a32 = short_range_accelerations_fp32(
        pos, mass, pi, pj, r_split=r_split, softening=softening, box=box
    )
    mag = np.linalg.norm(a64, axis=1)
    err = np.linalg.norm(a64 - a32.astype(np.float64), axis=1)
    scale = np.maximum(mag, np.percentile(mag[mag > 0], 10) if (mag > 0).any() else 1.0)
    rel = err / scale
    return PrecisionReport(
        rms_relative_error=float(np.sqrt(np.mean(rel**2))),
        max_relative_error=float(rel.max()) if len(rel) else 0.0,
        median_relative_error=float(np.median(rel)) if len(rel) else 0.0,
        memory_ratio=0.5,
    )
