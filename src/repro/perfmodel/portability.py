"""Performance portability across GPU vendors (paper §VI-C and Ref. [20]).

The paper demonstrates CRK-HACC sustains consistent utilization on AMD,
Intel, and NVIDIA hardware; its Ref. [20] (Rangel, Pennycook, et al.)
quantifies this with the Pennycook performance-portability metric: the
harmonic mean of an application's efficiency over a platform set H,

    PP(a, p, H) = |H| / sum_i 1 / e_i(a, p),

which is zero if any platform fails and rewards uniform efficiency.  Here
the per-platform efficiencies come from the calibrated utilization model
(architectural efficiency: achieved / peak FP32).
"""

from __future__ import annotations

import numpy as np

from ..gpusim.device import H100_SXM5, MI250X_GCD, PVC_TILE, GPUSpec
from ..gpusim.kernels import peak_utilization, sustained_utilization

DEFAULT_PLATFORMS = (MI250X_GCD, PVC_TILE, H100_SXM5)


def performance_portability(efficiencies) -> float:
    """Pennycook PP metric: harmonic mean; 0 if any platform is 0."""
    e = np.asarray(list(efficiencies), dtype=np.float64)
    if len(e) == 0:
        raise ValueError("need at least one platform")
    if np.any(e < 0) or np.any(e > 1):
        raise ValueError("efficiencies must lie in [0, 1]")
    if np.any(e == 0):
        return 0.0
    return float(len(e) / np.sum(1.0 / e))


def solver_portability(
    platforms: tuple[GPUSpec, ...] = DEFAULT_PLATFORMS,
    kind: str = "sustained",
) -> dict:
    """PP of the CRK-HACC solver over the paper's three platforms.

    ``kind`` selects sustained (whole solver stack) or peak (best kernel)
    architectural efficiency.
    """
    if kind == "sustained":
        eff = {d.vendor: sustained_utilization(d) for d in platforms}
    elif kind == "peak":
        eff = {d.vendor: peak_utilization(d) for d in platforms}
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return {
        "efficiencies": eff,
        "pp": performance_portability(eff.values()),
        "kind": kind,
    }
