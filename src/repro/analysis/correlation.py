"""Two-point correlation function estimators.

The configuration-space counterpart of P(k), used for the clustering
probes the paper's surveys measure.  Implements the natural estimator
(exact analytic randoms for a periodic box) with chaining-mesh pair
counting.
"""

from __future__ import annotations

import numpy as np

from ..tree import neighbor_pairs


def pair_counts(
    pos: np.ndarray, edges: np.ndarray, box: float,
    pos2: np.ndarray | None = None,
) -> np.ndarray:
    """Histogram of (auto or cross) pair separations within max(edges).

    Auto counts exclude self pairs and count each unordered pair once.
    """
    edges = np.asarray(edges, dtype=np.float64)
    r_max = float(edges[-1])
    if pos2 is None:
        pi, pj = neighbor_pairs(
            pos, np.full(len(pos), r_max), box=box, include_self=False
        )
        keep = pi < pj
        dx = pos[pi[keep]] - pos[pj[keep]]
    else:
        both = np.vstack([pos, pos2])
        h = np.full(len(both), r_max)
        pi, pj = neighbor_pairs(both, h, box=box, include_self=False)
        n1 = len(pos)
        keep = (pi < n1) & (pj >= n1)
        dx = both[pi[keep]] - both[pj[keep]]
    dx -= box * np.round(dx / box)
    r = np.sqrt(np.einsum("pa,pa->p", dx, dx))
    counts, _ = np.histogram(r, bins=edges)
    return counts


def natural_estimator(
    pos: np.ndarray, edges: np.ndarray, box: float
) -> np.ndarray:
    """xi(r) = DD / RR_analytic - 1 (exact RR for a periodic box)."""
    n = len(pos)
    dd = pair_counts(pos, edges, box)
    shell_vol = 4.0 / 3.0 * np.pi * (edges[1:] ** 3 - edges[:-1] ** 3)
    rr = n * (n - 1) / 2.0 * shell_vol / box**3
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(rr > 0, dd / rr - 1.0, np.nan)
