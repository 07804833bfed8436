"""Two-point correlation function estimators.

The configuration-space counterpart of P(k), used for the clustering
probes the paper's surveys measure.  Implements the natural and
Landy-Szalay estimators with chaining-mesh pair counting, plus the
analytic P(k) -> xi(r) transform for cross-checks against linear theory.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate

from ..cosmology.power_spectrum import LinearPower
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


def landy_szalay(
    pos: np.ndarray,
    randoms: np.ndarray,
    edges: np.ndarray,
    box: float,
) -> np.ndarray:
    """(DD - 2 DR + RR) / RR with an explicit random catalog."""
    nd = len(pos)
    nr = len(randoms)
    dd = pair_counts(pos, edges, box).astype(np.float64)
    rr = pair_counts(randoms, edges, box).astype(np.float64)
    dr = pair_counts(pos, edges, box, pos2=randoms).astype(np.float64)
    # normalize counts to pair totals
    dd /= nd * (nd - 1) / 2.0
    rr /= nr * (nr - 1) / 2.0
    dr /= nd * nr
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(rr > 0, (dd - 2.0 * dr + rr) / rr, np.nan)


def xi_from_power(r, power: LinearPower, a: float = 1.0) -> np.ndarray:
    """Analytic xi(r) = (1/2 pi^2) int k^2 P(k) sinc(kr) dk."""
    r = np.atleast_1d(np.asarray(r, dtype=np.float64))
    out = np.empty_like(r)
    # the growth factor is itself a quadrature: once, not per evaluation
    growth2 = power.cosmo.growth_factor(a) ** 2
    for i, ri in enumerate(r):
        def integrand(lnk):
            k = np.exp(lnk)
            pk = power._at_unit_growth(k) * growth2
            return k**3 * pk * np.sinc(k * ri / np.pi) / (2.0 * np.pi**2)

        val, _ = integrate.quad(
            integrand, np.log(1e-4), np.log(50.0), limit=400
        )
        out[i] = val
    return out
