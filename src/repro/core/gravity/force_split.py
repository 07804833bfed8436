"""Separation of scales: long-range/short-range gravity force splitting.

The PM Green's function is multiplied by a Gaussian ``exp(-k^2 r_s^2)``;
the exact complement in real space is the short-range pair force

    f_sr(r) = G m / r^2 * S(r),
    S(r) = erfc(r / (2 r_s)) + r / (sqrt(pi) r_s) * exp(-r^2 / (4 r_s^2)),

which decays to machine-negligible levels by ``r ~ 5 r_s``, making the
short-range solver node-local (paper Sections IV-A and VII).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import erfc


def short_range_shape(r, r_split: float):
    """Split function S(r): fraction of the Newtonian force assigned short-range."""
    r = np.asanyarray(r, dtype=np.float64)
    if r_split <= 0:
        return np.zeros_like(r)
    x = r / (2.0 * r_split)
    return erfc(x) + (r / (math.sqrt(math.pi) * r_split)) * np.exp(-(x**2))


def long_range_shape(r, r_split: float):
    """Complement 1 - S(r) (the part the filtered PM solver carries)."""
    return 1.0 - short_range_shape(r, r_split)


@lru_cache
def recommended_cutoff(r_split: float, tol: float = 1.0e-4) -> float:
    """Radius beyond which S(r) < tol (bisection on the monotone tail;
    memoised, since the config properties over it are read per force
    evaluation)."""
    if r_split <= 0:
        return 0.0
    lo, hi = r_split, 20.0 * r_split
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if short_range_shape(mid, r_split) > tol:
            lo = mid
        else:
            hi = mid
    return hi


def newtonian_pair_kernel(r, softening: float):
    """Plummer-softened magnitude kernel r / (r^2 + eps^2)^(3/2).

    Multiplying by G*m and the unit separation vector gives the pair
    acceleration; equals 1/r^2 for r >> eps.
    """
    r = np.asanyarray(r, dtype=np.float64)
    return r / (r**2 + softening**2) ** 1.5
