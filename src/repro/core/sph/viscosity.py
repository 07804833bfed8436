"""Artificial viscosity for shock capturing.

Monaghan-Gingold pairwise viscosity with a Balsara-style shear limiter,
following the CRKSPH formulation (limiters keep the scheme low-dissipation
away from shocks, which is the 'reduced numerical diffusion' property the
paper highlights).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import pair_differences
from .pair_batch import PairBatch


@dataclass(frozen=True)
class MonaghanViscosity:
    """Classic Monaghan (1992) pair viscosity Pi_ij with limiters.

    Pi_ij = (-alpha c_ij mu_ij + beta mu_ij^2) / rho_ij
    mu_ij = h_ij v_ij.r_ij / (r_ij^2 + eps h_ij^2)  for approaching pairs.
    """

    alpha: float = 1.0
    beta: float = 2.0
    eps: float = 0.01

    def mu_pair(self, dx, dv, h_ij):
        """Approach rate mu_ij; zero for receding pairs."""
        vdotr = np.sum(dv * dx, axis=-1)
        r2 = np.sum(dx * dx, axis=-1)
        mu = h_ij * vdotr / (r2 + self.eps * h_ij**2)
        return np.where(vdotr < 0.0, mu, 0.0)

    def pi_pair(self, mu, c_ij, rho_ij, limiter=None):
        """Pairwise viscous pressure term Pi_ij (units of P/rho^2 * rho^2)
        from the pairs' approach rate ``mu`` (:meth:`mu_pair`), which the
        caller also reads for the signal speed."""
        pi = (-self.alpha * c_ij * mu + self.beta * mu**2) / np.maximum(
            rho_ij, 1e-300
        )
        if limiter is not None:
            pi = pi * limiter
        return pi


def balsara_switch(div_v, curl_v_mag, c, h, eps: float = 1.0e-4):
    """Balsara (1995) shear limiter f_i in [0, 1].

    f = |div v| / (|div v| + |curl v| + eps c/h); suppresses viscosity in
    pure shear flows while leaving compressive shocks untouched.
    """
    div = np.abs(np.asarray(div_v, dtype=np.float64))
    curl = np.asarray(curl_v_mag, dtype=np.float64)
    denom = div + curl + eps * np.asarray(c) / np.maximum(np.asarray(h), 1e-300)
    return div / np.maximum(denom, 1e-300)


def velocity_divergence_curl(vel, vol, batch: PairBatch):
    """SPH estimates of div(v) and |curl(v)| per particle.

    Uses the uncorrected kernel gradient of ``batch`` (sufficient for a
    limiter switch) and reduces over its plan.
    """
    gw = batch.gw_i
    dv = pair_differences(vel, batch.pj, batch.pi)
    vj = vol[batch.pj]

    div = batch.seg.sum(vj * np.einsum("pa,pa->p", dv, gw))
    # dv x gw by components, the arithmetic of np.cross (bitwise) without
    # its axis bookkeeping, which dominates the call on a small tile
    cross = np.empty_like(dv)
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.subtract(dv[:, b] * gw[:, c], dv[:, c] * gw[:, b], out=cross[:, a])
    curl = batch.seg.sum(vj[:, None] * cross)
    return div, np.sqrt(np.sum(curl * curl, axis=-1))
