"""Halo mass function and cluster statistics.

Bins FOF halo masses into a differential mass function dn/dlnM and
compares against the Press-Schechter analytic form — the statistic behind
the paper's '570,000 galaxy clusters' headline count.
"""

from __future__ import annotations

import math

import numpy as np

from ..cosmology.background import Cosmology
from ..cosmology.power_spectrum import LinearPower

DELTA_C = 1.686  # spherical-collapse critical overdensity


def halo_mass_function(
    halo_masses: np.ndarray,
    box: float,
    n_bins: int = 12,
    m_min: float | None = None,
    m_max: float | None = None,
):
    """Differential mass function dn/dlnM from a halo catalog.

    Returns (m_centers, dn_dlnm, counts); empty bins give zero.
    """
    m = np.asarray(halo_masses, dtype=np.float64)
    m = m[m > 0]
    if len(m) == 0:
        empty = np.empty(0)
        return empty, empty, np.empty(0, dtype=np.int64)
    m_min = m_min or m.min() * 0.999
    m_max = m_max or m.max() * 1.001
    edges = np.logspace(np.log10(m_min), np.log10(m_max), n_bins + 1)
    counts, _ = np.histogram(m, bins=edges)
    dlnm = np.diff(np.log(edges))
    vol = box**3
    centers = np.sqrt(edges[:-1] * edges[1:])
    return centers, counts / (vol * dlnm), counts


def press_schechter_mass_function(
    masses: np.ndarray, cosmo: Cosmology, a: float = 1.0,
    power: LinearPower | None = None,
):
    """Press-Schechter dn/dlnM [(Mpc/h)^-3] at scale factor a."""
    power = power or LinearPower(cosmo)
    masses = np.atleast_1d(np.asarray(masses, dtype=np.float64))
    if len(masses) == 1:
        # np.gradient needs >= 2 samples; bracket the point internally
        m3 = masses[0] * np.array([0.99, 1.0, 1.01])
        return press_schechter_mass_function(m3, cosmo, a=a, power=power)[1:2]
    rho_m = cosmo.rho_mean0  # comoving Msun h^2/Mpc^3 in h-units

    radii = (3.0 * masses / (4.0 * math.pi * rho_m)) ** (1.0 / 3.0)
    sigma = np.array([power.sigma_r(r, a) for r in radii])
    # dln(sigma)/dlnM by finite difference in log M
    lnm = np.log(masses)
    dlns = np.gradient(np.log(sigma), lnm)
    nu = DELTA_C / sigma
    f_ps = math.sqrt(2.0 / math.pi) * nu * np.exp(-(nu**2) / 2.0)
    return rho_m / masses * f_ps * np.abs(dlns)


def cluster_count(halo_masses: np.ndarray, m_cluster: float = 1.0e14) -> int:
    """Number of galaxy-cluster-scale halos (M >= m_cluster Msun/h)."""
    return int(np.sum(np.asarray(halo_masses) >= m_cluster))
