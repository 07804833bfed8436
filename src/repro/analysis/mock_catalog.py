"""Mock galaxy catalogs from halo catalogs (HOD population).

Survey pipelines consume synthetic galaxy catalogs built on simulation
halos (paper Section III, CosmoDC2/Euclid Flagship references).  This
module implements the standard halo occupation distribution: centrals via
a smoothed step in halo mass, satellites via a power law, positioned with
an NFW-like radial profile and virial velocity dispersion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import G_COSMO
from .fof import FOFCatalog


@dataclass(frozen=True)
class HODParams:
    """Zheng et al. (2005)-style occupation parameters (Msun/h units)."""

    log_m_min: float = 12.0  # central threshold mass
    sigma_logm: float = 0.25  # softening of the central step
    log_m0: float = 12.2  # satellite cutoff
    log_m1: float = 13.3  # one-satellite mass scale
    alpha: float = 1.0  # satellite power-law slope

    def mean_centrals(self, halo_mass) -> np.ndarray:
        """<N_cen>(M) = 0.5 [1 + erf(log M - log M_min / sigma)]."""
        from scipy.special import erf

        logm = np.log10(np.maximum(np.asarray(halo_mass), 1.0))
        return 0.5 * (1.0 + erf((logm - self.log_m_min) / self.sigma_logm))

    def mean_satellites(self, halo_mass) -> np.ndarray:
        """<N_sat>(M) = <N_cen> ((M - M0)/M1)^alpha for M > M0."""
        m = np.asarray(halo_mass, dtype=np.float64)
        m0 = 10.0**self.log_m0
        m1 = 10.0**self.log_m1
        base = np.clip((m - m0) / m1, 0.0, None) ** self.alpha
        return self.mean_centrals(m) * base


@dataclass
class GalaxyCatalog:
    """Galaxies with positions, velocities, and host-halo bookkeeping."""

    positions: np.ndarray
    velocities: np.ndarray
    is_central: np.ndarray
    host_halo: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def n_centrals(self) -> int:
        return int(self.is_central.sum())

    @property
    def n_satellites(self) -> int:
        return len(self) - self.n_centrals


def virial_velocity(halo_mass, r_vir) -> np.ndarray:
    """Circular velocity sqrt(G M / R) in km/s (h-unit inputs)."""
    return np.sqrt(
        G_COSMO * np.asarray(halo_mass) / np.maximum(np.asarray(r_vir), 1e-12)
    )


def populate_halos(
    catalog: FOFCatalog,
    box: float,
    params: HODParams | None = None,
    rng: np.random.Generator | None = None,
    rho_mean: float | None = None,
    concentration: float = 7.0,
) -> GalaxyCatalog:
    """Draw an HOD galaxy population from a halo catalog.

    Centrals sit at halo centers with the halo bulk velocity; satellites
    are distributed with an exponential-in-radius profile out to the
    virial radius (an NFW-like stand-in needing no per-halo profile fit)
    and receive an isotropic virial velocity dispersion.
    """
    params = params or HODParams()
    rng = rng or np.random.default_rng(0)

    if catalog.n_halos == 0:
        return GalaxyCatalog(
            positions=np.empty((0, 3)),
            velocities=np.empty((0, 3)),
            is_central=np.empty(0, dtype=bool),
            host_halo=np.empty(0, dtype=np.int64),
        )

    masses = catalog.halo_mass
    # virial radius from mean-density overdensity 200
    if rho_mean is None:
        rho_mean = masses.sum() / box**3
    r_vir = (3.0 * masses / (4.0 * np.pi * 200.0 * rho_mean)) ** (1.0 / 3.0)

    pos_chunks, vel_chunks, cen_chunks, host_chunks = [], [], [], []

    has_central = rng.uniform(size=catalog.n_halos) < params.mean_centrals(masses)
    n_sat = rng.poisson(np.where(has_central,
                                 params.mean_satellites(masses), 0.0))

    for h in range(catalog.n_halos):
        if not has_central[h]:
            continue
        center = catalog.halo_center[h]
        vel = catalog.halo_vel[h]
        pos_chunks.append(center[None, :])
        vel_chunks.append(vel[None, :])
        cen_chunks.append(np.array([True]))
        host_chunks.append(np.array([h]))

        k = int(n_sat[h])
        if k == 0:
            continue
        # radial profile: exponential with scale r_vir / concentration
        radii = rng.exponential(r_vir[h] / concentration, k)
        radii = np.minimum(radii, r_vir[h])
        dirs = rng.normal(size=(k, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        sat_pos = np.mod(center + radii[:, None] * dirs, box)
        sigma_v = virial_velocity(masses[h], r_vir[h]) / np.sqrt(3.0)
        sat_vel = vel + rng.normal(0.0, sigma_v, (k, 3))
        pos_chunks.append(sat_pos)
        vel_chunks.append(sat_vel)
        cen_chunks.append(np.zeros(k, dtype=bool))
        host_chunks.append(np.full(k, h))

    if not pos_chunks:
        return GalaxyCatalog(
            positions=np.empty((0, 3)),
            velocities=np.empty((0, 3)),
            is_central=np.empty(0, dtype=bool),
            host_halo=np.empty(0, dtype=np.int64),
        )
    return GalaxyCatalog(
        positions=np.vstack(pos_chunks),
        velocities=np.vstack(vel_chunks),
        is_central=np.concatenate(cen_chunks),
        host_halo=np.concatenate(host_chunks),
    )


def redshift_space_positions(
    positions: np.ndarray,
    velocities: np.ndarray,
    box: float,
    cosmo,
    a: float = 1.0,
    axis: int = 2,
) -> np.ndarray:
    """Apply redshift-space distortions along a line of sight.

    Surveys measure galaxy positions in redshift space: the peculiar
    velocity along the line of sight shifts the inferred comoving position
    by v_los / (a H(a)) (plane-parallel approximation).  This is the map
    under which the clustering 'probes' of Section II are actually
    observed (Kaiser squashing on large scales, fingers-of-god inside
    halos).
    """
    positions = np.asarray(positions, dtype=np.float64)
    s = positions.copy()
    shift = np.asarray(velocities)[:, axis] / (a * cosmo.hubble(a))
    s[:, axis] = np.mod(s[:, axis] + shift, box)
    return s
