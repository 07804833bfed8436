"""Mock sky maps and lightcones: the survey-facing data products.

Frontier-E's purpose is full-sky, multi-wavelength synthetic observations
(paper Sections II, VII): thermal Sunyaev-Zel'dovich (Compton-y) maps from
gas pressure, X-ray surface brightness from n^2 sqrt(T) emission, and
object-count maps.  This module builds those products from snapshots: an
equirectangular angular map container, per-particle observable weights,
and a lightcone assembler that tiles the periodic box into comoving
distance shells around an observer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..constants import (
    K_BOLTZMANN,
    M_ELECTRON,
    M_PROTON,
    MPC_CM,
    MSUN_G,
    SIGMA_THOMSON,
    X_HYDROGEN,
)
from ..core.scatter import segment_sum
from ..core.sph.eos import IdealGasEOS
from ..cosmology.background import Cosmology


@dataclass
class AngularMap:
    """Equirectangular full-sky map (theta in [0, pi], phi in [0, 2 pi)).

    Pixels are weighted by inverse solid angle so the stored quantity is a
    surface density (per steradian); totals are recoverable via
    :meth:`integral`.
    """

    n_theta: int = 64
    n_phi: int = 128
    data: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        if self.data is None:
            self.data = np.zeros((self.n_theta, self.n_phi))
        theta_edges = np.linspace(0.0, math.pi, self.n_theta + 1)
        dphi = 2.0 * math.pi / self.n_phi
        self._pixel_solid_angle = (
            (np.cos(theta_edges[:-1]) - np.cos(theta_edges[1:])) * dphi
        )[:, None] * np.ones((1, self.n_phi))

    @property
    def pixel_solid_angle(self) -> np.ndarray:
        return self._pixel_solid_angle

    def add(self, theta: np.ndarray, phi: np.ndarray, weights) -> None:
        """Accumulate per-object weights into pixels (per-steradian units)."""
        theta = np.asarray(theta, dtype=np.float64)
        phi = np.mod(np.asarray(phi, dtype=np.float64), 2.0 * math.pi)
        weights = np.broadcast_to(
            np.asarray(weights, dtype=np.float64), theta.shape
        )
        it = np.clip(
            (theta / math.pi * self.n_theta).astype(np.int64), 0, self.n_theta - 1
        )
        ip = np.clip(
            (phi / (2.0 * math.pi) * self.n_phi).astype(np.int64),
            0,
            self.n_phi - 1,
        )
        contrib = weights / self._pixel_solid_angle[it, ip]
        self.data += segment_sum(
            contrib, it * self.n_phi + ip, self.n_theta * self.n_phi
        ).reshape(self.n_theta, self.n_phi)

    def integral(self) -> float:
        """Total weight on the sky (sum of data x solid angle)."""
        return float(np.sum(self.data * self._pixel_solid_angle))

    def mean(self) -> float:
        return self.integral() / (4.0 * math.pi)


def angles_from_vectors(vec: np.ndarray):
    """(theta, phi, r) spherical coordinates of displacement vectors."""
    vec = np.atleast_2d(np.asarray(vec, dtype=np.float64))
    r = np.sqrt(np.einsum("na,na->n", vec, vec))
    safe_r = np.maximum(r, 1e-300)
    theta = np.arccos(np.clip(vec[:, 2] / safe_r, -1.0, 1.0))
    phi = np.mod(np.arctan2(vec[:, 1], vec[:, 0]), 2.0 * math.pi)
    return theta, phi, r


# -- per-particle observable weights -----------------------------------------

def compton_y_weights(
    mass: np.ndarray,
    u: np.ndarray,
    distance_mpc: np.ndarray,
    mu_e: float = 1.14,
) -> np.ndarray:
    """Per-particle contribution to the Compton-y sky integral.

    y = (sigma_T / m_e c^2) * integral P_e dl; discretized per particle as
    (sigma_T k_B T_e / m_e c^2) * (N_e / d_A^2) — dimensionless, with all
    inputs in code units (Msun, (km/s)^2, Mpc).
    """
    eos = IdealGasEOS()
    t_e = eos.temperature(u, mu=0.59)
    n_e = np.asarray(mass) * MSUN_G / (mu_e * M_PROTON)  # electron count
    c_cgs = 2.99792458e10
    d_cm = np.asarray(distance_mpc) * MPC_CM
    y = (
        SIGMA_THOMSON
        * K_BOLTZMANN
        * t_e
        / (M_ELECTRON * c_cgs**2)
        * n_e
        / np.maximum(d_cm, 1e-10) ** 2
    )
    return y


def xray_luminosity_weights(
    mass: np.ndarray,
    rho_comoving: np.ndarray,
    u: np.ndarray,
    a: float = 1.0,
) -> np.ndarray:
    """Bolometric bremsstrahlung luminosity per particle, erg/s.

    L ~ 1.4e-27 sqrt(T) n_e n_i V (free-free); V = m/rho.
    """
    eos = IdealGasEOS()
    t = eos.temperature(u, mu=0.59)
    rho_cgs = np.asarray(rho_comoving) * MSUN_G / MPC_CM**3 / a**3
    n_h = X_HYDROGEN * rho_cgs / M_PROTON
    vol_cm3 = np.asarray(mass) * MSUN_G / np.maximum(rho_cgs, 1e-60)
    return 1.4e-27 * np.sqrt(np.maximum(t, 0.0)) * 1.2 * n_h**2 * vol_cm3


# -- lightcone construction ------------------------------------------------------

@dataclass
class LightconeShell:
    """Particles selected into one comoving-distance shell."""

    a: float
    chi_min: float
    chi_max: float
    positions: np.ndarray  # relative to the observer (replicated)
    indices: np.ndarray  # source particle row in the snapshot


class LightconeBuilder:
    """Assembles comoving-distance shells from periodic snapshots.

    For each snapshot (at scale factor ``a``) the periodic box is tiled
    with enough replicas to cover the shell [chi(a_outer), chi(a_inner)]
    around the observer, and particles falling inside the shell are
    selected — the standard lightcone construction used to embed synthetic
    observations in a single domain (paper Section III).
    """

    def __init__(self, box: float, cosmo: Cosmology, observer=None,
                 max_replicas: int = 4):
        self.box = float(box)
        self.cosmo = cosmo
        self.observer = (
            np.full(3, self.box / 2.0)
            if observer is None
            else np.asarray(observer, dtype=np.float64)
        )
        #: cap on periodic box replications per axis direction — shells
        #: farther than max_replicas * box would tile the box thousands of
        #: times (a 5 Gpc shell over a 50 Mpc toy box); raise instead
        self.max_replicas = max_replicas

    def comoving_distance_of_a(self, a: float) -> float:
        return float(self.cosmo.comoving_distance(1.0 / a - 1.0))

    def shell(self, positions: np.ndarray, a_inner: float, a_outer: float,
              a_snapshot: float | None = None) -> LightconeShell:
        """Select (replicated) particles whose comoving distance lies in
        the shell between the scale factors ``a_outer < a_inner``."""
        if not 0 < a_outer < a_inner <= 1.0:
            raise ValueError("need 0 < a_outer < a_inner <= 1")
        chi_min = self.comoving_distance_of_a(a_inner)
        chi_max = self.comoving_distance_of_a(a_outer)
        return self.shell_by_distance(
            positions, chi_min, chi_max,
            a=a_snapshot if a_snapshot is not None else a_outer,
        )

    def shell_by_distance(
        self, positions: np.ndarray, chi_min: float, chi_max: float,
        a: float = 1.0,
    ) -> LightconeShell:
        """Select particles in an explicit comoving-distance shell.

        Lets toy boxes build nearby shells directly instead of the
        full-cosmology chi(a) mapping (which for survey redshifts spans
        gigaparsecs and would demand thousands of box replicas).
        """
        if not 0 <= chi_min < chi_max:
            raise ValueError("need 0 <= chi_min < chi_max")
        positions = np.asarray(positions, dtype=np.float64)

        n_rep = int(np.ceil(chi_max / self.box)) + 1
        if n_rep > self.max_replicas:
            raise ValueError(
                f"shell at chi ~ {chi_max:.0f} needs {n_rep} box replicas "
                f"per direction (> max_replicas={self.max_replicas}); use a "
                f"larger box or shell_by_distance with nearer shells"
            )
        reps = range(-n_rep, n_rep + 1)
        sel_pos = []
        sel_idx = []
        base = positions - self.observer
        idx = np.arange(len(positions))
        for ix in reps:
            for iy in reps:
                for iz in reps:
                    shift = np.array([ix, iy, iz], dtype=np.float64) * self.box
                    rel = base + shift
                    r = np.sqrt(np.einsum("na,na->n", rel, rel))
                    inside = (r >= chi_min) & (r < chi_max)
                    if inside.any():
                        sel_pos.append(rel[inside])
                        sel_idx.append(idx[inside])
        if sel_pos:
            pos_out = np.vstack(sel_pos)
            idx_out = np.concatenate(sel_idx)
        else:
            pos_out = np.empty((0, 3))
            idx_out = np.empty(0, dtype=np.int64)
        return LightconeShell(
            a=a,
            chi_min=chi_min,
            chi_max=chi_max,
            positions=pos_out,
            indices=idx_out,
        )

    def project_shell(
        self, shell: LightconeShell, weights: np.ndarray, sky: AngularMap
    ) -> AngularMap:
        """Add a shell's particles onto an angular map with given weights
        (weights indexed by the shell's source rows)."""
        if len(shell.positions) == 0:
            return sky
        theta, phi, _ = angles_from_vectors(shell.positions)
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim == 0:
            sky.add(theta, phi, np.full(len(shell.positions), float(w)))
        else:
            sky.add(theta, phi, w[shell.indices])
        return sky
