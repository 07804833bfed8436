"""AGN feedback: black-hole seeding, Bondi accretion, thermal feedback.

A black hole of ``seed_mass`` is seeded each step at the densest gas
particle whose density exceeds 5e3 times the mean gas density, unless a
black hole already lies within 0.05 times the smallest box side
(``core/simulation.py``, the subgrid step).  Black holes grow by
Eddington-limited Bondi-Hoyle accretion and return a fraction
``eps_r * eps_f`` of the accreted rest-mass energy to surrounding gas as
heat — the standard thermal-mode AGN model used by the large-volume
hydrodynamic simulations the paper compares against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ...constants import (
    C_LIGHT,
    G_CGS,
    KM_CM,
    M_PROTON,
    MSUN_G,
    SIGMA_THOMSON,
)
from .cooling import RHO_CODE_TO_CGS


def eddington_rate(m_bh_msun: np.ndarray, eps_r: float = 0.1) -> np.ndarray:
    """Eddington accretion rate in Msun/s."""
    m_bh_g = np.asarray(m_bh_msun) * MSUN_G
    l_edd = 4.0 * math.pi * G_CGS * m_bh_g * M_PROTON * C_LIGHT / SIGMA_THOMSON
    return l_edd / (eps_r * C_LIGHT**2) / MSUN_G


def bondi_rate(
    m_bh_msun: np.ndarray,
    rho_comoving: np.ndarray,
    sound_speed_kms: np.ndarray,
    a: float = 1.0,
    boost: float = 1.0,
) -> np.ndarray:
    """Bondi-Hoyle rate mdot = 4 pi alpha G^2 M^2 rho / c_s^3 in Msun/s."""
    m_g = np.asarray(m_bh_msun) * MSUN_G
    rho_cgs = np.asarray(rho_comoving) * RHO_CODE_TO_CGS / a**3
    cs_cgs = np.maximum(np.asarray(sound_speed_kms) * KM_CM, 1.0)
    mdot = 4.0 * math.pi * boost * G_CGS**2 * m_g**2 * rho_cgs / cs_cgs**3
    return mdot / MSUN_G


@dataclass
class AGNModel:
    """Thermal-mode AGN feedback.

    Parameters
    ----------
    seed_mass : BH seed mass [Msun/h], placed at the densest gas site
        above 5e3 times the mean gas density with no black hole within
        0.05 of the box (module docstring)
    eps_r : radiative efficiency
    eps_f : fraction of radiated energy coupled to gas
    bondi_boost : alpha boost factor on the Bondi rate
    """

    seed_mass: float = 1.0e5
    eps_r: float = 0.1
    eps_f: float = 0.05
    bondi_boost: float = 100.0

    def accretion_rate(self, m_bh, rho_comoving, cs_kms, a=1.0):
        """Eddington-limited Bondi rate, Msun/s."""
        bondi = bondi_rate(
            m_bh, rho_comoving, cs_kms, a=a, boost=self.bondi_boost
        )
        edd = eddington_rate(m_bh, eps_r=self.eps_r)
        return np.minimum(bondi, edd)

    def grow(self, m_bh, rho_comoving, cs_kms, dt_seconds, a=1.0):
        """Updated BH masses and accreted mass over one step."""
        mdot = self.accretion_rate(m_bh, rho_comoving, cs_kms, a=a)
        dm = mdot * dt_seconds
        return np.asarray(m_bh) + dm, dm

    def feedback_energy(self, dm_accreted_msun: np.ndarray) -> np.ndarray:
        """Thermal energy released to gas in (km/s)^2 * Msun units.

        E = eps_r eps_f dm c^2; returned as specific-energy * mass so the
        caller divides by receiving gas mass.
        """
        e_erg = (
            self.eps_r
            * self.eps_f
            * np.asarray(dm_accreted_msun)
            * MSUN_G
            * C_LIGHT**2
        )
        return e_erg / MSUN_G / KM_CM**2  # (km/s)^2 * Msun
