"""Equations of state for the gas phase."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...constants import GAMMA_IDEAL, K_BOLTZMANN, KM_CM, M_PROTON


@dataclass(frozen=True)
class IdealGasEOS:
    """Gamma-law ideal gas: P = (gamma - 1) rho u.

    ``u`` is specific internal energy.  In code units (velocities km/s),
    u has units (km/s)^2.
    """

    gamma: float = GAMMA_IDEAL

    def pressure(self, rho, u):
        rho = np.asarray(rho, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        return (self.gamma - 1.0) * rho * np.maximum(u, 0.0)

    def sound_speed(self, rho, u):
        u = np.asarray(u, dtype=np.float64)
        return np.sqrt(self.gamma * (self.gamma - 1.0) * np.maximum(u, 0.0))

    def temperature(self, u, mu: float = 0.59):
        """Temperature in K from specific internal energy in (km/s)^2."""
        u_cgs = np.asarray(u, dtype=np.float64) * KM_CM**2
        return (self.gamma - 1.0) * mu * M_PROTON * u_cgs / K_BOLTZMANN

    def internal_energy_from_temperature(self, temp, mu: float = 0.59):
        """Specific internal energy in (km/s)^2 from temperature in K."""
        temp = np.asarray(temp, dtype=np.float64)
        u_cgs = K_BOLTZMANN * temp / ((self.gamma - 1.0) * mu * M_PROTON)
        return u_cgs / KM_CM**2
