"""Extended stellar evolution channels: SNIa and AGB mass return.

The paper's subgrid suite includes "stellar chemical enrichment" beyond
prompt core-collapse supernovae.  This module adds the two standard
delayed channels: Type Ia supernovae following a t^-1 delay-time
distribution (iron-rich yields, relevant for cluster metallicity), and
AGB winds returning a large fraction of the stellar mass to the gas over
gigayears.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...constants import KM_CM, MSUN_G


@dataclass(frozen=True)
class SNIaModel:
    """Type Ia supernovae with a power-law delay-time distribution.

    Rate per unit formed stellar mass: dN/dt = N_Ia * (t / t_norm)^-1 /
    [t ln(t_max/t_min)] for t in [t_min, t_max] — the observational t^-1
    DTD, normalized so the time integral is ``n_per_msun``.
    """

    n_per_msun: float = 1.3e-3  # SNIa per Msun formed (observed)
    t_min_myr: float = 40.0  # first white dwarfs
    t_max_myr: float = 1.0e4
    energy_erg: float = 1.0e51
    iron_yield_msun: float = 0.7  # per event, mostly iron

    def events_between(
        self, stellar_mass_msun, age0_myr: float, age1_myr: float
    ) -> np.ndarray:
        """Expected SNIa count for star particles between two ages."""
        lo = np.clip(age0_myr, self.t_min_myr, self.t_max_myr)
        hi = np.clip(age1_myr, self.t_min_myr, self.t_max_myr)
        norm = np.log(self.t_max_myr / self.t_min_myr)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(hi > lo, np.log(hi / lo) / norm, 0.0)
        return np.asarray(stellar_mass_msun) * self.n_per_msun * frac

    def specific_energy(self, n_events, gas_mass_msun) -> np.ndarray:
        """Heating in (km/s)^2 when n_events deposit into gas_mass."""
        e_erg = np.asarray(n_events) * self.energy_erg
        return e_erg / (np.asarray(gas_mass_msun) * MSUN_G) / KM_CM**2

    def iron_mass(self, n_events) -> np.ndarray:
        return np.asarray(n_events) * self.iron_yield_msun


@dataclass(frozen=True)
class AGBModel:
    """Asymptotic-giant-branch mass return.

    A stellar population returns ``return_fraction`` of its mass over a
    few Gyr; the cumulative returned fraction follows the standard
    log-linear fit R(t) = R_inf * ln(1 + t/tau) / ln(1 + t_max/tau).
    """

    return_fraction: float = 0.35
    tau_myr: float = 300.0
    t_max_myr: float = 1.0e4
    metal_yield: float = 0.01  # metals per unit returned mass

    def cumulative_return_fraction(self, age_myr) -> np.ndarray:
        t = np.clip(np.asarray(age_myr, dtype=np.float64), 0.0, self.t_max_myr)
        norm = np.log1p(self.t_max_myr / self.tau_myr)
        return self.return_fraction * np.log1p(t / self.tau_myr) / norm

    def mass_returned_between(
        self, stellar_mass_msun, age0_myr: float, age1_myr: float
    ) -> np.ndarray:
        """Gas mass returned between two ages (>= 0, monotone in age)."""
        f0 = self.cumulative_return_fraction(age0_myr)
        f1 = self.cumulative_return_fraction(age1_myr)
        return np.asarray(stellar_mass_msun) * np.maximum(f1 - f0, 0.0)

    def metal_mass_returned(self, mass_returned) -> np.ndarray:
        return np.asarray(mass_returned) * self.metal_yield
