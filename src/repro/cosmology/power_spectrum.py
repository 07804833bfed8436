"""Linear matter power spectrum (Eisenstein & Hu 1998 transfer function).

Implements the zero-baryon-oscillation ("no-wiggle") and full EH98 fitting
forms for the CDM+baryon transfer function, a sigma8 normalization, and the
linear power spectrum P(k, a) used to seed initial conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .background import Cosmology


def _tophat_window(kr):
    """Fourier transform of the real-space spherical top-hat window."""
    kr = np.asarray(kr, dtype=np.float64)
    out = np.empty_like(kr)
    small = kr < 1.0e-4
    # series expansion avoids catastrophic cancellation at small kr
    out[small] = 1.0 - kr[small] ** 2 / 10.0
    big = ~small
    out[big] = 3.0 * (np.sin(kr[big]) - kr[big] * np.cos(kr[big])) / kr[big] ** 3
    return out


def eisenstein_hu_nowiggle(k, cosmo: Cosmology):
    """EH98 no-wiggle transfer function T(k); k in h/Mpc."""
    k = np.asarray(k, dtype=np.float64)
    h = cosmo.h
    om = cosmo.omega_m * h**2
    ob = cosmo.omega_b * h**2
    theta = cosmo.t_cmb / 2.7
    fb = cosmo.omega_b / cosmo.omega_m

    # sound horizon approximation (EH98 eq. 26), Mpc
    s = 44.5 * np.log(9.83 / om) / np.sqrt(1.0 + 10.0 * ob**0.75)
    # alpha_gamma (eq. 31)
    a_gamma = 1.0 - 0.328 * np.log(431.0 * om) * fb + 0.38 * np.log(22.3 * om) * fb**2

    k_mpc = k * h  # physical 1/Mpc
    gamma_eff = cosmo.omega_m * h * (
        a_gamma + (1.0 - a_gamma) / (1.0 + (0.43 * k_mpc * s) ** 4)
    )
    q = k * theta**2 / gamma_eff
    l0 = np.log(2.0 * np.e + 1.8 * q)
    c0 = 14.2 + 731.0 / (1.0 + 62.5 * q)
    return l0 / (l0 + c0 * q**2)


@dataclass
class LinearPower:
    """Linear matter power spectrum P(k, a) in (Mpc/h)^3, k in h/Mpc."""

    cosmo: Cosmology

    def __post_init__(self) -> None:
        self._norm = 1.0
        self._norm = (self.cosmo.sigma8 / self.sigma_r(8.0)) ** 2

    def transfer(self, k):
        return eisenstein_hu_nowiggle(k, self.cosmo)

    def _at_unit_growth(self, k):
        k = np.asarray(k, dtype=np.float64)
        return self._norm * k**self.cosmo.n_s * self.transfer(k) ** 2

    def __call__(self, k, a: float = 1.0):
        """P(k) at scale factor a, in (Mpc/h)^3."""
        return self._at_unit_growth(k) * self.cosmo.growth_factor(a) ** 2

    def sigma_r(self, r: float, a: float = 1.0) -> float:
        """RMS linear density fluctuation in spheres of radius r [Mpc/h]."""
        # the σ8 normalisation is the one adaptive quadrature left: imported
        # here so a process that builds no power spectrum never maps it
        from scipy import integrate

        # the growth factor is itself an integral: once, not per evaluation
        growth2 = self.cosmo.growth_factor(a) ** 2

        def integrand(lnk):
            k = np.exp(lnk)
            pk = self._at_unit_growth(k) * growth2
            return k**3 * pk * _tophat_window(k * r) ** 2 / (2.0 * np.pi**2)

        val, _ = integrate.quad(integrand, np.log(1e-5), np.log(1e3), limit=400)
        return float(np.sqrt(val))

    def sigma8_at(self, a: float = 1.0) -> float:
        return self.sigma_r(8.0, a)
