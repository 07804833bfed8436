"""FLRW background cosmology.

Flat-universe expansion history with matter, radiation, and a cosmological
constant (or w0/wa dark energy).  Provides the mappings between scale factor,
redshift, cosmic time, and comoving distance, plus the linear growth factor
used by the initial-condition generator and the power-spectrum growth tests.
Every integral is one fixed Gauss-Legendre rule evaluated over arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import GYR_S, H100_S, RHO_CRIT_COSMO

# 64-node Gauss-Legendre rule mapped from [-1, 1] to t in [0, 1]
_T, _W = np.polynomial.legendre.leggauss(64)
_T, _W = 0.5 * (_T + 1.0), 0.5 * _W


def _integrate_from_zero(f, upper):
    """∫_0^u f(x) dx for every ``u`` in ``upper`` (any shape).

    ``x = u t^2`` turns the ``x^{1/2}`` and ``x^{3/2}`` behaviour of the
    scale-factor integrands at 0 into polynomials in ``t`` (exact in
    Einstein-de Sitter), so the fixed rule matches a tight adaptive
    quadrature to ~1e-15.  ``f`` maps an array of ``x`` to its values."""
    u = np.asarray(upper, dtype=np.float64)[..., None]
    x = u * _T**2
    # x = 0 only where u = 0, whose terms the factor 2ut zeroes
    fx = f(np.where(x > 0.0, x, 1.0))
    return np.sum(fx * (2.0 * u * _T) * _W, axis=-1)


@dataclass(frozen=True)
class Cosmology:
    """A flat FLRW cosmology.

    Parameters mirror the standard CRK-HACC/Planck-like parameterization.
    ``omega_m`` includes baryons; flatness fixes ``omega_lambda``.
    """

    omega_m: float = 0.31
    omega_b: float = 0.049
    h: float = 0.6766
    sigma8: float = 0.8102
    n_s: float = 0.9665
    omega_r: float = 8.6e-5
    w0: float = -1.0
    wa: float = 0.0
    t_cmb: float = 2.7255

    omega_lambda: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "omega_lambda", 1.0 - self.omega_m - self.omega_r
        )

    # --- expansion ---------------------------------------------------------
    def e_of_a(self, a):
        """Dimensionless Hubble rate E(a) = H(a)/H0."""
        a = np.asarray(a, dtype=np.float64)
        de = self.omega_lambda * a ** (-3.0 * (1.0 + self.w0 + self.wa)) * np.exp(
            -3.0 * self.wa * (1.0 - a)
        )
        return np.sqrt(self.omega_m / a**3 + self.omega_r / a**4 + de)

    def hubble(self, a):
        """H(a) in km/s/Mpc."""
        return 100.0 * self.h * self.e_of_a(a)

    def omega_m_of_a(self, a):
        """Matter density parameter at scale factor a."""
        a = np.asarray(a, dtype=np.float64)
        return self.omega_m / a**3 / self.e_of_a(a) ** 2

    @property
    def rho_mean0(self) -> float:
        """Mean comoving matter density in Msun h^2/Mpc^3."""
        return self.omega_m * RHO_CRIT_COSMO

    # --- time --------------------------------------------------------------
    def age(self, a=1.0):
        """Cosmic time at scale factor ``a`` in Gyr."""
        h0 = self.h * H100_S  # H0 in 1/s
        val = _integrate_from_zero(lambda x: 1.0 / (x * self.e_of_a(x)), a)
        return _like_input(a, val / h0 / GYR_S)

    def lookback_time(self, z):
        """Lookback time to redshift z in Gyr."""
        return _like_input(z, self.age(1.0) - self.age(self.a_of_z(z)))

    # --- distances -----------------------------------------------------------
    def comoving_distance(self, z):
        """Comoving distance to redshift z in Mpc/h."""
        val = _integrate_from_zero(
            lambda zz: 1.0 / self.e_of_a(1.0 / (1.0 + zz)), z
        )
        return _like_input(z, val * 2997.92458)  # c/H0 in Mpc/h (c/100 km/s)

    # --- growth --------------------------------------------------------------
    def growth_factor(self, a, normalized: bool = True):
        """Linear growth factor D(a) (normalized to D(1)=1 by default).

        Uses the standard integral solution for a flat universe with
        pressureless matter and smooth dark energy:
            D(a) ∝ H(a) ∫_0^a da' / (a' E(a'))^3
        """
        def unnormalized(ai):
            val = _integrate_from_zero(
                lambda x: 1.0 / (x * self.e_of_a(x)) ** 3, ai
            )
            return 2.5 * self.omega_m * self.e_of_a(ai) * val

        out = unnormalized(a)
        if normalized:
            out = out / unnormalized(1.0)
        return _like_input(a, out)

    def growth_rate(self, a):
        """Logarithmic growth rate f = dlnD/dlna (finite difference)."""
        eps = 1.0e-4
        av = np.asarray(a, dtype=np.float64)
        d_hi = self.growth_factor(av * (1 + eps), normalized=False)
        d_lo = self.growth_factor(av * (1 - eps), normalized=False)
        return _like_input(a, (np.log(d_hi) - np.log(d_lo)) / (2.0 * eps))

    # --- conversions -----------------------------------------------------------
    @staticmethod
    def a_of_z(z):
        return 1.0 / (1.0 + np.asarray(z, dtype=np.float64))


def _like_input(arg, out):
    """A Python float for a scalar argument, else the array."""
    return float(out) if np.isscalar(arg) else out


PLANCK18 = Cosmology()
"""Planck-2018-like fiducial cosmology (the Frontier-E family of parameters)."""
