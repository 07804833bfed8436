"""Physical and code constants.

CRK-HACC-style unit conventions: comoving Mpc/h for lengths, Msun/h for
masses, km/s for peculiar velocities.  Internal gravitational dynamics use
the scale factor ``a`` as the time variable where convenient.
"""

from __future__ import annotations

import math

# --- fundamental constants (CGS) -----------------------------------------
G_CGS = 6.674e-8  # gravitational constant [cm^3 g^-1 s^-2]
K_BOLTZMANN = 1.380649e-16  # Boltzmann constant [erg/K]
M_PROTON = 1.67262192e-24  # proton mass [g]
M_ELECTRON = 9.1093837e-28  # electron mass [g]
SIGMA_THOMSON = 6.6524587e-25  # Thomson cross section [cm^2]
C_LIGHT = 2.99792458e10  # speed of light [cm/s]

# --- astrophysical unit conversions ---------------------------------------
MPC_CM = 3.0856775814913673e24  # 1 Mpc in cm
KM_CM = 1.0e5
MSUN_G = 1.98892e33  # solar mass in g
YEAR_S = 3.15576e7  # Julian year in seconds
GYR_S = 1.0e9 * YEAR_S

# --- derived, in "cosmology" units ----------------------------------------
# G in units of (Mpc (km/s)^2 / Msun): G * Msun / (Mpc * km^2/s^2)
G_COSMO = G_CGS * MSUN_G / (MPC_CM * KM_CM**2)  # ~4.30e-9 Mpc Msun^-1 (km/s)^2

# Hubble constant scale: H0 = 100 h km/s/Mpc in 1/s
H100_S = 100.0 * KM_CM / MPC_CM

# Critical density today in Msun h^2 / Mpc^3:
#   rho_crit = 3 H0^2 / (8 pi G)
RHO_CRIT_COSMO = 3.0 * 100.0**2 / (8.0 * math.pi * G_COSMO)  # ~2.775e11

# --- gas physics -----------------------------------------------------------
GAMMA_IDEAL = 5.0 / 3.0  # monatomic ideal gas adiabatic index
X_HYDROGEN = 0.76  # primordial hydrogen mass fraction

# Solar metallicity (mass fraction of metals), Asplund-like
Z_SOLAR = 0.0127

# --- paper anchor values (Frontier-E, Section VI) -------------------------
# These are the published measurements the performance model must reproduce.
FRONTIER_E_NODES = 9000
FRONTIER_E_PARTICLES = 2 * 12600**3  # ~4 trillion total (DM + baryon tracers)
FRONTIER_E_PM_STEPS = 625
FRONTIER_E_PEAK_PFLOPS = 513.1
FRONTIER_E_SUSTAINED_PFLOPS = 420.5
FRONTIER_E_PARTICLES_PER_SEC = 46.6e9
FRONTIER_E_WALLCLOCK_HOURS = 196.0
FRONTIER_E_SCIENCE_DATA_PB = 12.0
FRONTIER_E_CHECKPOINT_TB = (150.0, 180.0)  # per-step checkpoint size range
FRONTIER_E_TTS_FRACTIONS = {
    "short_range": 0.796,
    "analysis": 0.116,
    "io": 0.026,
    "long_range": 0.017,
    "tree_build": 0.017,
    "other": 0.028,
}
FRONTIER_E_GPU_RESIDENCY = 0.912  # fraction of runtime on GPU
FRONTIER_E_STRONG_EFFICIENCY = 0.92
FRONTIER_E_WEAK_EFFICIENCY = 0.95
FRONTIER_E_UTIL_HIGHZ_PEAK = 0.33
FRONTIER_E_UTIL_HIGHZ_SUSTAINED = 0.265
FRONTIER_E_UTIL_LOWZ_SUSTAINED = 0.28
