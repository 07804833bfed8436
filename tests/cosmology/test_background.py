"""FLRW background tests against known LCDM values."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import repro
from repro.constants import GYR_S, H100_S
from repro.cosmology import PLANCK18, Cosmology

EDS = Cosmology(omega_m=1.0, omega_b=0.05, omega_r=0.0)
W0WA = Cosmology(w0=-0.9, wa=0.2)


class TestExpansion:
    def test_e_of_a_today_is_one(self):
        assert PLANCK18.e_of_a(1.0) == pytest.approx(1.0, rel=1e-10)

    def test_flatness(self):
        c = PLANCK18
        assert c.omega_m + c.omega_r + c.omega_lambda == pytest.approx(1.0)

    def test_matter_dominates_early(self):
        # at a=0.01 (z=99) matter term dominates over lambda
        c = PLANCK18
        assert c.omega_m_of_a(0.01) > 0.99 * (
            1.0 - c.omega_r / 0.01 / (c.omega_m + c.omega_r / 0.01)
        )

    def test_hubble_today(self):
        assert PLANCK18.hubble(1.0) == pytest.approx(67.66, rel=1e-3)

    def test_eds_limit(self):
        """Einstein-de Sitter: E(a) = a^-1.5 exactly."""
        eds = Cosmology(omega_m=1.0, omega_b=0.05, omega_r=0.0)
        a = np.array([0.1, 0.5, 1.0])
        np.testing.assert_allclose(eds.e_of_a(a), a**-1.5, rtol=1e-12)


class TestTime:
    def test_age_of_universe(self):
        """Planck18 age ~ 13.8 Gyr."""
        assert PLANCK18.age(1.0) == pytest.approx(13.8, rel=0.02)

    def test_age_monotonic(self):
        ages = PLANCK18.age(np.array([0.1, 0.5, 1.0]))
        assert np.all(np.diff(ages) > 0)

    def test_eds_age(self):
        """EdS: t(a) = (2/3) a^1.5 / H0."""
        eds = Cosmology(omega_m=1.0, omega_b=0.05, omega_r=0.0, h=0.7)
        t1 = eds.age(1.0)
        # 2/(3 H0) in Gyr: H0 = 70 km/s/Mpc
        expected = 2.0 / (3.0 * 0.7 * H100_S) / GYR_S
        assert t1 == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("c", [PLANCK18, EDS], ids=["planck18", "eds"])
    def test_age_zero_at_a_zero(self, c):
        assert c.age(0.0) == 0.0
        np.testing.assert_array_equal(c.age(np.array([0.0, 0.5]))[0], 0.0)

    def test_lookback_time_zero_at_z0(self):
        assert PLANCK18.lookback_time(0.0) == pytest.approx(0.0, abs=1e-8)


class TestDistances:
    def test_comoving_distance_low_z_hubble_law(self):
        """D_C(z) -> (c/H0) z for small z (in Mpc/h units, c/H0=2997.9)."""
        z = 0.01
        d = PLANCK18.comoving_distance(z)
        assert d == pytest.approx(2997.92458 * z, rel=0.01)

    def test_comoving_distance_monotonic(self):
        d = PLANCK18.comoving_distance(np.array([0.5, 1.0, 2.0]))
        assert np.all(np.diff(d) > 0)


class TestGrowth:
    def test_normalized_today(self):
        assert PLANCK18.growth_factor(1.0) == pytest.approx(1.0, rel=1e-10)

    def test_eds_growth_is_a(self):
        """EdS growth factor D(a) = a exactly."""
        eds = Cosmology(omega_m=1.0, omega_b=0.05, omega_r=0.0)
        a = np.array([0.1, 0.3, 0.7])
        np.testing.assert_allclose(eds.growth_factor(a), a, rtol=1e-12)

    def test_lcdm_growth_suppressed_late(self):
        """LCDM growth lags EdS at late times: D(a) < a D(1)/1 for a<1... i.e.
        D(0.5)/0.5 > D(1)/1 is false; normalized D(0.5) > 0.5."""
        d_half = PLANCK18.growth_factor(0.5)
        assert 0.5 < d_half < 0.7

    def test_growth_rate_eds_is_one(self):
        eds = Cosmology(omega_m=1.0, omega_b=0.05, omega_r=0.0)
        assert eds.growth_rate(0.5) == pytest.approx(1.0, rel=1e-3)

    def test_growth_rate_lcdm_today(self):
        """f(1) ~ Omega_m^0.55 ~ 0.52 for Planck18."""
        f = PLANCK18.growth_rate(1.0)
        assert f == pytest.approx(PLANCK18.omega_m**0.55, rel=0.02)


class TestConversions:
    def test_rho_mean(self):
        assert PLANCK18.rho_mean0 == pytest.approx(
            PLANCK18.omega_m * 2.775e11, rel=1e-3
        )


def _tight(f, upper):
    """Adaptive reference quadrature at a tolerance far below the rule's."""
    return integrate.quad(f, 0.0, upper, epsabs=0.0, epsrel=1e-13,
                          limit=500)[0]


def _tight_growth(c, a):
    """Unnormalised D(a) by the tight reference quadrature."""
    val = _tight(lambda x: 1.0 / (x * c.e_of_a(x)) ** 3, a)
    return 2.5 * c.omega_m * c.e_of_a(a) * val


_COSMOS = pytest.mark.parametrize("c", [PLANCK18, EDS, W0WA],
                                  ids=["planck18", "eds", "w0wa"])
_SCALE_FACTORS = pytest.mark.parametrize("a", [1e-3, 0.05, 0.2, 0.5, 1.0])


class TestQuadratureContract:
    """The fixed Gauss-Legendre rule against a tight adaptive quadrature of
    the same integrals: 1e-12 relative (1e-10 for the finite-difference
    growth rate, which divides the rule's rounding by 2e-4)."""

    @_COSMOS
    @_SCALE_FACTORS
    def test_age(self, c, a):
        ref = _tight(lambda x: 1.0 / (x * c.e_of_a(x)), a)
        ref = ref / (c.h * H100_S) / GYR_S
        assert c.age(a) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @_COSMOS
    @_SCALE_FACTORS
    def test_growth_factor(self, c, a):
        ref = _tight_growth(c, a) / _tight_growth(c, 1.0)
        assert c.growth_factor(a) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @_COSMOS
    @_SCALE_FACTORS
    def test_growth_rate(self, c, a):
        eps = 1.0e-4
        ref = (np.log(_tight_growth(c, a * (1 + eps)))
               - np.log(_tight_growth(c, a * (1 - eps)))) / (2.0 * eps)
        assert c.growth_rate(a) == pytest.approx(ref, rel=1e-10, abs=0.0)

    @_COSMOS
    @pytest.mark.parametrize("z", [0.01, 0.5, 2.0, 10.0])
    def test_comoving_distance(self, c, z):
        ref = 2997.92458 * _tight(lambda zz: 1.0 / c.e_of_a(1.0 / (1.0 + zz)), z)
        assert c.comoving_distance(z) == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestScalarAndArray:
    """A scalar argument gives a float holding the bits of its element in an
    array argument: subgrid reads ages in both forms."""

    @pytest.mark.parametrize(
        "name", ["age", "growth_factor", "growth_rate", "comoving_distance",
                 "lookback_time"]
    )
    def test_scalar_is_array_element(self, name):
        f = getattr(PLANCK18, name)
        args = [0.05, 0.2, 0.37, 0.5, 1.0]
        arr = f(np.array(args))
        for i, x in enumerate(args):
            got = f(x)
            assert type(got) is float
            assert got == arr[i]
            assert f(np.array([x, 0.9]))[0] == got


def test_no_adaptive_quadrature_without_a_power_spectrum():
    """The drivers, analysis and campaign never map scipy.integrate until a
    power spectrum is normalised (the one adaptive quadrature left)."""
    script = textwrap.dedent("""
        import sys
        import numpy as np
        import repro.analysis, repro.campaign, repro.cosmology
        import repro.parallel.distributed_sim
        from repro.core.particles import Particles, Species
        from repro.core.simulation import Simulation, SimulationConfig
        n, box = 6, 1.0
        c = (np.arange(n) + 0.5) * box / n
        pos = np.stack(np.meshgrid(c, c, c, indexing="ij"), -1).reshape(-1, 3)
        parts = Particles(pos=pos, vel=np.zeros_like(pos),
                          mass=np.full(len(pos), (box / n) ** 3),
                          species=np.full(len(pos), int(Species.GAS),
                                          dtype=np.int8),
                          u=np.full(len(pos), 1e-4))
        cfg = SimulationConfig(box=box, pm_grid=8, a_init=0.0, a_final=0.02,
                               n_pm_steps=1, gravity=False, hydro=True,
                               static=True, max_rung=2)
        Simulation(cfg, parts).pm_step()
        assert "scipy.integrate" not in sys.modules, "mapped before P(k)"
        from repro.cosmology import PLANCK18, LinearPower
        LinearPower(PLANCK18)
        assert "scipy.integrate" in sys.modules, "P(k) did not map it"
    """)
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", script], check=True, env=env)
