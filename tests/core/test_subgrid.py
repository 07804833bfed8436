"""Subgrid astrophysics tests: cooling, SF, SN, AGN, stellar evolution."""

import numpy as np
import pytest

from repro.constants import YEAR_S, Z_SOLAR
from repro.core.sph.eos import IdealGasEOS
from repro.core.subgrid import (
    AGNModel,
    CoolingModel,
    StarFormationModel,
    SupernovaModel,
    bondi_rate,
    eddington_rate,
    kernel_weights_for_sources,
    lambda_cooling,
    uv_heating_rate,
)

MYR_S = 1.0e6 * YEAR_S


class TestCoolingFunction:
    def test_cold_gas_does_not_cool(self):
        lam = lambda_cooling(np.array([1.0e3]), np.array([0.0]))
        assert lam[0] < 1e-26

    def test_peak_near_1e5k(self):
        t = np.logspace(4, 8, 200)
        lam = lambda_cooling(t, np.zeros_like(t))
        tpeak = t[np.argmax(lam)]
        assert 5e4 < tpeak < 5e5

    def test_metals_enhance_cooling(self):
        t = np.array([2.0e5])
        lam0 = lambda_cooling(t, np.array([0.0]))
        lam1 = lambda_cooling(t, np.array([Z_SOLAR]))
        assert lam1[0] > 3.0 * lam0[0]

    def test_bremsstrahlung_tail(self):
        """At T >> 1e7, Lambda ~ sqrt(T)."""
        lam1 = lambda_cooling(np.array([1.0e8]), np.array([0.0]))
        lam2 = lambda_cooling(np.array([4.0e8]), np.array([0.0]))
        assert lam2[0] / lam1[0] == pytest.approx(2.0, rel=0.05)

    def test_uv_heating_peaks_midrange(self):
        assert uv_heating_rate(2.5) > uv_heating_rate(0.0)
        assert uv_heating_rate(2.5) > uv_heating_rate(8.0)


class TestCoolingModel:
    def setup_method(self):
        self.model = CoolingModel(enable_uv=False)
        self.eos = IdealGasEOS()

    def test_dense_hot_gas_cools(self):
        u = self.eos.internal_energy_from_temperature(1.0e6, mu=0.59)
        rho = np.array([1.0e14])  # overdense comoving Msun/Mpc^3
        rate = self.model.du_dt(np.array([u]), rho, np.array([0.0]))
        assert rate[0] < 0.0

    def test_denser_gas_cools_faster(self):
        u = self.eos.internal_energy_from_temperature(1.0e6, mu=0.59)
        r1 = self.model.du_dt(np.array([u]), np.array([1.0e13]), np.array([0.0]))
        r2 = self.model.du_dt(np.array([u]), np.array([1.0e14]), np.array([0.0]))
        # cooling per mass scales ~ n_H -> 10x denser cools ~10x faster
        assert r2[0] / r1[0] == pytest.approx(10.0, rel=0.05)

    def test_apply_respects_floor(self):
        u = np.array(
            [self.eos.internal_energy_from_temperature(5.0e4, mu=0.59)]
        )
        rho = np.array([1.0e16])  # very dense: cools hard
        out = self.model.apply(u, rho, np.array([0.01]), dt_seconds=1.0e16)
        t_out = self.eos.temperature(out, mu=0.59)
        assert t_out[0] >= self.model.t_floor * 0.999

    def test_apply_never_negative(self):
        u = np.array([1.0, 100.0, 1e4])
        rho = np.full(3, 1.0e15)
        out = self.model.apply(u, rho, np.zeros(3), dt_seconds=1e18)
        assert np.all(out > 0)

    def test_cooling_time_positive(self):
        u = self.eos.internal_energy_from_temperature(1e6, mu=0.59)
        tc = self.model.cooling_time(
            np.array([u]), np.array([1e14]), np.array([0.0])
        )
        assert 0 < tc[0] < np.inf


class TestStarFormation:
    def setup_method(self):
        self.sf = StarFormationModel()

    def test_cold_dense_gas_eligible(self):
        # rho ~ 1e7 * mean: n_H ~ 0.5 cm^-3 at a=1 for Planck
        rho_mean = 4.0e10
        rho = np.array([rho_mean * 1e7])
        eos = IdealGasEOS()
        u = np.array([eos.internal_energy_from_temperature(1.0e4, mu=0.6)])
        ok = self.sf.eligible(rho, u, a=1.0, rho_mean_comoving=rho_mean)
        assert ok[0]

    def test_hot_gas_not_eligible(self):
        rho_mean = 4.0e10
        rho = np.array([rho_mean * 1e7])
        eos = IdealGasEOS()
        u = np.array([eos.internal_energy_from_temperature(1.0e6, mu=0.6)])
        ok = self.sf.eligible(rho, u, a=1.0, rho_mean_comoving=rho_mean)
        assert not ok[0]

    def test_diffuse_gas_not_eligible(self):
        rho_mean = 4.0e10
        rho = np.array([rho_mean * 2.0])
        eos = IdealGasEOS()
        u = np.array([eos.internal_energy_from_temperature(1.0e4, mu=0.6)])
        assert not self.sf.eligible(rho, u, 1.0, rho_mean)[0]

    def test_probability_saturates(self):
        rho = np.array([1e18])
        p = self.sf.formation_probability(rho, dt_seconds=1e18, a=1.0)
        assert p[0] == pytest.approx(1.0, abs=1e-6)

    def test_probability_increases_with_dt(self):
        rho = np.array([1e17])
        p1 = self.sf.formation_probability(rho, 1e13, 1.0)
        p2 = self.sf.formation_probability(rho, 1e14, 1.0)
        assert p2[0] > p1[0]

    def test_stochastic_selection_rate(self):
        """Over many particles, the converted fraction matches p."""
        rng = np.random.default_rng(0)
        n = 20000
        rho_mean = 4.0e10
        rho = np.full(n, rho_mean * 1e7)
        eos = IdealGasEOS()
        u = np.full(n, eos.internal_energy_from_temperature(1e4, mu=0.6))
        dt = 3e14
        idx = self.sf.select_forming(rho, u, dt, 1.0, rho_mean, rng)
        p_expected = self.sf.formation_probability(rho[:1], dt, 1.0)[0]
        frac = len(idx) / n
        assert frac == pytest.approx(p_expected, rel=0.1)

    def test_dynamical_time_scaling(self):
        """t_dyn ~ rho^-1/2."""
        t1 = self.sf.dynamical_time(np.array([1e14]), 1.0)
        t2 = self.sf.dynamical_time(np.array([4e14]), 1.0)
        assert t1[0] / t2[0] == pytest.approx(2.0, rel=1e-6)


class TestSupernova:
    def test_due_after_delay(self):
        sn = SupernovaModel(delay_myr=10.0)
        ages = np.array([5.0, 10.0, 20.0])
        fired = np.array([False, False, True])
        due = sn.due(ages, fired)
        np.testing.assert_array_equal(due, [False, True, False])

    def test_energy_budget_magnitude(self):
        """1e51 erg per 100 Msun = 5.03e15 erg/g ~ 5.03e5 (km/s)^2."""
        sn = SupernovaModel()
        assert sn.energy_per_mass == pytest.approx(5.03e5, rel=0.01)

    def test_deposit_conserves_energy(self):
        sn = SupernovaModel()
        rng = np.random.default_rng(1)
        gas_mass = rng.uniform(1, 2, 20) * 1e8
        gas_u = np.full(20, 100.0)
        gas_z = np.zeros(20)
        star_mass = np.array([1e8])
        si, gi, w = (
            np.zeros(5, dtype=int),
            np.arange(5),
            np.full(5, 0.2),
        )
        new_u, new_z = sn.deposit(star_mass, w, gi, si, gas_mass, gas_u, gas_z)
        de = np.sum(gas_mass * (new_u - gas_u))
        assert de == pytest.approx(sn.energy_per_mass * star_mass[0], rel=1e-9)

    def test_deposit_metal_budget(self):
        sn = SupernovaModel(metal_yield=0.02)
        gas_mass = np.full(4, 1e9)
        gas_u = np.zeros(4)
        gas_z = np.zeros(4)
        star_mass = np.array([1e8])
        si, gi, w = np.zeros(4, dtype=int), np.arange(4), np.full(4, 0.25)
        _, new_z = sn.deposit(star_mass, w, gi, si, gas_mass, gas_u, gas_z)
        metal_mass = np.sum(gas_mass * new_z)
        assert metal_mass == pytest.approx(0.02 * 1e8, rel=1e-9)

    def test_kernel_weights_normalized_per_source(self):
        rng = np.random.default_rng(2)
        src = rng.uniform(0, 1, (3, 3))
        gas = rng.uniform(0, 1, (50, 3))
        si, gi, w = kernel_weights_for_sources(src, gas, radius=0.4, box=1.0)
        for s in range(3):
            assert w[si == s].sum() == pytest.approx(1.0, rel=1e-9)

    def test_isolated_source_couples_to_nearest(self):
        src = np.array([[0.5, 0.5, 0.5]])
        gas = np.array([[0.9, 0.9, 0.9], [0.52, 0.5, 0.5]])
        si, gi, w = kernel_weights_for_sources(src, gas, radius=0.001)
        assert len(gi) == 1 and gi[0] == 1
        assert w[0] == pytest.approx(1.0)


class TestAGN:
    def test_eddington_scales_linearly(self):
        e1 = eddington_rate(np.array([1e6]))
        e2 = eddington_rate(np.array([2e6]))
        assert e2[0] / e1[0] == pytest.approx(2.0, rel=1e-10)

    def test_bondi_scales_m_squared(self):
        b1 = bondi_rate(np.array([1e6]), np.array([1e13]), np.array([100.0]))
        b2 = bondi_rate(np.array([2e6]), np.array([1e13]), np.array([100.0]))
        assert b2[0] / b1[0] == pytest.approx(4.0, rel=1e-10)

    def test_accretion_eddington_capped(self):
        agn = AGNModel(bondi_boost=1e12)
        m = np.array([1e7])
        rate = agn.accretion_rate(m, np.array([1e16]), np.array([10.0]))
        assert rate[0] == pytest.approx(eddington_rate(m, 0.1)[0], rel=1e-10)

    def test_growth_positive(self):
        agn = AGNModel()
        m_new, dm = agn.grow(
            np.array([1e6]), np.array([1e14]), np.array([50.0]), 10 * MYR_S
        )
        assert dm[0] > 0
        assert m_new[0] == pytest.approx(1e6 + dm[0])

    def test_feedback_energy_magnitude(self):
        """eps_r*eps_f*c^2 = 0.005 c^2 ~ 4.5e6 (km/s)^2 per Msun accreted."""
        agn = AGNModel()
        e = agn.feedback_energy(np.array([1.0]))
        assert e[0] == pytest.approx(0.005 * (2.9979e5) ** 2, rel=1e-3)


class TestStellarEvolution:
    def test_snia_dtd_normalization(self):
        """Integrating the full DTD gives n_per_msun events per Msun."""
        from repro.core.subgrid import SNIaModel

        snia = SNIaModel()
        total = snia.events_between(1.0, 0.0, 1.0e9)
        assert total == pytest.approx(snia.n_per_msun, rel=1e-10)

    def test_snia_no_events_before_tmin(self):
        from repro.core.subgrid import SNIaModel

        snia = SNIaModel(t_min_myr=40.0)
        assert snia.events_between(1e8, 0.0, 39.0) == 0.0

    def test_snia_t_inverse_shape(self):
        """Equal logarithmic age intervals host equal event counts."""
        from repro.core.subgrid import SNIaModel

        snia = SNIaModel()
        n1 = snia.events_between(1e8, 40.0, 400.0)
        n2 = snia.events_between(1e8, 400.0, 4000.0)
        assert n1 == pytest.approx(n2, rel=1e-10)

    def test_snia_energy_and_iron(self):
        from repro.core.subgrid import SNIaModel

        snia = SNIaModel()
        du = snia.specific_energy(np.array([1.0]), np.array([1e6]))
        # 1e51 erg into 1e6 Msun: 1e51/(1e6*1.989e33)/1e10 (km/s)^2 ~ 50
        assert du[0] == pytest.approx(50.3, rel=0.02)
        assert snia.iron_mass(np.array([10.0]))[0] == pytest.approx(7.0)

    def test_agb_return_monotone_and_bounded(self):
        from repro.core.subgrid import AGBModel

        agb = AGBModel()
        ages = np.linspace(0, 1.0e4, 40)
        f = agb.cumulative_return_fraction(ages)
        assert np.all(np.diff(f) >= 0)
        assert f[0] == 0.0
        assert f[-1] == pytest.approx(agb.return_fraction, rel=1e-10)

    def test_agb_incremental_consistency(self):
        from repro.core.subgrid import AGBModel

        agb = AGBModel()
        m = 1e9
        total = agb.mass_returned_between(m, 0.0, 5000.0)
        split = (agb.mass_returned_between(m, 0.0, 1000.0)
                 + agb.mass_returned_between(m, 1000.0, 5000.0))
        assert split == pytest.approx(total, rel=1e-12)
