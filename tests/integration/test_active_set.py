"""Active-set subcycling: kick-split FFT counts, active/full pair
counts, mid-step rung promotion, and SubcycleStats bookkeeping (that
active and full evaluation end on the same bits is the golden class
``serial_cosmo_deep``, tests/integration/test_golden_hashes.py)."""

import numpy as np
import pytest

from repro.cosmology import PLANCK18, zeldovich_ics
from repro.core.particles import make_gas_dm_pair
from repro.core.simulation import Simulation, SimulationConfig


def _mixed_setup(max_rung=4, active_set=True, n_pm_steps=2, seed=9):
    """Deep-rung mixed DM+gas problem (clustered Zel'dovich ICs)."""
    box = 20.0
    ics = zeldovich_ics(6, box, PLANCK18, a_init=0.25, seed=seed)
    parts = make_gas_dm_pair(
        ics.positions, ics.velocities, ics.particle_mass,
        PLANCK18.omega_b, PLANCK18.omega_m, u_init=20.0, box=box,
    )
    cfg = SimulationConfig(
        box=box, pm_grid=12, a_init=0.25, a_final=0.35,
        n_pm_steps=n_pm_steps, cosmo=PLANCK18, max_rung=max_rung,
        active_set=active_set,
    )
    return Simulation(cfg, parts)


class TestKickSplitFFTCount:
    def test_one_fft_per_pm_step_steady_state(self):
        """The long-range PM solve runs once per step boundary: the closing
        solve of step k is reused as the opening of step k+1, so a run of
        n steps costs n+1 FFT evaluations instead of (2^depth + 1) * n."""
        sim = _mixed_setup(max_rung=3, n_pm_steps=3)
        records = sim.run()
        assert sim.pm.n_evaluations == len(records) + 1
        # first step pays opening + closing; every later step only closing
        assert records[0].n_fft == 2
        for rec in records[1:]:
            assert rec.n_fft == 1
        for rec in records:
            assert rec.n_fft <= 2
            assert rec.subcycle.n_fft == rec.n_fft

    def test_fft_count_independent_of_depth(self):
        shallow = _mixed_setup(max_rung=0, n_pm_steps=2)
        deep = _mixed_setup(max_rung=4, n_pm_steps=2)
        shallow.run()
        deep.run()
        assert deep.history[1].deepest_rung > shallow.history[1].deepest_rung
        assert deep.pm.n_evaluations == shallow.pm.n_evaluations == 3


class TestActiveEqualsFull:
    def test_active_streams_fewer_pairs(self):
        sa = _mixed_setup(active_set=True)
        sf = _mixed_setup(active_set=False)
        ra = sa.run()
        rf = sf.run()
        assert sum(r.subcycle.n_pairs for r in ra) < \
            sum(r.subcycle.n_pairs for r in rf)


class TestRungPromotion:
    def test_mid_step_promotion_deepens_rung(self):
        """A particle whose fresh timestep criterion stiffens at its own
        substep boundary is promoted to a deeper rung immediately."""
        sim = _mixed_setup(max_rung=2)
        n = len(sim.particles)
        calls = {"n": 0}

        def stub(dp_da, vsig, da):
            calls["n"] += 1
            r = np.zeros(n, dtype=np.int16)
            # opening assignment puts particle 0 on rung 1 (depth becomes
            # 2 via rung_margin); every later call — the promotion checks
            # at substep boundaries — demands rung 2 for it
            r[0] = 1 if calls["n"] == 1 else 2
            return r

        sim._assign_rungs = stub
        rec = sim.pm_step()
        assert rec.deepest_rung == 2  # margin depth hosted the promotion
        assert calls["n"] > 1  # the promotion branch actually ran
        assert sim.particles.rung[0] == 2

    def test_no_promotion_when_criteria_stable(self):
        sim = _mixed_setup(max_rung=2)
        n = len(sim.particles)

        def stub(dp_da, vsig, da):
            r = np.zeros(n, dtype=np.int16)
            r[0] = 1
            return r

        sim._assign_rungs = stub
        sim.pm_step()
        assert sim.particles.rung[0] == 1


class TestSubcycleStatsRecorded:
    def test_records_carry_subcycle_stats(self):
        sim = _mixed_setup(max_rung=4)
        records = sim.run()
        for rec in records:
            st = rec.subcycle
            assert st is not None
            assert st.n_particles == rec.n_particles
            assert st.n_substeps == rec.n_substeps
            assert st.n_force_evaluations == st.n_substeps + 1
            assert 0.0 < st.mean_active_fraction <= 1.0
        # deep rungs on a clustered problem: most substeps touch a subset
        deep = [r.subcycle for r in records if r.subcycle.deepest_rung >= 3]
        assert deep and all(st.mean_active_fraction < 1.0 for st in deep)

    def test_mean_active_fraction_is_one_without_rungs(self):
        sim = _mixed_setup(max_rung=0)
        records = sim.run()
        for rec in records:
            assert rec.subcycle.deepest_rung == 0
            assert rec.subcycle.mean_active_fraction == pytest.approx(1.0)
