"""Hierarchical timestep tests: rung assignment, schedules, integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timestep import (
    HierarchicalIntegrator,
    active_mask,
    assign_rungs,
    deepest_rung,
    rung_dt,
    timestep_criteria,
)


class TestCriteria:
    def test_cfl_limits_fast_gas(self):
        accel = np.zeros((3, 3))
        h = np.array([1.0, 1.0, 1.0])
        vsig = np.array([1.0, 10.0, 100.0])
        dt = timestep_criteria(accel, h, vsig, cfl=0.25)
        np.testing.assert_allclose(dt, 0.25 / vsig * h)

    def test_acceleration_criterion(self):
        accel = np.array([[4.0, 0.0, 0.0]])
        h = np.array([2.0])
        vsig = np.zeros(1)
        dt = timestep_criteria(accel, h, vsig, eta_accel=0.025)
        assert dt[0] == pytest.approx(np.sqrt(2 * 0.025 * 2.0 / 4.0))

    def test_cooling_time_limits(self):
        accel = np.zeros((1, 3))
        dt = timestep_criteria(
            accel,
            np.array([1.0]),
            np.zeros(1),
            u=np.array([100.0]),
            du_dt=np.array([-1000.0]),
            cooling_factor=0.25,
        )
        assert dt[0] == pytest.approx(0.025)

    def test_dt_max_cap(self):
        accel = np.zeros((1, 3))
        dt = timestep_criteria(accel, np.array([1.0]), np.zeros(1), dt_max=0.5)
        assert dt[0] == 0.5


class TestRungs:
    def test_rung_zero_when_dt_sufficient(self):
        rungs = assign_rungs(np.array([1.0, 2.0]), dt_pm=1.0)
        np.testing.assert_array_equal(rungs, [0, 0])

    def test_power_of_two_rungs(self):
        dt_req = np.array([1.0, 0.5, 0.49, 0.25, 0.13, 0.01])
        rungs = assign_rungs(dt_req, dt_pm=1.0)
        np.testing.assert_array_equal(rungs, [0, 1, 2, 2, 3, 7])

    def test_rung_dt_satisfies_requirement(self):
        rng = np.random.default_rng(0)
        dt_req = rng.uniform(0.001, 2.0, 100)
        rungs = assign_rungs(dt_req, dt_pm=1.0)
        dts = rung_dt(rungs, 1.0)
        assert np.all(dts <= dt_req + 1e-12)

    def test_max_rung_clip(self):
        rungs = assign_rungs(np.array([1e-12]), dt_pm=1.0, max_rung=5)
        assert rungs[0] == 5

    @given(dt=st.floats(1e-6, 10.0), dt_pm=st.floats(0.1, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_property_rung_minimal(self, dt, dt_pm):
        """Assigned rung is the *smallest* satisfying dt_pm/2^r <= dt."""
        r = int(assign_rungs(np.array([dt]), dt_pm, max_rung=40)[0])
        assert dt_pm / 2**r <= dt + 1e-12 * dt_pm or r == 40
        if r > 0:
            assert dt_pm / 2 ** (r - 1) > dt


class TestSchedule:
    def test_rung0_active_only_at_start(self):
        rungs = np.array([0])
        depth = 3
        actives = [bool(active_mask(rungs, s, depth)[0]) for s in range(8)]
        assert actives == [True] + [False] * 7

    def test_deepest_rung_active_every_substep(self):
        rungs = np.array([3])
        actives = [bool(active_mask(rungs, s, 3)[0]) for s in range(8)]
        assert all(actives)

    def test_kick_counts_per_pm_step(self):
        """Rung r closes exactly 2^r substeps over one PM interval."""
        depth = 4
        for r in range(depth + 1):
            rungs = np.array([r])
            closes = sum(
                bool(active_mask(rungs, s + 1, depth)[0]) for s in range(2**depth)
            )
            assert closes == 2**r

    def test_deepest_rung_helper(self):
        assert deepest_rung(np.array([0, 2, 1])) == 2
        assert deepest_rung(np.array([], dtype=int)) == 0


class TestHierarchicalIntegrator:
    """The rung loop driven through a toy in-memory domain."""

    def test_constant_acceleration_all_rungs_agree(self, toy_domain):
        """A uniform constant force field integrates exactly regardless of
        rung assignment (leapfrog is exact for constant a)."""
        n = 8
        accel_const = np.tile(np.array([1.0, -2.0, 0.5]), (n, 1))

        results = []
        for rungs in (np.zeros(n, dtype=int), np.full(n, 3, dtype=int)):
            dom = toy_domain(np.zeros((n, 3)), np.zeros((n, 3)), rungs,
                             force=lambda pos: accel_const)
            HierarchicalIntegrator(dt_pm=1.0).run(dom, 0.0)
            results.append((dom.pos, dom.vel))
        np.testing.assert_allclose(results[0][0], results[1][0], rtol=1e-12)
        np.testing.assert_allclose(results[0][1], results[1][1], rtol=1e-12)
        # analytic: x = a t^2 / 2, v = a t
        np.testing.assert_allclose(results[0][1], accel_const, rtol=1e-12)

    def test_sho_energy_stable_on_fine_rung(self, toy_domain):
        """Harmonic oscillator: deep rungs integrate accurately."""
        omega = 2.0 * np.pi
        dom = toy_domain([[1.0, 0.0, 0.0]], np.zeros((1, 3)), [6],
                         force=lambda pos: -(omega**2) * pos)
        integ = HierarchicalIntegrator(dt_pm=0.5)
        for a0 in (0.0, 0.5):  # one full period
            integ.run(dom, a0)
        assert dom.pos[0, 0] == pytest.approx(1.0, abs=5e-3)
        assert dom.vel[0, 0] == pytest.approx(0.0, abs=5e-2)

    def test_mixed_rungs_converge_to_fine_answer(self, toy_domain):
        """Two-particle system with different rungs stays consistent."""
        dom = toy_domain([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                         np.zeros((2, 3)), [2, 5], force=lambda pos: -pos)
        HierarchicalIntegrator(dt_pm=0.2).run(dom, 0.0)
        # both approximate cos(omega t); deep rung closer
        exact = np.cos(0.2)
        assert dom.pos[0, 0] == pytest.approx(exact, abs=1e-3)
        assert dom.pos[1, 0] == pytest.approx(exact, abs=1e-5)

    def test_stats_bookkeeping(self, toy_domain):
        dom = toy_domain(np.zeros((4, 3)), np.zeros((4, 3)), [0, 1, 2, 2])
        stats = HierarchicalIntegrator(dt_pm=1.0).run(dom, 0.0)
        assert stats.n_substeps == 4
        assert stats.deepest_rung == 2
        # opening eval (all 4 active at substep 0) + closings: rung0 once,
        # rung1 twice, rung2 4 times each
        assert stats.n_force_evaluations == 5
        assert stats.n_active_total == 4 + (1 + 2 + 4 + 4)
        assert stats.n_particles == 4
        assert stats.mean_active_fraction == pytest.approx(15 / (5 * 4))
        # the domain saw one closing evaluation per substep, labelled with
        # its synchronization level, the last one flagged
        evals = [e for e in dom.log if e[0] == "short_range"]
        assert [e[2] for e in evals] == [2, 1, 2, 0]
        assert [e[3] for e in evals] == [False, False, False, True]
        assert evals[-1][1] is None  # the final substep closes everyone

    def test_closing_kick_counts_per_rung(self, toy_domain):
        """A rung-r row is a sink of exactly 2^r closing evaluations."""
        rungs = np.array([0, 1, 2, 3, 3])
        dom = toy_domain(np.zeros((5, 3)), np.zeros((5, 3)), rungs)
        HierarchicalIntegrator(dt_pm=1.0).run(dom, 0.0)
        closes = np.zeros(5, dtype=int)
        for e in dom.log:
            if e[0] == "short_range":
                closes[np.arange(5) if e[1] is None else e[1]] += 1
        np.testing.assert_array_equal(closes, 2**rungs)

    def test_closing_set_is_next_opening_set(self, toy_domain):
        """Between the closing evaluation of substep s and the drift of
        s+1 a row is kicked twice (closing + opening half-kick, one full
        step of its rung) or not at all — and the kicked rows are exactly
        the evaluation's sinks, so every kick used fresh forces."""
        rungs = np.array([0, 1, 2, 2, 1])
        unit = np.tile([1.0, 0.0, 0.0], (5, 1))
        dom = toy_domain(np.zeros((5, 3)), np.zeros((5, 3)), rungs,
                         force=lambda pos: unit)
        HierarchicalIntegrator(dt_pm=1.0).run(dom, 0.0)
        steps = [e for e in dom.log if e[0] in ("drift", "short_range")]
        dts = rung_dt(rungs, 1.0)
        n_checked = 0
        for ev, nxt in zip(steps, steps[1:]):
            if ev[0] != "short_range":
                continue
            kicked = nxt[-1][:, 0] - ev[-1][:, 0]
            expect = np.zeros(5)
            expect[ev[1]] = dts[ev[1]]
            np.testing.assert_allclose(kicked, expect, rtol=0, atol=1e-15)
            n_checked += 1
        assert n_checked == 3  # every substep boundary inside the interval

    def test_full_evaluation_mode_has_no_sinks(self, toy_domain):
        dom = toy_domain(np.zeros((3, 3)), np.zeros((3, 3)), [0, 1, 2])
        stats = HierarchicalIntegrator(1.0, active_set=False).run(dom, 0.0)
        assert all(e[1] is None for e in dom.log if e[0] == "short_range")
        assert stats.n_active_total == 3 + (1 + 2 + 4)  # schedule unchanged

    def test_promotion_only_at_own_boundary(self, toy_domain):
        """Every promotion check demands rung 2 for all rows, but a row
        only moves at a boundary it closes: the rung-0 row's own boundary
        is the interval end (never promoted), the rung-1 row moves at the
        end of substep 1 and from then on closes every substep."""
        dom = toy_domain(np.zeros((3, 3)), np.zeros((3, 3)), [0, 1, 2],
                         rungs_later=[2, 2, 2])
        HierarchicalIntegrator(1.0, promote=True).run(dom, 0.0)
        assert dom.n_assign_calls == 1 + 3  # no check after the last substep
        np.testing.assert_array_equal(dom.final_rungs, [0, 2, 2])
        sinks = [e[1] for e in dom.log if e[0] == "short_range"]
        np.testing.assert_array_equal(sinks[0], [2])
        np.testing.assert_array_equal(sinks[1], [1, 2])
        np.testing.assert_array_equal(sinks[2], [1, 2])  # promoted row
        assert sinks[3] is None

        frozen = toy_domain(np.zeros((3, 3)), np.zeros((3, 3)), [0, 1, 2],
                            rungs_later=[2, 2, 2])
        HierarchicalIntegrator(1.0).run(frozen, 0.0)
        assert frozen.n_assign_calls == 1
        np.testing.assert_array_equal(frozen.final_rungs, [0, 1, 2])

    def test_margin_depth_hosts_promotion(self, toy_domain):
        """A domain whose depth exceeds the assigned rungs gives a row
        room to move deeper than anything assigned at the opening."""
        dom = toy_domain(np.zeros((2, 3)), np.zeros((2, 3)), [0, 1],
                         rungs_later=[0, 2], margin=1)
        stats = HierarchicalIntegrator(1.0, promote=True).run(dom, 0.0)
        assert stats.deepest_rung == 2 and stats.n_substeps == 4
        np.testing.assert_array_equal(dom.final_rungs, [0, 2])

    def test_phase_boundaries_are_checked(self, toy_domain):
        dom = toy_domain(np.zeros((1, 3)), np.zeros((1, 3)), [1])
        HierarchicalIntegrator(1.0).run(dom, 0.0)
        kinds = [e[0] if e[0] != "check" else e[1] for e in dom.log]
        assert kinds == ["opening half-kick", "drift", "short_range",
                         "drift", "short_range", "subcycle loop"]

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            HierarchicalIntegrator(dt_pm=0.0)

    def test_custom_drift_periodic_wrap(self, toy_domain):
        dom = toy_domain([[0.9, 0.5, 0.5]], [[0.5, 0.0, 0.0]], [0], wrap=1.0)
        HierarchicalIntegrator(dt_pm=1.0).run(dom, 0.0)
        assert 0.0 <= dom.pos[0, 0] < 1.0
        assert dom.pos[0, 0] == pytest.approx(0.4, abs=1e-12)
