"""Ensemble-planning tests (paper §VII implications)."""

import pytest

from repro.constants import FRONTIER_E_PARTICLES
from repro.perfmodel import (
    member_cost_node_hours,
    plan_ensemble,
)


class TestMemberCost:
    def test_flagship_cost_matches_campaign(self):
        cost = member_cost_node_hours(FRONTIER_E_PARTICLES, hydro=True)
        assert cost == pytest.approx(1.77e6, rel=0.05)

    def test_cost_scales_linearly_with_particles(self):
        c1 = member_cost_node_hours(FRONTIER_E_PARTICLES)
        c2 = member_cost_node_hours(FRONTIER_E_PARTICLES / 8)
        assert c1 / c2 == pytest.approx(8.0, rel=1e-6)

    def test_gravity_only_cheaper(self):
        ch = member_cost_node_hours(FRONTIER_E_PARTICLES, hydro=True)
        cg = member_cost_node_hours(FRONTIER_E_PARTICLES, hydro=False)
        assert 14.0 < ch / cg < 18.0


class TestPlanning:
    def test_budget_respected(self):
        budget = 5.0e6
        plan = plan_ensemble(budget, FRONTIER_E_PARTICLES / 8)
        assert plan.total_node_hours <= budget * 0.95 + 1e-6
        assert plan.n_members >= 1

    def test_more_members_at_lower_resolution(self):
        budget = 1.0e7
        big = plan_ensemble(budget, FRONTIER_E_PARTICLES)
        small = plan_ensemble(budget, FRONTIER_E_PARTICLES / 64)
        assert small.n_members > 8 * big.n_members

    def test_covariance_precision_improves_with_members(self):
        budget = 2.0e7
        plan = plan_ensemble(budget, FRONTIER_E_PARTICLES / 64)
        assert plan.n_members > 25
        few = plan_ensemble(budget, FRONTIER_E_PARTICLES / 8)
        assert plan.covariance_precision() < few.covariance_precision()

    def test_too_few_members_infinite_covariance_error(self):
        plan = plan_ensemble(2.0e6, FRONTIER_E_PARTICLES)
        assert plan.n_members <= 1
        assert plan.covariance_precision() == float("inf")

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            plan_ensemble(0.0, 1e12)
