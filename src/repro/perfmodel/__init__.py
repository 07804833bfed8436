"""Calibrated performance models regenerating the paper's evaluation."""

from .campaign import (
    GRAVITY_ONLY_FACTORS,
    CampaignModel,
    CampaignResult,
    CampaignStep,
    hydro_vs_gravity_cost_ratio,
)
from .ensemble import (
    EnsembleMember,
    EnsemblePlan,
    member_cost_node_hours,
    plan_ensemble,
)
from .landscape import (
    FRONTIER_E,
    GRAVITY_ONLY_SIMULATIONS,
    HYDRO_SIMULATIONS,
    SimulationEntry,
    capability_leap_factor,
    landscape_catalog,
    matching_resolution_elements,
)
from .machine import Machine, frontier
from .portability import performance_portability, solver_portability
from .scaling import (
    ScalingPoint,
    figure4_table,
    machine_flop_rates,
    strong_efficiency,
    strong_scaling_time,
    weak_efficiency,
    weak_scaling_rate,
)
from .workload import (
    clustering_amplitude,
    data_imbalance,
    machine_straggler_factor,
    rank_utilization_samples,
    rank_work_sigma,
    subcycle_depth,
    work_boost,
)

__all__ = [
    "FRONTIER_E",
    "GRAVITY_ONLY_FACTORS",
    "GRAVITY_ONLY_SIMULATIONS",
    "HYDRO_SIMULATIONS",
    "CampaignModel",
    "CampaignResult",
    "CampaignStep",
    "EnsembleMember",
    "EnsemblePlan",
    "Machine",
    "ScalingPoint",
    "SimulationEntry",
    "capability_leap_factor",
    "clustering_amplitude",
    "data_imbalance",
    "figure4_table",
    "frontier",
    "hydro_vs_gravity_cost_ratio",
    "landscape_catalog",
    "machine_flop_rates",
    "machine_straggler_factor",
    "member_cost_node_hours",
    "matching_resolution_elements",
    "performance_portability",
    "plan_ensemble",
    "rank_utilization_samples",
    "solver_portability",
    "rank_work_sigma",
    "strong_efficiency",
    "strong_scaling_time",
    "subcycle_depth",
    "weak_efficiency",
    "weak_scaling_rate",
    "work_boost",
]
