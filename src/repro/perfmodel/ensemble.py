"""Ensemble campaign planning (paper §VII, Implications).

The paper argues the demonstrated throughput "advances the scale and
fidelity of ensemble campaigns — important for building emulators,
incorporating AI/ML approaches, calibrating models, and estimating
covariances."  This module turns that into arithmetic: given a node-hour
budget and the calibrated campaign model, how many ensemble members fit at
which resolution, and what covariance precision do they buy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import FRONTIER_E_PARTICLES
from .campaign import CampaignModel
from .machine import Machine, frontier


@dataclass
class EnsembleMember:
    """One simulation design in an ensemble campaign."""

    name: str
    particles: float
    box_gpc: float
    hydro: bool
    node_hours: float


def member_cost_node_hours(
    particles: float,
    hydro: bool = True,
    machine: Machine | None = None,
) -> float:
    """Node-hours for one member, scaled from the Frontier-E anchor.

    Solver cost scales ~linearly with particle count at fixed per-step
    depth (the weak-scaling regime); hydro carries the measured ~16x
    multiplier over gravity-only.
    """
    machine = machine or frontier()
    anchor = CampaignModel(machine=machine, hydro=hydro).run().node_hours
    return anchor * particles / FRONTIER_E_PARTICLES


@dataclass
class EnsemblePlan:
    """A budgeted ensemble design."""

    members: list
    total_node_hours: float
    budget_node_hours: float

    @property
    def n_members(self) -> int:
        return len(self.members)

    def covariance_precision(self, n_observables: int = 20) -> float:
        """Fractional covariance-matrix error ~ sqrt(2 / (N - p - 2)).

        The Taylor et al. scaling for sample covariances from N
        realizations of p observables; the reason ensembles need many
        members.
        """
        dof = self.n_members - n_observables - 2
        if dof <= 0:
            return float("inf")
        return float(np.sqrt(2.0 / dof))


def plan_ensemble(
    budget_node_hours: float,
    particles_per_member: float,
    hydro: bool = True,
    machine: Machine | None = None,
    reserve_fraction: float = 0.05,
) -> EnsemblePlan:
    """Fill a node-hour budget with identical ensemble members.

    ``reserve_fraction`` holds back machine time for failures and restarts
    (the MTTI reality of Section IV-B4).
    """
    if budget_node_hours <= 0:
        raise ValueError("budget must be positive")
    cost = member_cost_node_hours(particles_per_member, hydro, machine)
    usable = budget_node_hours * (1.0 - reserve_fraction)
    n = int(usable // cost)
    members = [
        EnsembleMember(
            name=f"member_{i:03d}",
            particles=particles_per_member,
            box_gpc=4.7 * (particles_per_member / FRONTIER_E_PARTICLES) ** (1 / 3),
            hydro=hydro,
            node_hours=cost,
        )
        for i in range(n)
    ]
    return EnsemblePlan(
        members=members,
        total_node_hours=n * cost,
        budget_node_hours=budget_node_hours,
    )
