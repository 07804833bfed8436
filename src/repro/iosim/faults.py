"""Machine interruption (MTTI) model and checkpoint/restart accounting.

Exascale systems interrupt every few hours (paper Section IV-B4, citing
Kokolis et al. 2024), which is why Frontier-E checkpointed *every* PM step.
This module simulates a run under exponential interruptions and quantifies
the trade between checkpoint cost and lost work, including the classic
Young/Daly optimal-interval comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class FaultRunStats:
    """Outcome of a simulated run under interruptions."""

    wallclock_hours: float
    work_hours: float
    checkpoint_hours: float
    lost_hours: float
    restart_hours: float
    n_interrupts: int

    @property
    def efficiency(self) -> float:
        """Useful work / wallclock."""
        if self.wallclock_hours == 0:
            return 1.0
        return self.work_hours / self.wallclock_hours


def young_daly_interval(checkpoint_cost_hours: float, mtti_hours: float) -> float:
    """Young/Daly optimal checkpoint interval sqrt(2 C M)."""
    if checkpoint_cost_hours < 0 or mtti_hours <= 0:
        raise ValueError("need checkpoint cost >= 0 and MTTI > 0")
    return math.sqrt(2.0 * checkpoint_cost_hours * mtti_hours)


def interarrival_gaps(mtti: float, rng: np.random.Generator):
    """Endless exponential gaps between interruptions, mean ``mtti`` (in
    the caller's unit): the one MTTI draw, ``rng.exponential(mtti)`` per
    ``next()``, shared by the step-unit and the hour-unit model below."""
    while True:
        yield float(rng.exponential(mtti))


def interruption_steps(mtti_steps: float, n_steps: int,
                       rng: np.random.Generator | None = None) -> list[int]:
    """Exponential interruption arrivals, quantized to PM-step indices.

    The step-unit analog of the hour-unit model above: interarrival
    times are drawn from ``Exp(mtti_steps)`` and floored to the step
    they land in, truncated at ``n_steps``.  This is what
    :meth:`repro.resilience.faults.FaultPlan.from_mtti` turns into live
    rank kills against the distributed driver.
    """
    if mtti_steps <= 0:
        raise ValueError("MTTI must be positive")
    rng = rng or np.random.default_rng(0)
    steps = []
    t = 0.0
    for gap in interarrival_gaps(mtti_steps, rng):
        t += gap
        if t >= n_steps:
            return steps
        steps.append(int(t))


def simulate_run_with_faults(
    total_work_hours: float,
    checkpoint_interval_hours: float,
    checkpoint_cost_hours: float,
    mtti_hours: float,
    restart_cost_hours: float = 0.25,
    rng: np.random.Generator | None = None,
    max_wallclock_hours: float = 1.0e5,
) -> FaultRunStats:
    """Simulate completing ``total_work_hours`` of compute with periodic
    checkpoints under exponential interruptions.

    Work lost at an interruption is everything since the last completed
    checkpoint.  Returns aggregate accounting; raises if the run cannot
    finish within ``max_wallclock_hours`` (checkpoint interval >= MTTI can
    make progress impossible).
    """
    rng = rng or np.random.default_rng(0)
    if checkpoint_interval_hours <= 0:
        raise ValueError("checkpoint interval must be positive")

    clock = 0.0
    done = 0.0  # durable (checkpointed) progress
    ckpt_time = 0.0
    lost = 0.0
    restarts = 0.0
    n_int = 0
    gaps = interarrival_gaps(mtti_hours, rng)
    next_fault = next(gaps)

    while done < total_work_hours:
        if clock > max_wallclock_hours:
            raise RuntimeError(
                "run cannot complete: losing work faster than checkpointing"
            )
        segment = min(checkpoint_interval_hours, total_work_hours - done)
        segment_end = clock + segment + checkpoint_cost_hours
        if next_fault < segment_end:
            # interrupted mid-segment (or mid-checkpoint): segment lost
            wasted = next_fault - clock
            lost += wasted
            clock = next_fault + restart_cost_hours
            restarts += restart_cost_hours
            n_int += 1
            next_fault = clock + next(gaps)
            continue
        clock = segment_end
        done += segment
        ckpt_time += checkpoint_cost_hours

    return FaultRunStats(
        wallclock_hours=clock,
        work_hours=total_work_hours,
        checkpoint_hours=ckpt_time,
        lost_hours=lost,
        restart_hours=restarts,
        n_interrupts=n_int,
    )
