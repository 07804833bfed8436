"""Frontier-E campaign model: 625 PM steps of time-to-solution and I/O.

Integrates the full run (paper Figs. 2 and 5): per-step compute component
times whose *shape* over the run follows the clustering-driven workload
model (short-range and analysis costs grow toward z = 0; FFT and tree
build stay flat), and a mechanistic multi-tier I/O trace (checkpoint sizes
growing 150 -> 180 TB with imbalance, NVMe sync writes, asynchronous PFS
bleeds).  Component totals are normalized to the paper's measured
fractions {79.6, 11.6, 2.6, 1.7, 1.7, 2.8}% of the 196-hour wall clock;
the I/O channel is additionally produced by the simulator and verified to
land on the same 2.6% / 5.45 TB/s independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import (
    FRONTIER_E_CHECKPOINT_TB,
    FRONTIER_E_PM_STEPS,
    FRONTIER_E_SCIENCE_DATA_PB,
    FRONTIER_E_TTS_FRACTIONS,
    FRONTIER_E_WALLCLOCK_HOURS,
)
from ..iosim.nvme import NVMeModel
from ..iosim.pfs import PFSModel
from ..iosim.tiers import MultiTierWriter
from .machine import Machine, frontier
from .workload import clustering_amplitude, data_imbalance, subcycle_depth

#: gravity-only component multipliers relative to the hydro run, calibrated
#: to the paper's "just under 12 hours" (16x cheaper overall): no SPH/CRK
#: kernels or feedback subcycling in the short-range solver, far lighter
#: in situ analysis (no gas/star products), half the checkpoint data.
GRAVITY_ONLY_FACTORS = {
    "short_range": 1.0 / 26.0,
    "analysis": 1.0 / 57.0,
    "io": 1.0 / 5.0,
    "long_range": 1.0,
    "tree_build": 1.0 / 3.0,
    "other": 1.0 / 27.0,
}

#: NVMe derating: sustained achieved bandwidth vs nominal drive spec
#: (filesystem overheads, max-over-nodes variability)
NVME_SUSTAIN_FACTOR = 0.45
#: fixed per-step I/O overhead (file creation, fsync, index writes), seconds
IO_FIXED_OVERHEAD_S = 11.0


@dataclass
class CampaignStep:
    """Per-step record of the campaign model (one Fig. 5 sample)."""

    step: int
    a: float
    z: float
    t_short: float
    t_long: float
    t_tree: float
    t_analysis: float
    t_io: float
    t_other: float
    n_substeps: int
    checkpoint_tb: float
    science_tb: float
    nvme_bw_tbps: float
    pfs_bw_tbps: float

    @property
    def total(self) -> float:
        return (
            self.t_short + self.t_long + self.t_tree
            + self.t_analysis + self.t_io + self.t_other
        )


@dataclass
class CampaignResult:
    """Full-run aggregates and the per-step trace."""

    steps: list
    wallclock_hours: float
    node_hours: float
    total_data_pb: float
    science_data_pb: float
    io_hours: float
    effective_io_tbps: float
    fractions: dict

    def cumulative(self, component: str) -> np.ndarray:
        return np.cumsum([getattr(s, f"t_{component}") for s in self.steps])

    @property
    def gpu_resident_fraction(self) -> float:
        """Fraction of runtime on the GPU: short-range + analysis are
        device-resident (paper: 91.2%)."""
        tot = self.wallclock_hours * 3600.0
        gpu = sum(s.t_short + s.t_analysis for s in self.steps)
        return gpu / tot


class CampaignModel:
    """End-to-end Frontier-E run model."""

    def __init__(
        self,
        machine: Machine | None = None,
        n_steps: int = FRONTIER_E_PM_STEPS,
        a_init: float = 0.02,
        a_final: float = 1.0,
        hydro: bool = True,
        total_hours: float = FRONTIER_E_WALLCLOCK_HOURS,
        seed: int = 12,
    ):
        self.machine = machine or frontier()
        self.n_steps = n_steps
        self.a_init = a_init
        self.a_final = a_final
        self.hydro = hydro
        self.total_hours = total_hours
        self.seed = seed

    # -- workload shapes ---------------------------------------------------------
    def _a_of_step(self, s: int) -> float:
        return self.a_init + (self.a_final - self.a_init) * (s + 1) / self.n_steps

    def _short_weight(self, a: float) -> float:
        """Relative short-range cost per step: grows with clustering and
        subcycle depth (late steps several times costlier than early)."""
        return 1.0 + 7.0 * clustering_amplitude(a) ** 1.5

    def _analysis_weight(self, a: float) -> float:
        """Clustering analysis cost tracks the number of collapsed objects."""
        return 0.3 + 2.0 * clustering_amplitude(a)

    def run(self) -> CampaignResult:
        n = self.n_steps
        a = np.array([self._a_of_step(s) for s in range(n)])
        fr = FRONTIER_E_TTS_FRACTIONS
        total_s = self.total_hours * 3600.0
        gfac = (
            {k: 1.0 for k in GRAVITY_ONLY_FACTORS}
            if self.hydro
            else GRAVITY_ONLY_FACTORS
        )

        # component per-step times: shape x normalization to paper fractions
        w_short = np.array([self._short_weight(x) for x in a])
        t_short = w_short / w_short.sum() * fr["short_range"] * total_s
        t_short *= gfac["short_range"]

        w_ana = np.array([self._analysis_weight(x) for x in a])
        t_analysis = w_ana / w_ana.sum() * fr["analysis"] * total_s
        t_analysis *= gfac["analysis"]

        t_long = np.full(n, fr["long_range"] * total_s / n) * gfac["long_range"]
        t_tree = np.full(n, fr["tree_build"] * total_s / n) * gfac["tree_build"]
        t_other = (
            (0.5 * np.full(n, 1.0 / n) + 0.5 * w_short / w_short.sum())
            * fr["other"] * total_s * gfac["other"]
        )

        # mechanistic I/O: checkpoint every step + periodic science output
        ck_lo, ck_hi = FRONTIER_E_CHECKPOINT_TB
        nvme = NVMeModel(
            capacity_tb=3.5,
            write_bw_gbps=4.0 * NVME_SUSTAIN_FACTOR * (1 if self.hydro else 0.9),
        )
        writer = MultiTierWriter(
            n_nodes=self.machine.n_nodes,
            nvme=nvme,
            pfs=PFSModel(seed=self.seed),
            retention_steps=2,
        )
        science_total_tb = FRONTIER_E_SCIENCE_DATA_PB * 1000.0
        analysis_every = 6  # science output cadence
        # the gravity-only comparison run checkpoints less aggressively
        # (cheaper steps -> less work at risk per Young/Daly)
        checkpoint_every = 1 if self.hydro else 5
        n_science_steps = max(len([s for s in range(n) if s % analysis_every == 0]), 1)
        science_per_step_tb = science_total_tb / n_science_steps

        t_io = np.zeros(n)
        ck_tb = np.zeros(n)
        sci_tb = np.zeros(n)
        nvme_bw = np.zeros(n)
        pfs_bw = np.zeros(n)
        # the I/O channel is fully mechanistic in both modes: gravity-only
        # checkpoints half the particle data (one species) and produces
        # almost no science output
        species_data_factor = 1.0 if self.hydro else 0.5
        science_factor = 1.0 if self.hydro else 0.1
        for s in range(n):
            cl = clustering_amplitude(a[s])
            if s % checkpoint_every != 0:
                continue
            size = (ck_lo + (ck_hi - ck_lo) * cl) * species_data_factor
            science_step = s % analysis_every == 0
            sci = science_per_step_tb * science_factor if science_step else 0.0
            compute_next = float(t_short[s] + t_long[s] + t_tree[s] + t_analysis[s])
            rec = writer.checkpoint(
                s,
                data_tb=size + sci,
                compute_seconds=compute_next,
                imbalance=data_imbalance(a[s]),
                concurrent_analysis_read=science_step,
            )
            t_io[s] = rec.sync_seconds + rec.stall_seconds + IO_FIXED_OVERHEAD_S
            ck_tb[s] = size
            sci_tb[s] = sci
            nvme_bw[s] = rec.nvme_bw_tbps
            pfs_bw[s] = rec.pfs_bw_tbps

        steps = [
            CampaignStep(
                step=s,
                a=float(a[s]),
                z=float(1.0 / a[s] - 1.0),
                t_short=float(t_short[s]),
                t_long=float(t_long[s]),
                t_tree=float(t_tree[s]),
                t_analysis=float(t_analysis[s]),
                t_io=float(t_io[s]),
                t_other=float(t_other[s]),
                n_substeps=2 ** subcycle_depth(float(a[s])),
                checkpoint_tb=float(ck_tb[s]),
                science_tb=float(sci_tb[s]),
                nvme_bw_tbps=float(nvme_bw[s]),
                pfs_bw_tbps=float(pfs_bw[s]),
            )
            for s in range(n)
        ]

        wall_s = sum(st.total for st in steps)
        io_s = float(t_io.sum())
        data_pb = float((ck_tb.sum() + sci_tb.sum()) / 1000.0)
        fractions = {
            "short_range": float(t_short.sum() / wall_s),
            "analysis": float(t_analysis.sum() / wall_s),
            "io": io_s / wall_s,
            "long_range": float(t_long.sum() / wall_s),
            "tree_build": float(t_tree.sum() / wall_s),
            "other": float(t_other.sum() / wall_s),
        }
        return CampaignResult(
            steps=steps,
            wallclock_hours=wall_s / 3600.0,
            node_hours=wall_s / 3600.0 * self.machine.n_nodes,
            total_data_pb=data_pb,
            science_data_pb=float(sci_tb.sum() / 1000.0),
            io_hours=io_s / 3600.0,
            effective_io_tbps=float((ck_tb.sum() + sci_tb.sum()) / max(io_s, 1e-9)),
            fractions=fractions,
        )


def schedule_events(result: CampaignResult) -> list:
    """Render a campaign result as simulated-clock trace events.

    One ``step`` span per PM step on the simulated-time process
    (``SIM_PID``, tid 1), with the component times (``short_range``,
    ``long_range``, ``tree_build``, ``analysis``, ``io``, ``other``)
    nested inside it back-to-back — the full 625-step Frontier-E
    timeline, loadable in Perfetto next to wall-clock traces.
    """
    from ..observe.clock import SIM_PID
    from ..observe.trace import TraceEvent

    events = []
    seq = 0
    t = 0.0
    for st in result.steps:
        components = (
            ("short_range", st.t_short), ("long_range", st.t_long),
            ("tree_build", st.t_tree), ("analysis", st.t_analysis),
            ("io", st.t_io), ("other", st.t_other),
        )
        events.append(TraceEvent(
            name="step", ph="X", ts=t, dur=st.total, pid=SIM_PID, tid=1,
            cat="campaign_model", seq=seq,
            args={"step": st.step, "a": st.a, "z": st.z,
                  "n_substeps": st.n_substeps,
                  "checkpoint_tb": st.checkpoint_tb},
        ))
        seq += 1
        tc = t
        for name, dur in components:
            if dur <= 0.0:
                continue
            events.append(TraceEvent(
                name=name, ph="X", ts=tc, dur=dur, pid=SIM_PID, tid=1,
                cat="campaign_model", seq=seq, depth=1,
            ))
            seq += 1
            tc += dur
        t += st.total
    return events


def export_schedule(result: CampaignResult, path: str | None = None) -> dict:
    """Chrome-trace JSON of the campaign step schedule (write to ``path``
    when given); the ROADMAP's "campaign timeline in Perfetto" artifact."""
    from ..observe.clock import SIM_PID
    from ..observe.export import to_chrome_trace, write_chrome_trace

    events = schedule_events(result)
    names = {(SIM_PID, 1): "campaign schedule (625-step model)"}
    if path is not None:
        return write_chrome_trace(path, events, track_names=names)
    return to_chrome_trace(events, track_names=names)


def hydro_vs_gravity_cost_ratio(machine: Machine | None = None) -> dict:
    """The paper's 16x hydro/gravity-only cost comparison (Section VI-B)."""
    hydro = CampaignModel(machine=machine, hydro=True).run()
    gravity = CampaignModel(machine=machine, hydro=False).run()
    return {
        "hydro_hours": hydro.wallclock_hours,
        "gravity_only_hours": gravity.wallclock_hours,
        "ratio": hydro.wallclock_hours / gravity.wallclock_hours,
    }
