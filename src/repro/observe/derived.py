"""Derived metrics: the numbers the paper's figures are actually made of.

Each helper reduces raw instruments (phase timers, comm-wait counters,
per-rank utilization samples) to the quantity a figure reports — TTS
fractions (Fig. 2), comm-wait shares (Fig. 2 companion), vendor/machine
utilization (Fig. 6) — and registers the result as gauges/histograms so
traces, benches, and the CLI all read one source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import MetricsRegistry


# -- Fig. 2: time-to-solution attribution -------------------------------------
def timing_summary(history) -> dict:
    """Cumulative seconds per phase over a list of StepRecords."""
    total: dict[str, float] = {}
    for rec in history:
        for k, v in rec.timers.items():
            total[k] = total.get(k, 0.0) + v
    return total


def phase_fractions(history) -> dict:
    """Per-phase fraction of total time (the Fig. 2 breakdown shape)."""
    total = timing_summary(history)
    s = sum(total.values())
    if s == 0:
        return {k: 0.0 for k in total}
    return {k: v / s for k, v in total.items()}


@dataclass
class CommWaitRow:
    """One phase of the Fig. 2 companion table: wall vs blocked seconds."""

    phase: str
    wall_seconds: float
    wait_seconds: float

    @property
    def wait_share(self) -> float:
        return self.wait_seconds / max(self.wall_seconds, 1e-12)


def comm_wait_report(records, phases=None) -> list[CommWaitRow]:
    """Per-phase wall/wait totals over distributed StepRecords.

    ``records`` carry ``timers`` and ``comm_wait`` TimerGroup views; the
    report sums them per phase — the overlap engine's observable is these
    waits shrinking while wall stays comparable.  The default phase list
    is the union of keys over every record in first-seen order, so
    subcycled steps contribute their per-rung keys (``"rung/<r>"``) even
    when different steps reached different depths; a record lacking a
    phase counts zero for it.
    """
    if phases is None:
        seen: dict[str, None] = {}
        for rec in records:
            for key in rec.timers:
                seen.setdefault(key)
        phases = list(seen)
    rows = []
    for phase in phases:
        wall = sum(r.timers.get(phase, 0.0) for r in records)
        wait = sum(r.comm_wait.get(phase, 0.0) for r in records)
        rows.append(CommWaitRow(phase, wall, wait))
    return rows


def rung_wait_report(records) -> list[CommWaitRow]:
    """Per-rung wall/wait rows of subcycled distributed StepRecords.

    Collects every ``"rung/<r>"`` phase key the records carry (the
    distributed driver times each substep evaluation under its shallowest
    closing rung) and returns the summed :class:`CommWaitRow` per rung,
    shallowest first — the per-rung companion of :func:`comm_wait_report`
    showing which synchronization levels of the schedule pay wire time.
    """
    keys = sorted(
        {k for rec in records for k in rec.timers if k.startswith("rung/")},
        key=lambda k: int(k.rsplit("/", 1)[1]),
    )
    return comm_wait_report(records, phases=keys)


def comm_wait_fraction(records) -> float:
    """Blocked seconds / wall seconds over every phase of a run."""
    rows = comm_wait_report(records)
    wall = sum(r.wall_seconds for r in rows)
    wait = sum(r.wait_seconds for r in rows)
    return wait / max(wall, 1e-12)


# -- campaign: per-tenant cost/delivery accounting -----------------------------
@dataclass
class TenantRow:
    """One tenant's campaign totals: cost (wall) vs delivery (sim Gyr)."""

    tenant: str
    jobs_completed: int
    jobs_failed: int
    wall_seconds: float
    sim_gyr: float
    jobs_cancelled: int = 0
    retries: int = 0
    backoff_sim_s: float = 0.0

    @property
    def wall_per_universe(self) -> float:
        return self.wall_seconds / max(self.jobs_completed, 1)


def tenant_report(registry: MetricsRegistry) -> list[TenantRow]:
    """Per-tenant rows derived from the ``campaign/*{tenant=...}``
    labeled counters the scheduler records, sorted by wall cost."""
    tenants: set[str] = set()
    for key in registry.names():
        if key.startswith("campaign/") and "{tenant=" in key:
            tenants.add(key.split("{tenant=", 1)[1].rstrip("}"))

    def _val(name: str, tenant: str) -> float:
        inst = registry.get(f"{name}{{tenant={tenant}}}")
        return inst.value if inst is not None else 0.0

    rows = [
        TenantRow(
            tenant=t,
            jobs_completed=int(_val("campaign/jobs_completed", t)),
            jobs_failed=int(_val("campaign/jobs_failed", t)),
            wall_seconds=_val("campaign/wall_seconds", t),
            sim_gyr=_val("campaign/sim_gyr", t),
            jobs_cancelled=int(_val("campaign/jobs_cancelled", t)),
            retries=int(_val("campaign/retries", t)),
            backoff_sim_s=_val("campaign/backoff_sim_s", t),
        )
        for t in sorted(tenants)
    ]
    rows.sort(key=lambda r: r.wall_seconds, reverse=True)
    return rows


# -- resilience: recovery-pipeline cost ----------------------------------------
@dataclass
class RecoveryPhaseRow:
    """One phase of the detect→resume pipeline: cumulative seconds."""

    phase: str
    seconds: float


def recovery_report(registry: MetricsRegistry) -> list[RecoveryPhaseRow]:
    """Cumulative recovery-pipeline cost per ``resilience/*`` phase.

    The :class:`~repro.resilience.coordinator.RecoveryCoordinator` times
    each phase into scoped counters (``recovery<N>/resilience/<phase>``);
    this sums them across every coordinator in the process and returns
    one row per phase in pipeline order — the recovery-overhead bench's
    raw material.
    """
    from .taxonomy import RESILIENCE_SPANS

    names = registry.names()
    rows = []
    for span in RESILIENCE_SPANS:
        total = 0.0
        for key in names:
            if key == span or key.endswith("/" + span):
                inst = registry.get(key)
                if inst is not None and inst.kind == "counter":
                    total += inst.value
        rows.append(RecoveryPhaseRow(phase=span, seconds=total))
    return rows


# -- Fig. 6: utilization ------------------------------------------------------
def vendor_utilization_table(devices, registry: MetricsRegistry | None = None,
                             ) -> dict:
    """``{vendor: (sustained, peak)}`` single-node utilization (Fig. 6
    left), registered as ``utilization/{sustained,peak}{vendor=...}``
    gauges when a registry is supplied."""
    from ..gpusim.kernels import peak_utilization, sustained_utilization

    out = {}
    for d in devices:
        s = sustained_utilization(d)
        p = peak_utilization(d)
        out[d.vendor] = (s, p)
        if registry is not None:
            registry.gauge("utilization/sustained", vendor=d.vendor).set(s)
            registry.gauge("utilization/peak", vendor=d.vendor).set(p)
    return out


def rank_utilization_distribution(device, a: float, n_ranks: int,
                                  seed: int = 0, flat: bool = False,
                                  registry: MetricsRegistry | None = None,
                                  label: str | None = None) -> np.ndarray:
    """Per-rank utilization samples (Fig. 6 right), recorded as a
    histogram instrument when a registry is supplied."""
    from ..perfmodel.workload import rank_utilization_samples

    samples = rank_utilization_samples(device, a=a, n_ranks=n_ranks,
                                       seed=seed, flat=flat)
    if registry is not None:
        key = label if label is not None else f"a={a:g},flat={flat}"
        registry.histogram("utilization/ranks", phase=key).observe(samples)
    return samples
