"""repro.observe: unified tracing, metrics, and profiling.

The observability substrate of the reproduction — the analog of the
rocprof/CrayPat/Perfetto tooling the paper's performance figures are
built from.  One :class:`Observatory` per run bundles:

- a hierarchical span :class:`~repro.observe.trace.Tracer` (wall-clock
  spans with per-rank tracks, async slices for in-flight nonblocking
  requests, flow arrows post → wait, plus a simulated-fabric clock
  domain for the iosim tier models), exporting Chrome trace-event JSON
  loadable in Perfetto / ``about://tracing``;
- a typed :class:`~repro.observe.metrics.MetricsRegistry`
  (counters/gauges/histograms) that absorbs ``TrafficStats``,
  ``OpCounters`` deltas, and ``SubcycleStats`` as instruments;
- derived metrics (:mod:`repro.observe.derived`): TTS fractions,
  comm-wait shares, roofline position, lane efficiency, utilization —
  what ``bench_fig2_breakdown.py`` / ``bench_fig6_utilization.py``
  consume.

Tracing is off by default (:class:`~repro.observe.trace.NullTracer`,
asserted <2% step overhead in tier-1) and deterministic in span
structure when on, so traces can be diffed in CI.

Usage::

    obs = Observatory(tracing=True)
    sim = Simulation(cfg, parts, observe=obs)
    sim.run()
    obs.export_chrome_trace("trace.json")   # open in ui.perfetto.dev
"""

from __future__ import annotations

import itertools

from . import derived, taxonomy
from .clock import SIM_PID, WALL_PID, WallClock
from .export import (
    load_chrome_trace,
    slice_intervals,
    sort_events,
    to_chrome_trace,
    write_chrome_trace,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    TimerGroup,
)
from .trace import NullTracer, TraceEvent, Tracer

_scope_counter = itertools.count()


class Observatory:
    """Tracer + metrics registry for one run (the per-run façade).

    ``tracing=False`` (the default) installs a :class:`NullTracer`:
    phase timers still accumulate into the registry (StepRecord views
    need them) but no events are recorded and span calls are no-ops.
    """

    def __init__(self, tracing: bool = False, tracer=None,
                 registry: MetricsRegistry | None = None):
        self.tracer = tracer if tracer is not None else (
            Tracer() if tracing else NullTracer()
        )
        self.registry = registry if registry is not None else MetricsRegistry()

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    def timer_group(self, prefix: str, keys=(), cat: str = "phase",
                    ) -> TimerGroup:
        """A phase-timer family under ``prefix`` (see :class:`TimerGroup`)."""
        return TimerGroup(self.registry, prefix, keys, self.tracer, cat=cat)

    def scope(self, base: str) -> str:
        """A process-unique instrument prefix (``base`` + running index),
        so repeated runs never collide in the registry."""
        return f"{base}{next(_scope_counter)}"

    def export_chrome_trace(self, path: str | None = None) -> dict:
        """Chrome trace-event JSON of everything recorded so far."""
        if path is None:
            return to_chrome_trace(self.tracer)
        return write_chrome_trace(path, self.tracer)


#: module-level default used by components not handed an Observatory
_default = Observatory()


def default_observatory() -> Observatory:
    return _default


__all__ = [
    "SIM_PID",
    "WALL_PID",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "Observatory",
    "Timer",
    "TimerGroup",
    "TraceEvent",
    "Tracer",
    "WallClock",
    "default_observatory",
    "derived",
    "load_chrome_trace",
    "slice_intervals",
    "sort_events",
    "taxonomy",
    "to_chrome_trace",
    "write_chrome_trace",
]
