"""Typed metrics registry: counters, gauges, histograms, phase timers.

The registry replaces the repo's three bespoke accounting patterns —
``StepRecord.timers`` dicts, ``TrafficStats`` per-rank dicts, and
``OpCounters`` dataclasses — with named instruments:

- :class:`Counter` — monotonically accumulated value (seconds, bytes,
  FLOPs, pair rows);
- :class:`Gauge` — last-set value (utilization, efficiency, fractions);
- :class:`Histogram` — streaming min/max/mean/count plus retained samples
  (per-rank utilization distributions).

``TrafficStats``, ``OpCounters`` and ``SubcycleStats`` objects are
*absorbed* into instruments (``absorb_*``) rather than re-implemented, so
the original producers keep their public shape while every consumer reads
one registry.

:class:`TimerGroup` is the unified wall-clock timer primitive: a
read-only mapping over a family of phase counters whose ``time(phase)``
context manager both accumulates seconds into the registry and emits a
tracer span.  ``StepRecord.timers`` and ``StepRecord.comm_wait`` are
TimerGroups — the public dict shape (keys, float values, ``items()``)
is unchanged, but the numbers now live in the registry.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Mapping

from .trace import NullTracer

_NULL_TRACER = NullTracer()


class Counter:
    """Monotonic accumulator."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def add(self, v: float) -> None:
        self.value += v


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)


class Histogram:
    """Streaming distribution summary with retained samples."""

    __slots__ = ("count", "total", "min", "max", "samples")

    kind = "histogram"

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples: list[float] = []

    def observe(self, v) -> None:
        try:
            vals = list(v)
        except TypeError:
            vals = [v]
        for x in vals:
            x = float(x)
            self.count += 1
            self.total += x
            self.min = min(self.min, x)
            self.max = max(self.max, x)
            self.samples.append(x)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        return {"count": self.count, "total": self.total, "mean": self.mean,
                "min": self.min if self.count else 0.0,
                "max": self.max if self.count else 0.0}


def _label_suffix(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return "{" + inner + "}"


class MetricsRegistry:
    """Get-or-create store of named instruments (thread-safe).

    Instrument names are hierarchical slash paths with optional labels,
    e.g. ``comm/wait_seconds{rank=2}``.  Requesting an existing name with
    a different instrument type is an error — the registry is *typed*.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls, labels: dict):
        key = name + _label_suffix(labels)
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = self._instruments[key] = cls()
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"instrument {key!r} already registered as "
                    f"{type(inst).__name__}, requested {cls.__name__}"
                )
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(name, Counter, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(name, Gauge, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(name, Histogram, labels)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def get(self, key: str):
        """Look up an instrument by its full key (name + label suffix)."""
        with self._lock:
            return self._instruments.get(key)

    def snapshot(self) -> dict:
        """Flat ``{key: value-or-summary}`` view of every instrument."""
        with self._lock:
            items = list(self._instruments.items())
        out = {}
        for key, inst in items:
            out[key] = inst.summary() if isinstance(inst, Histogram) \
                else inst.value
        return out

    # -- absorbers: bespoke stats objects -> instruments ----------------------
    def absorb_traffic(self, stats, prefix: str = "comm") -> None:
        """Absorb a :class:`~repro.parallel.comm.TrafficStats` (aggregate
        message/byte counters plus per-rank wait/byte attribution)."""
        for f in ("collective_calls", "collective_bytes"):
            c = self.counter(f"{prefix}/{f}")
            c.value = 0.0
            c.add(getattr(stats, f))
        for rank, sec in sorted(stats.wait_seconds.items()):
            g = self.gauge(f"{prefix}/wait_seconds", rank=rank)
            g.set(sec)
        for rank, nb in sorted(stats.bytes_by_rank.items()):
            g = self.gauge(f"{prefix}/bytes", rank=rank)
            g.set(nb)

    def absorb_op_counters(self, counters, prefix: str = "gpu") -> None:
        """Absorb a :class:`~repro.gpusim.counters.OpCounters` delta into
        cumulative counters plus derived gauges (the §V-B conventions)."""
        for f in counters.__dataclass_fields__:
            self.counter(f"{prefix}/{f}").add(getattr(counters, f))
        self.counter(f"{prefix}/flops").add(counters.flops)
        self.counter(f"{prefix}/bytes_moved").add(counters.bytes_moved)
        issued = self.counter(f"{prefix}/issued_lane_ops").value
        active = self.counter(f"{prefix}/active_lane_ops").value
        self.gauge(f"{prefix}/lane_efficiency").set(
            active / issued if issued else 1.0
        )
        moved = self.counter(f"{prefix}/bytes_moved").value
        flops = self.counter(f"{prefix}/flops").value
        self.gauge(f"{prefix}/arithmetic_intensity").set(
            flops / moved if moved else float("inf")
        )

    def absorb_subcycle(self, stats, prefix: str = "subcycle") -> None:
        """Absorb a :class:`~repro.core.timestep.SubcycleStats`."""
        for f in ("n_substeps", "n_force_evaluations", "n_active_total",
                  "n_fft", "n_pairs"):
            self.counter(f"{prefix}/{f}").add(getattr(stats, f))
        self.gauge(f"{prefix}/deepest_rung").set(stats.deepest_rung)
        self.histogram(f"{prefix}/active_fraction").observe(
            stats.mean_active_fraction
        )


class Timer:
    """Context manager timing one phase into a counter (+ tracer span).

    The unified replacement for the hand-rolled
    ``t0 = time.perf_counter(); ...; timers[k] += time.perf_counter()-t0``
    pattern.  ``seconds`` holds this activation's elapsed time on exit.
    """

    __slots__ = ("_counter", "_span", "_t0", "seconds")

    def __init__(self, counter: Counter, span=None):
        self._counter = counter
        self._span = span
        self.seconds = 0.0

    def __enter__(self) -> "Timer":
        if self._span is not None:
            self._span.__enter__()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._t0
        self._counter.add(self.seconds)
        if self._span is not None:
            self._span.__exit__(*exc)


class TimerGroup(Mapping):
    """Read-only mapping view over a family of phase counters.

    ``group.time("hydro")`` times a block into ``<prefix>/hydro`` and
    emits a tracer span named ``hydro``; ``group["hydro"]`` reads the
    accumulated seconds.  Iteration order is key-registration order, so
    pre-seeded phase taxonomies keep their canonical ordering.
    """

    def __init__(self, registry: MetricsRegistry, prefix: str,
                 keys=(), tracer=None, cat: str = "phase"):
        self._registry = registry
        self._prefix = prefix
        self._tracer = tracer if tracer is not None else _NULL_TRACER
        self._cat = cat
        self._keys: list[str] = []
        self._counters: dict[str, Counter] = {}
        for k in keys:
            self._counter(k)

    def _counter(self, key: str) -> Counter:
        c = self._counters.get(key)
        if c is None:
            c = self._registry.counter(f"{self._prefix}/{key}")
            self._counters[key] = c
            self._keys.append(key)
        return c

    # -- recording ------------------------------------------------------------
    def time(self, key: str, **span_args) -> Timer:
        """Time a block into ``key`` (and emit a span when tracing)."""
        c = self._counter(key)
        tr = self._tracer
        span = tr.span(key, cat=self._cat, **span_args) if tr.enabled else None
        return Timer(c, span)

    def add(self, key: str, seconds: float) -> None:
        """Accumulate externally measured seconds (no span)."""
        self._counter(key).add(seconds)

    # -- mapping interface (the public StepRecord.timers shape) ---------------
    def __getitem__(self, key: str) -> float:
        return self._counters[key].value

    def __iter__(self):
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:
        return f"TimerGroup({dict(self)!r})"
