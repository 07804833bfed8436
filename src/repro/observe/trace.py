"""Hierarchical span tracer with Chrome-trace-event semantics.

The tracer records four kinds of events, matching the subset of the
Trace Event Format that Perfetto / ``about://tracing`` render:

- **complete spans** (``ph="X"``): a named interval with duration, nested
  per track by entry order (``trace.span("hydro")`` context managers);
- **async slices** (``ph="b"``/``"e"``): intervals that outlive the
  enclosing call stack — in-flight nonblocking requests, background I/O
  drains — matched by ``(cat, id)``;
- **flow events** (``ph="s"``/``"f"``): arrows connecting the post of a
  nonblocking request to the wait that completes it;
- **instants/metadata** (``ph="i"``/``"M"``): markers and track names.

Tracks: every event carries ``(pid, tid)``.  Simulated ranks each get
their own ``tid`` on the wall-clock process (:data:`~repro.observe.clock.WALL_PID`);
discrete-event models with their own simulated clock emit onto
:data:`~repro.observe.clock.SIM_PID` with explicit timestamps.

Determinism: each span records a global ``seq`` assigned at *entry*, so
the per-track structure (names, nesting depths, order) is reproducible
run to run even though timestamps are not — :meth:`Tracer.structure` is
the CI-diffable view.

Zero cost when off: :class:`NullTracer` answers every recording method
with a no-op (``span`` returns one shared null context manager), so
instrumented hot loops pay only an attribute lookup and an empty
``with`` block.  A tier-1 test asserts the per-step overhead is <2%.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

from .clock import SIM_PID, WALL_PID, WallClock


@dataclass
class TraceEvent:
    """One trace-event-format record (times in seconds, converted to
    microseconds at export)."""

    name: str
    ph: str  # "X" span, "b"/"e" async, "s"/"f" flow, "i" instant, "M" meta
    ts: float
    pid: int = WALL_PID
    tid: int = 0
    dur: float = 0.0  # spans only
    cat: str = "phase"
    args: dict = field(default_factory=dict)
    id: str | None = None  # async/flow correlation id
    seq: int = 0  # global entry-order sequence (structure key)
    depth: int = 0  # nesting depth at entry (spans only)


class _NullSpan:
    """Shared no-op context manager returned by the null tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set_args(self, **kwargs) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: every recording call is a no-op.

    This is the default tracer everywhere, so the instrumented code paths
    run at (asserted) parity with an uninstrumented build.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, cat: str = "phase", **args) -> _NullSpan:
        return _NULL_SPAN

    def set_track(self, tid: int, name: str | None = None) -> None:
        return None

    def instant(self, name: str, **kwargs) -> None:
        return None

    def complete(self, name: str, ts: float, dur: float, **kwargs) -> None:
        return None

    def async_begin(self, name: str, id: str, **kwargs) -> None:
        return None

    def async_end(self, name: str, id: str, **kwargs) -> None:
        return None

    def flow_start(self, name: str, id: str, **kwargs) -> None:
        return None

    def flow_end(self, name: str, id: str, **kwargs) -> None:
        return None

    def next_id(self) -> str:
        return "0"


class _Span:
    """Context manager measuring one complete ("X") span."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_t0", "_seq", "_depth")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_Span":
        tr = self._tracer
        self._seq = tr._next_seq()
        local = tr._local
        self._depth = getattr(local, "depth", 0)
        local.depth = self._depth + 1
        self._t0 = tr.clock.now()
        return self

    def set_args(self, **kwargs) -> None:
        """Attach/extend span arguments from inside the ``with`` body."""
        self._args.update(kwargs)

    def __exit__(self, *exc) -> None:
        tr = self._tracer
        t1 = tr.clock.now()
        tr._local.depth = self._depth
        tr._append(TraceEvent(
            name=self._name, ph="X", ts=self._t0, dur=t1 - self._t0,
            pid=WALL_PID, tid=tr._tid(), cat=self._cat, args=self._args,
            seq=self._seq, depth=self._depth,
        ))


class Tracer:
    """Thread-safe hierarchical span tracer.

    One tracer serves all simulated ranks of a run: each rank thread
    declares its track once with :meth:`set_track` and every event it
    records lands on that ``tid``.  Events are buffered in memory;
    :func:`repro.observe.export.to_chrome_trace` turns them into a
    Perfetto-loadable JSON object.
    """

    enabled = True

    def __init__(self, clock: WallClock | None = None):
        self.clock = clock if clock is not None else WallClock()
        self.events: list[TraceEvent] = []
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.track_names: dict[tuple[int, int], str] = {}

    # -- plumbing ------------------------------------------------------------
    def _tid(self) -> int:
        return getattr(self._local, "tid", 0)

    def _next_seq(self) -> int:
        return next(self._seq)

    def next_id(self) -> str:
        """A process-unique correlation id for async/flow events."""
        return str(next(self._ids))

    def _append(self, ev: TraceEvent) -> None:
        with self._lock:
            self.events.append(ev)

    # -- track management -----------------------------------------------------
    def set_track(self, tid: int, name: str | None = None,
                  pid: int = WALL_PID) -> None:
        """Bind the calling thread's events to track ``tid`` (e.g. a rank)."""
        self._local.tid = int(tid)
        if name is not None:
            with self._lock:
                self.track_names[(pid, int(tid))] = name

    def track(self) -> int:
        """The calling thread's track — where an async slice another
        thread closes must close (``async_end(..., tid=...)``)."""
        return self._tid()

    # -- recording ------------------------------------------------------------
    def span(self, name: str, cat: str = "phase", **args) -> _Span:
        """Context manager for a nested complete span on this thread's
        track; wall-clock timed."""
        return _Span(self, name, cat, args)

    def complete(self, name: str, ts: float, dur: float, *,
                 cat: str = "phase", tid: int | None = None,
                 pid: int = WALL_PID, **args) -> None:
        """Record a complete span with *explicit* timestamps — the entry
        point for simulated-clock events (``pid=SIM_PID``) and for spans
        measured by foreign timers (e.g. comm wait accounting)."""
        self._append(TraceEvent(
            name=name, ph="X", ts=ts, dur=dur, pid=pid,
            tid=self._tid() if tid is None else tid, cat=cat, args=args,
            seq=self._next_seq(),
            depth=getattr(self._local, "depth", 0),
        ))

    def instant(self, name: str, *, cat: str = "phase",
                ts: float | None = None, pid: int = WALL_PID, **args) -> None:
        self._append(TraceEvent(
            name=name, ph="i", ts=self.clock.now() if ts is None else ts,
            pid=pid, tid=self._tid(), cat=cat, args=args,
            seq=self._next_seq(),
        ))

    def _async(self, ph: str, name: str, id: str, cat: str,
               ts: float | None, pid: int, tid: int | None, args: dict) -> None:
        self._append(TraceEvent(
            name=name, ph=ph, ts=self.clock.now() if ts is None else ts,
            pid=pid, tid=self._tid() if tid is None else tid,
            cat=cat, args=args, id=str(id), seq=self._next_seq(),
        ))

    def async_begin(self, name: str, id: str, *, cat: str = "async",
                    ts: float | None = None, pid: int = WALL_PID,
                    tid: int | None = None, **args) -> None:
        """Open an async slice (``ph="b"``) matched by ``(cat, id)`` —
        an operation in flight while the call stack moves on."""
        self._async("b", name, id, cat, ts, pid, tid, args)

    def async_end(self, name: str, id: str, *, cat: str = "async",
                  ts: float | None = None, pid: int = WALL_PID,
                  tid: int | None = None, **args) -> None:
        self._async("e", name, id, cat, ts, pid, tid, args)

    def flow_start(self, name: str, id: str, *, cat: str = "flow",
                   ts: float | None = None, pid: int = WALL_PID,
                   tid: int | None = None, **args) -> None:
        """Start a flow arrow (``ph="s"``), e.g. at a nonblocking post."""
        self._async("s", name, id, cat, ts, pid, tid, args)

    def flow_end(self, name: str, id: str, *, cat: str = "flow",
                 ts: float | None = None, pid: int = WALL_PID,
                 tid: int | None = None, **args) -> None:
        """Finish a flow arrow (``ph="f"``), e.g. at the completing wait."""
        self._async("f", name, id, cat, ts, pid, tid, args)

    # -- views ---------------------------------------------------------------
    def structure(self) -> dict[tuple[int, int], list[tuple[int, str, str]]]:
        """Deterministic per-track span skeleton: ``(depth, ph, name)`` in
        entry order.  Timestamps and durations are excluded, so two runs
        of the same configuration produce equal structures (asserted in
        tier-1) and traces can be diffed in CI."""
        with self._lock:
            events = sorted(self.events, key=lambda e: e.seq)
        out: dict[tuple[int, int], list[tuple[int, str, str]]] = {}
        for ev in events:
            if ev.ph == "M":
                continue
            out.setdefault((ev.pid, ev.tid), []).append(
                (ev.depth, ev.ph, ev.name)
            )
        return out

    def spans(self, name: str | None = None) -> list[TraceEvent]:
        """All complete spans (optionally filtered by name), seq-ordered."""
        with self._lock:
            evs = [e for e in self.events if e.ph == "X"]
        if name is not None:
            evs = [e for e in evs if e.name == name]
        return sorted(evs, key=lambda e: e.seq)
