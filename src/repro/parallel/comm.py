"""Simulated MPI: an in-process, thread-based SPMD communicator.

Each simulated rank runs the same function on its own thread, giving true
MPI semantics (rank-private control flow) without an MPI runtime.  The API
mirrors the mpi4py lowercase conventions (``allreduce``, ``ialltoallv``,
...) so the code reads like the real thing.

There is one collective engine and one way onto it.  Every collective is
posted as a :class:`Request` (``ialltoallv``/``iallgather``/``iallreduce``;
``wait()``/``complete()``): a deposit into a sequence-numbered buffer
guarded by one condition variable, matched across ranks by per-rank
posting order (the MPI ordering rule); the first deposit of a sequence
number records the collective's kind and a later one that disagrees
raises.  The one blocking collective, ``allreduce``, is its request waited
where it is posted.  The collective deposit is the only transport: there
is no point-to-point path beside it.  The
comm *mode* is that choice made once, on the :class:`World`: consumers post
their nonblocking schedule unconditionally and call :meth:`SimComm.fence`
after each posting group, which a ``blocking`` world completes on the spot.
Because NumPy releases the GIL, overlapping compute with an in-flight
exchange yields real wall-clock wins here.

This substitutes for the Slingshot/MPI transport of the paper's runs; the
algorithms layered on top (overloading, pencil FFT redistribution) are the
same — only the wire is a Python list instead of a NIC.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..observe.trace import NullTracer

# The transport layer is exempt from the clock-discipline lint rule: the
# perf_counter reads below ARE the simulated wire (transfer-ready
# deadlines, wait attribution), not unattributed measurements.
# sanitize: allow-file-clock-discipline

#: poll interval for condition waits; bounds abort-detection latency
_POLL = 0.05


class CommError(RuntimeError):
    """Raised when a simulated rank fails; carries the rank id."""


class CommAborted(CommError):
    """An in-flight request observed a peer rank's abort.

    A cascade symptom, not a root cause — ``World.run`` filters these out
    of its failure report.
    """


class RankFailure(CommError):
    """A simulated rank died (injected fault or hung-rank timeout).

    The typed root-cause exception the resilience layer keys off: it
    carries the failed rank, the global step it was executing, and the
    last phase it was seen entering, so a
    :class:`~repro.resilience.coordinator.RecoveryCoordinator` (and the
    tests) share one exception taxonomy with the detector instead of
    string-matching a generic :class:`CommError`.  ``World.run``
    re-raises it unwrapped when it is the primary failure.
    """

    def __init__(self, rank: int, step: int | None = None,
                 phase: str | None = None, reason: str = "rank failure"):
        self.rank = int(rank)
        self.step = step
        self.phase = phase
        self.reason = reason
        where = f" at step {step}" if step is not None else ""
        seen = f" in phase {phase!r}" if phase is not None else ""
        super().__init__(f"rank {rank} died{where}{seen}: {reason}")


class CommSanitizerError(CommError):
    """Comm-sanitizer findings reported at ``World.run`` teardown.

    Raised only for runs that otherwise completed cleanly (a real rank
    failure takes precedence and expects torn-down requests anyway).
    ``findings`` holds the :class:`~repro.sanitize.comm.CommFinding`
    objects for programmatic inspection.
    """

    def __init__(self, findings):
        self.findings = list(findings)
        lines = "\n  ".join(f.render() for f in self.findings)
        super().__init__(
            f"comm sanitizer: {len(self.findings)} finding(s)\n  {lines}"
        )


def _caller_site() -> str:
    """``file:line`` of the nearest caller outside this module."""
    f = sys._getframe(1)
    while f is not None and f.f_code.co_filename == __file__:
        f = f.f_back
    if f is None:  # pragma: no cover - only direct internal calls
        return "<unknown>"
    return f"{f.f_code.co_filename}:{f.f_lineno}"


@dataclass
class TrafficStats:
    """Bytes moved through the simulated fabric (for the perf model).

    The per-rank dicts attribute blocked time and shipped bytes to
    individual ranks so overlap (reduced wait with identical traffic) is
    observable.
    """

    #: always 0 (no point-to-point transport); benchmarks/e2e/e2e_workloads.py
    #: reads it, and a ``benchmark`` PR removes both together
    p2p_messages: int = 0
    collective_calls: int = 0
    collective_bytes: int = 0
    #: rank -> seconds spent blocked in wait()/collective sync
    wait_seconds: dict = field(default_factory=dict)
    #: rank -> payload bytes shipped by that rank
    bytes_by_rank: dict = field(default_factory=dict)

    def add_wait(self, rank: int, seconds: float) -> None:
        self.wait_seconds[rank] = self.wait_seconds.get(rank, 0.0) + seconds

    def add_bytes(self, rank: int, nbytes: int) -> None:
        self.bytes_by_rank[rank] = self.bytes_by_rank.get(rank, 0) + nbytes


class _CollectiveBuffer:
    """One in-flight collective: per-rank deposit slots."""

    __slots__ = ("kind", "first", "values", "count", "taken", "ready")

    def __init__(self, n_ranks: int, kind: str, first: int):
        #: what the first depositor (rank ``first``) posted, e.g.
        #: ``"allreduce:sum"``; every later deposit must agree
        self.kind = kind
        self.first = first
        self.values: list = [None] * n_ranks
        self.count = 0
        self.taken = 0
        #: simulated transfer completion time (max over contributions)
        self.ready = 0.0


class World:
    """Shared state for a set of simulated ranks.

    ``latency_s``/``gb_per_s`` give the simulated fabric a transfer cost
    (per-message latency plus payload/bandwidth) — the quantity the async
    engine hides behind compute.  A collective does not complete until it
    has elapsed: a blocking call pays it idle, a rank with interior work
    in flight never notices.  The default (0, 0) is an ideal zero-latency
    wire.  ``blocking`` is the comm mode: where :meth:`SimComm.fence`
    puts the waits (at the posts — the default, as
    ``DistributedConfig.comm_mode`` — or wherever the consumer waits).
    """

    def __init__(self, n_ranks: int, latency_s: float = 0.0,
                 gb_per_s: float = 0.0, tracer=None, sanitize: bool = False,
                 fault_plan=None, blocking: bool = True):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.n_ranks = n_ranks
        self.blocking = blocking
        #: optional :class:`~repro.resilience.faults.FaultPlan`; when set,
        #: the comm layer gives it a kill point inside every collective
        #: post (``phase="comm"`` injections), and
        #: the drivers call :meth:`note_phase` so a dying rank's exception
        #: carries the phase it died in
        self.fault_plan = fault_plan
        #: rank -> (step, phase) last reported through :meth:`note_phase`;
        #: the hung-rank timeout reads it to type its RankFailure
        self._last_phase: dict[int, tuple] = {}
        #: request-lifecycle sanitizer (``sanitize=True``); every hook in
        #: the hot path sits behind an ``is not None`` guard, so the
        #: default world pays one attribute read per post/wait at most
        if sanitize:
            from ..sanitize.comm import CommSanitizer

            self.sanitizer = CommSanitizer()
        else:
            self.sanitizer = None
        self.latency_s = float(latency_s)
        self.gb_per_s = float(gb_per_s)
        #: span tracer shared by every rank (observe.Tracer when tracing;
        #: the default NullTracer makes every recording call a no-op)
        self.tracer = tracer if tracer is not None else NullTracer()
        self.stats = TrafficStats()
        self._stats_lock = threading.Lock()
        #: set when any rank fails; in-flight requests observe it and raise
        self.abort_event = threading.Event()
        # collective matching state: each rank's k-th posted collective
        # pairs with every other rank's k-th (MPI ordering semantics), via
        # sequence-numbered deposit buffers
        self._icoll_cond = threading.Condition()
        self._icoll_seq = [0] * n_ranks
        self._icoll_bufs: dict[int, _CollectiveBuffer] = {}

    def comm(self, rank: int) -> "SimComm":
        return SimComm(self, rank)

    def note_phase(self, rank: int, step: int, phase: str) -> None:
        """Record the phase a rank is entering (dict write, no lock: each
        rank only writes its own slot).  Failure reports read it back."""
        self._last_phase[rank] = (step, phase)

    def _fault_check(self, rank: int) -> None:
        """Give an installed fault plan its comm-layer kill point."""
        fp = self.fault_plan
        if fp is not None:
            fp.on_comm(rank)

    def _xfer_delay(self, nbytes: int) -> float:
        """Simulated wire time for a payload of ``nbytes``."""
        d = self.latency_s
        if self.gb_per_s > 0.0:
            d += nbytes / (self.gb_per_s * 1e9)
        return d

    def _icoll_post(self, rank: int, value, kind: str) -> int:
        """Deposit ``rank``'s contribution to its next collective; returns
        the sequence number."""
        self._fault_check(rank)
        with self._icoll_cond:
            seq = self._icoll_seq[rank]
            self._icoll_seq[rank] += 1
            buf = self._icoll_bufs.get(seq)
            if buf is None:
                buf = self._icoll_bufs[seq] = _CollectiveBuffer(
                    self.n_ranks, kind, rank
                )
            elif buf.kind != kind:
                raise CommError(
                    f"collective mismatch: rank {rank} posted {kind!r} as "
                    f"its collective #{seq}, rank {buf.first} posted "
                    f"{buf.kind!r}"
                )
            buf.values[rank] = value
            buf.count += 1
            ready = time.perf_counter() + self._xfer_delay(_nbytes(value))
            if ready > buf.ready:
                buf.ready = ready
            self._icoll_cond.notify_all()
        return seq

    def _icoll_collect(self, seq: int, rank: int) -> list:
        """Block until all ranks deposited for ``seq`` and the simulated
        transfer completed; return the slots.  Only an abort ends the wait
        early (``World.run`` bounds the job as a whole)."""
        with self._icoll_cond:
            while True:
                now = time.perf_counter()
                buf = self._icoll_bufs.get(seq)
                if (buf is not None and buf.count == self.n_ranks
                        and buf.ready <= now):
                    break
                if self.abort_event.is_set():
                    raise CommAborted(
                        f"rank {rank}: aborted while waiting on collective"
                    )
                # once all deposits are in, only the wire time remains —
                # sleep exactly that instead of a full poll chunk
                delay = _POLL
                if buf is not None and buf.count == self.n_ranks:
                    delay = min(delay, max(buf.ready - now, 1e-4))
                self._icoll_cond.wait(delay)
            vals = list(buf.values)
            buf.taken += 1
            if buf.taken == self.n_ranks:
                del self._icoll_bufs[seq]
        return vals

    def _abort(self) -> None:
        """Fail the job: raise the abort flag and wake every waiter, so the
        ``CommAborted`` cascade is immediate, not one poll tick away."""
        self.abort_event.set()
        with self._icoll_cond:
            self._icoll_cond.notify_all()

    def run(self, fn, *args, timeout: float = 600.0):
        """Execute ``fn(comm, *args)`` on every rank; return per-rank results.

        Any rank raising aborts the job with CommError (after all threads
        stop), mirroring an MPI abort.  A rank still alive after ``timeout``
        seconds raises a typed :class:`RankFailure` (with the hung rank's
        last-seen step/phase) instead of silently yielding None; a primary
        :class:`RankFailure` raised by a rank is re-raised unwrapped so
        callers see one exception taxonomy for both failure modes.

        With ``sanitize=True`` the comm sanitizer's teardown report runs
        after a clean join: any leaked request or double-wait raises
        :class:`CommSanitizerError`.
        """
        self.abort_event.clear()
        # every run starts on an empty engine: an aborted run leaves its
        # ranks' sequence numbers apart and its half-filled buffers behind
        with self._icoll_cond:
            self._icoll_seq = [0] * self.n_ranks
            self._icoll_bufs.clear()
        self._last_phase.clear()
        if self.sanitizer is not None:
            self.sanitizer.reset()
        results = [None] * self.n_ranks
        errors = [None] * self.n_ranks

        def runner(r):
            try:
                results[r] = fn(self.comm(r), *args)
            except BaseException as exc:  # noqa: BLE001 - must not hang peers
                errors[r] = exc
                self._abort()

        threads = [
            threading.Thread(target=runner, args=(r,), daemon=True)
            for r in range(self.n_ranks)
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + timeout
        for t in threads:
            t.join(max(0.0, deadline - time.monotonic()))
        hung = [r for r, t in enumerate(threads) if t.is_alive()]
        if hung:
            # unblock whoever can still be unblocked before reporting
            self._abort()
            step, phase = self._last_phase.get(hung[0], (None, None))
            raise RankFailure(
                hung[0], step=step, phase=phase,
                reason=f"no progress within {timeout}s (hung-rank timeout)",
            )
        # report the root-cause failure, not the CommAborted cascade it
        # triggers on the surviving ranks
        primary = [
            (r, e)
            for r, e in enumerate(errors)
            if e is not None and not isinstance(e, CommAborted)
        ]
        cascade = [(r, e) for r, e in enumerate(errors) if e is not None]
        if primary:
            r, err = primary[0]
            if isinstance(err, RankFailure):
                raise err
            raise CommError(f"rank {r} failed: {err!r}") from err
        if cascade:
            r, err = cascade[0]
            raise CommError(f"rank {r} failed: {err!r}") from err
        if self.sanitizer is not None:
            findings = self.sanitizer.finalize()
            if findings:
                raise CommSanitizerError(findings)
        return results


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)) and obj and isinstance(obj[0], np.ndarray):
        return sum(a.nbytes for a in obj)
    return 64  # rough pickle floor for small python objects


# -- request handle -----------------------------------------------------------
class Request:
    """Handle for an in-flight collective, finalized by ``_finish(slots)``.

    ``complete()`` blocks until the collective is done without consuming
    it (idempotent); ``wait()`` completes it and returns its result.
    Neither has a time limit of its own: an abort ends it, and
    ``World.run(timeout=...)`` bounds the job, raising a typed
    :class:`RankFailure` for the hung rank in either comm mode.  Blocked
    time is charged to the owning rank's ``TrafficStats.wait_seconds``.
    Only ``wait`` and ``cancel`` settle the handle for the comm
    sanitizer: a request that was merely completed (fenced) and then
    dropped still reads as leaked, in either comm mode.

    ``cancel()`` is an idempotent local release for error paths, so an
    exchange torn down mid-flight does not read as a leak to the comm
    sanitizer.

    When tracing, the request's lifetime post → completion is an async
    slice (with a flow arrow into the completing wait), so overlap of
    in-flight collectives with compute is directly visible in Perfetto.
    """

    #: lifecycle record attached by the comm sanitizer (None when off)
    _sanrec = None
    _done = False
    _result = None

    def __init__(self, comm: "SimComm", seq: int, finish, name: str,
                 trace_id: str | None = None):
        self._comm = comm
        self._seq = seq
        self._finish = finish
        self._name = name
        self._trace_id = trace_id

    def complete(self) -> None:
        if self._done:
            return
        comm = self._comm
        t0 = time.perf_counter()
        try:
            vals = comm.world._icoll_collect(self._seq, comm.rank)
        except CommError:
            # abort cascade: this handle is dead — settle it so teardown
            # does not double-report it as a leak
            self._san_settled()
            raise
        comm._charge_wait(time.perf_counter() - t0)
        tr = comm.world.tracer
        if tr.enabled and self._trace_id is not None:
            tr.async_end(self._name, self._trace_id, cat="comm",
                         tid=comm.rank)
            tr.flow_end(self._name, self._trace_id, tid=comm.rank)
        self._result = self._finish(vals)
        self._done = True

    def wait(self):
        self.complete()
        self._san_waited()
        return self._result

    def cancel(self) -> None:
        """Release the request locally without completing it (idempotent).

        The underlying operation is not revoked — a peer's matching call
        still completes — but this handle is settled: exception cleanup
        paths call it so the sanitizer never reports an intentionally
        abandoned request as leaked.
        """
        self._san_settled()

    def _san_waited(self) -> None:
        if self._sanrec is not None:
            self._sanrec.sanitizer.on_wait(self)

    def _san_settled(self) -> None:
        if self._sanrec is not None:
            self._sanrec.sanitizer.on_settle(self)


class SimComm:
    """Rank-local handle: the mpi4py-like communication interface."""

    def __init__(self, world: World, rank: int):
        self.world = world
        self.rank = rank

    @property
    def size(self) -> int:
        return self.world.n_ranks

    def _charge_wait(self, seconds: float) -> None:
        with self.world._stats_lock:
            self.world.stats.add_wait(self.rank, seconds)
        tr = self.world.tracer
        if tr.enabled:
            # the wait just ended: record it as a complete span covering
            # the blocked interval on this rank's track
            tr.complete("comm/wait", ts=tr.clock.now() - seconds,
                        dur=seconds, cat="comm", tid=self.rank)

    # -- the collective engine -----------------------------------------------
    def _deposit(self, value, kind: str) -> tuple[int, int]:
        """Count and deposit this rank's contribution to its next
        collective; returns ``(seq, nbytes)``."""
        nbytes = _nbytes(value)
        with self.world._stats_lock:
            self.world.stats.collective_calls += 1
            self.world.stats.collective_bytes += nbytes
            self.world.stats.add_bytes(self.rank, nbytes)
        return self.world._icoll_post(self.rank, value, kind), nbytes

    def _ipost(self, value, kind: str, finish) -> Request:
        """Post a collective of ``kind``; ``wait()`` returns
        ``finish(slots)``.  The one way onto the engine: every collective
        is counted, traced and sanitized here."""
        seq, nbytes = self._deposit(value, kind)
        op = "i" + kind.partition(":")[0]
        name = "comm/" + op
        tr = self.world.tracer
        trace_id = None
        if tr.enabled:
            # async slice + flow arrow, closed by the completing wait
            trace_id = tr.next_id()
            tr.async_begin(name, trace_id, cat="comm", tid=self.rank,
                           bytes=nbytes)
            tr.flow_start(name, trace_id, tid=self.rank)
        req = Request(self, seq, finish, name, trace_id)
        san = self.world.sanitizer
        if san is not None:
            san.on_post(req, self.rank, op, f"{kind}, {nbytes} B, seq {seq}",
                        site=_caller_site())
        return req

    def fence(self, reqs) -> None:
        """Mark the end of a posting group.

        This is where the comm mode lives: a blocking world completes the
        group here (its posts share one wire time); an overlapping world
        goes on computing and pays only where the consumer waits.  Like
        every wait, the completion has no time limit of its own (an abort
        ends it; ``World.run`` bounds the job).  A fence can raise before
        its caller has bound the group to anything it could cancel, so on
        failure it cancels the whole group itself.
        """
        if not self.world.blocking:
            return
        reqs = list(reqs)
        try:
            for req in reqs:
                req.complete()
        except BaseException:
            for req in reqs:
                req.cancel()
            raise

    # -- collectives ---------------------------------------------------------
    def allreduce(self, value, op: str = "sum"):
        """Blocking allreduce: its request waited where it is posted, so
        the caller idles out the wire time a request lets it hide."""
        return self.iallreduce(value, op).wait()

    def _addressed_to_me(self, mat: list) -> list:
        """Column ``rank`` of the (source, destination) deposit matrix."""
        return [mat[src][self.rank] for src in range(self.size)]

    def ialltoallv(self, arrays: list[np.ndarray]) -> Request:
        """Post a variable-size all-to-all; ``wait()`` returns the received
        arrays indexed by source rank."""
        if len(arrays) != self.size:
            raise ValueError("ialltoallv needs one entry per destination")
        return self._ipost(arrays, "alltoallv", self._addressed_to_me)

    def iallgather(self, value) -> Request:
        """Post an allgather; ``wait()`` returns the per-rank value list."""
        return self._ipost(value, "allgather", list)

    def iallreduce(self, value, op: str = "sum") -> Request:
        """Post an allreduce; ``wait()`` returns the reduced value."""
        if op not in ("sum", "min", "max"):
            raise ValueError(f"unknown reduction {op!r}")
        return self._ipost(value, f"allreduce:{op}",
                           lambda vals: _reduce_vals(vals, op))


def _reduce_vals(vals: list, op: str):
    if op == "sum":
        out = vals[0]
        for v in vals[1:]:
            out = out + v
        return out
    if op == "min":
        return min(vals) if np.isscalar(vals[0]) else np.minimum.reduce(vals)
    return max(vals) if np.isscalar(vals[0]) else np.maximum.reduce(vals)
