"""Runtime sanitizer for the simulated MPI layer.

Tracks every :class:`~repro.parallel.comm.Request` — every collective,
the blocking ``allreduce`` included, is one — from post to settlement and
reports violations of the request-lifecycle discipline at ``World.run``
teardown:

- **leaked-request** — posted but never waited or cancelled.  A leaked
  collective holds a sequence slot that desynchronizes every later
  collective.
- **double-wait** — ``wait()`` called again on a request that a previous
  ``wait()`` already completed.  (Completing a request at a ``fence`` and
  then calling ``wait()`` once is the documented idiom and is *not*
  flagged.)

The sanitizer is allocated by ``World(..., sanitize=True)`` and touched
only through ``is not None`` guards, so unsanitized runs pay nothing.
All mutable state is behind one lock.
"""

from __future__ import annotations

import threading


class CommFinding:
    """One sanitizer finding, attributed to a rank."""

    __slots__ = ("kind", "rank", "message")

    def __init__(self, kind: str, rank: int, message: str):
        self.kind = kind
        self.rank = rank
        self.message = message

    def render(self) -> str:
        return f"[{self.kind}] rank {self.rank}: {self.message}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CommFinding({self.render()!r})"


class _RequestRecord:
    """Lifecycle state of one posted request."""

    __slots__ = (
        "sanitizer", "rank", "kind", "detail", "site", "settled", "waited",
    )

    def __init__(self, sanitizer, rank, kind, detail, site):
        self.sanitizer = sanitizer
        self.rank = rank
        self.kind = kind
        self.detail = detail
        self.site = site
        self.settled = False  # waited, cancelled, or errored out
        self.waited = False  # completed specifically through wait()


class CommSanitizer:
    """Request-lifecycle checker for one :class:`World`."""

    def __init__(self):
        self._lock = threading.Lock()
        self._records: list[_RequestRecord] = []
        self.findings: list[CommFinding] = []

    def reset(self) -> None:
        """Drop all state (``World.run`` calls this per run)."""
        with self._lock:
            self._records.clear()
            self.findings.clear()

    def unsettled(self) -> list:
        """Records of posted requests nobody settled (post-abort audit).

        ``finalize`` never runs on failure paths, so the recovery
        coordinator audits request lifecycles through this instead: a
        sanitizer-clean teardown settles every handle — completed,
        cancelled, or errored — before the failure surfaces.
        """
        with self._lock:
            return [rec for rec in self._records if not rec.settled]

    def n_records(self) -> int:
        """How many requests this run posted (settled or not)."""
        with self._lock:
            return len(self._records)

    # -- request lifecycle ---------------------------------------------------
    def on_post(self, req, rank: int, kind: str, detail: str,
                site: str) -> None:
        rec = _RequestRecord(self, rank, kind, detail, site)
        req._sanrec = rec
        with self._lock:
            self._records.append(rec)

    def on_wait(self, req) -> None:
        """A ``wait()`` completed (or returned an already-waited result)."""
        rec = req._sanrec
        with self._lock:
            if rec.waited:
                self.findings.append(CommFinding(
                    "double-wait", rec.rank,
                    f"wait() called again on an already-waited {rec.kind} "
                    f"({rec.detail}) posted at {rec.site}; reuse the first "
                    "wait()'s result instead of re-waiting the handle",
                ))
            rec.waited = True
            rec.settled = True

    def on_settle(self, req) -> None:
        """Request released without a completing wait (``cancel()``, or an
        abort unwinding the wait)."""
        rec = req._sanrec
        with self._lock:
            rec.settled = True

    # -- teardown ------------------------------------------------------------
    def finalize(self) -> list:
        """Collect end-of-run findings; returns the full findings list."""
        with self._lock:
            for rec in self._records:
                if not rec.settled:
                    self.findings.append(CommFinding(
                        "leaked-request", rec.rank,
                        f"{rec.kind} ({rec.detail}) posted at {rec.site} was "
                        "never waited or cancelled",
                    ))
            return list(self.findings)
