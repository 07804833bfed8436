"""Live fault injection: seeded MTTI schedules and explicit rank kills.

A :class:`FaultPlan` is handed to :class:`~repro.parallel.comm.World`
(via ``DistributedSimulation(fault_plan=...)``) and turns the simulated
machine into one that *breaks*: when a rank enters a matching
``(rank, step, phase)`` point it raises a typed
:class:`~repro.parallel.comm.RankFailure` from inside the run — from
compute (the driver's ``timed()`` phase entries, including per-rung
subcycle phases) or from the communication layer itself
(``phase="comm"`` kills fire inside the next blocking or nonblocking
collective post).  The abort then propagates exactly like any real rank
death: peers observe the :class:`~repro.parallel.comm.CommAborted`
cascade and tear their in-flight requests down sanitizer-clean.

Plans are either explicit (:class:`KillSpec` list — deterministic chaos
tests) or drawn from the :mod:`repro.iosim.faults` MTTI model
(:meth:`FaultPlan.from_mtti` — seeded exponential interarrivals in PM-step
units).  Kill steps are step indices of the whole trajectory, which is
how the driver counts them also in a run resumed from a checkpoint; each
kill fires at most once, so a plan rides through a recovery and keeps
its later kills for the recovered world.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..iosim.faults import interruption_steps
from ..parallel.comm import RankFailure

#: driver phases an MTTI-drawn kill may land in ("comm" fires inside the
#: communication layer; the others inside the matching timed() phase)
DEFAULT_KILL_PHASES = ("short_range", "long_range", "migration", "comm")


@dataclass(frozen=True)
class KillSpec:
    """One scheduled rank death: ``rank`` dies at ``step``.

    ``phase`` narrows the kill point: a driver phase name (exact key or
    its prefix before ``/`` — ``"rung"`` matches every ``rung/<r>``
    substep phase, killing mid–PM-interval), or ``"comm"`` to fire from
    inside the next collective the rank posts.  ``None`` fires on the
    first phase entered at that step.
    """

    rank: int
    step: int
    phase: str | None = None

    def matches(self, rank: int, step: int, phase: str) -> bool:
        if rank != self.rank or step != self.step:
            return False
        if self.phase is None:
            return True
        return phase == self.phase or phase.split("/", 1)[0] == self.phase


class FaultPlan:
    """A schedule of rank deaths injected into a live distributed run.

    Thread-safe: every simulated rank probes the plan concurrently.
    Each kill fires exactly once (``fired`` records them); a plan can
    therefore ride through the coordinator's restart loop and keep
    firing its *later* kills against the recovered world.  Rank indices
    refer to the current world's rank numbering (after a recovery the
    survivors are renumbered 0..n-2).
    """

    def __init__(self, kills=()):
        self.kills: list[KillSpec] = list(kills)
        self.fired: list[KillSpec] = []
        self._pending: list[KillSpec] = list(kills)
        self._lock = threading.Lock()
        #: rank -> (step, phase) most recently entered; comm-layer
        #: kills need it because the transport has no step of its own
        self._current: dict[int, tuple] = {}

    @classmethod
    def single(cls, rank: int, step: int, phase: str | None = None
               ) -> "FaultPlan":
        """The one-kill plan of a deterministic chaos test."""
        return cls([KillSpec(rank, step, phase)])

    @classmethod
    def from_mtti(cls, mtti_steps: float, n_steps: int, n_ranks: int,
                  seed: int = 0, phases=DEFAULT_KILL_PHASES) -> "FaultPlan":
        """Seeded MTTI schedule: exponential interarrivals in step units.

        Interruption times come from the iosim MTTI model
        (:func:`repro.iosim.faults.interruption_steps`); each is assigned
        a uniformly random victim rank and kill phase.  Deterministic in
        ``seed``.
        """
        rng = np.random.default_rng(seed)
        kills = [
            KillSpec(
                rank=int(rng.integers(n_ranks)),
                step=step,
                phase=str(rng.choice(phases)),
            )
            for step in interruption_steps(mtti_steps, n_steps, rng=rng)
        ]
        return cls(kills)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Plan from CLI syntax ``rank:step[:phase]`` (comma-separated)."""
        kills = []
        for part in spec.split(","):
            bits = part.strip().split(":")
            if len(bits) not in (2, 3):
                raise ValueError(
                    f"bad kill spec {part!r} (want rank:step[:phase])"
                )
            kills.append(KillSpec(
                rank=int(bits[0]), step=int(bits[1]),
                phase=bits[2] if len(bits) == 3 else None,
            ))
        return cls(kills)

    # -- injection points ------------------------------------------------------
    def enter(self, rank: int, step: int, phase: str) -> None:
        """Driver hook: ``rank`` is entering ``phase`` of ``step``.

        Raises :class:`RankFailure` when a pending kill matches.
        """
        self._current[rank] = (step, phase)
        self._maybe_fire(rank, step, phase)

    def on_comm(self, rank: int) -> None:
        """Comm-layer hook: ``rank`` is posting a collective."""
        cur = self._current.get(rank)
        if cur is None:
            return
        self._maybe_fire(rank, cur[0], "comm")

    def _maybe_fire(self, rank: int, step: int, phase: str) -> None:
        with self._lock:
            for k in self._pending:
                if k.matches(rank, step, phase):
                    self._pending.remove(k)
                    self.fired.append(k)
                    break
            else:
                return
        raise RankFailure(
            rank, step=step, phase=phase,
            reason="injected fault (FaultPlan)",
        )
