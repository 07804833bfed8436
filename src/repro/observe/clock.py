"""Clock domains for the observability layer.

Two kinds of time coexist in this repo (DESIGN.md "Observability"):

- **Wall clock** — real elapsed seconds, measured with
  ``time.perf_counter`` against a fixed origin.  Every span the tracer
  measures itself lives on this clock; it is the time the Fig. 2 / Fig. 5
  breakdowns are built from.
- **Simulated fabric clock** — the discrete-event time advanced by the
  performance models (e.g. :class:`~repro.iosim.tiers.MultiTierWriter`
  keeps its own ``_clock`` in simulated seconds).  Events on this clock
  carry *explicit* timestamps supplied by the model; they are exported on
  a separate process track because the two time bases are not comparable.
"""

from __future__ import annotations

import time

#: trace process id for wall-clock rank tracks
WALL_PID = 1
#: trace process id for simulated-fabric-clock tracks (iosim tier models)
SIM_PID = 100


class WallClock:
    """Real time in seconds since this clock's creation."""

    __slots__ = ("origin",)

    name = "wall"

    def __init__(self) -> None:
        self.origin = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self.origin
