"""Shared test doubles."""

import numpy as np
import pytest

from repro.core.timestep import deepest_rung


class ToyDomain:
    """In-memory stepping-core domain: free rows under a force callback.

    Rungs are imposed (``rungs``; ``rungs_later`` answers every
    assignment call after the first, i.e. the promotion checks), the
    long-range force is zero and ``u`` is inert, so the only dynamics are
    the kicks and drifts the loop itself applies.  Every call the loop
    makes is logged, with a velocity snapshot, so tests can check the
    schedule it executed without re-deriving it.
    """

    def __init__(self, pos, vel, rungs, force=None, rungs_later=None,
                 margin=0, wrap=None):
        self.pos = np.array(pos, dtype=np.float64)
        self.vel = np.array(vel, dtype=np.float64)
        self.u = np.zeros(len(self.pos))
        self.rungs = np.asarray(rungs, dtype=np.int16)
        self.rungs_later = rungs_later
        self.force = force if force is not None else np.zeros_like
        self.margin = margin
        self.wrap = wrap
        #: ("drift", s) / ("short_range", sinks, closing_rung, last) /
        #: ("check", label), each followed by a copy of vel at call time
        self.log = []
        self.n_assign_calls = 0
        self.final_rungs = None

    def _forces(self):
        n = len(self.pos)
        return self.force(self.pos), np.zeros(n), np.zeros(n)

    def opening_forces(self, a):
        return (*self._forces(), np.zeros_like(self.pos))

    def assign_rungs(self, dv_total, vsig, da):
        self.n_assign_calls += 1
        if self.n_assign_calls > 1 and self.rungs_later is not None:
            return np.asarray(self.rungs_later, dtype=np.int16)
        return self.rungs.copy()

    def interval_depth(self, rungs):
        return deepest_rung(rungs) + self.margin

    def check_state(self, label):
        self.log.append(("check", label, self.vel.copy()))

    def drift(self, a_mid, dt, s, nsub):
        self.log.append(("drift", s, self.vel.copy()))
        self.pos += self.vel * dt
        if self.wrap is not None:
            np.mod(self.pos, self.wrap, out=self.pos)

    def short_range(self, a, sinks, closing_rung, last):
        self.log.append(("short_range", sinks, closing_rung, last,
                         self.vel.copy()))
        return self._forces()

    def long_range(self, a):
        return np.zeros_like(self.pos)

    def reduce_stats(self, stats, rungs):
        self.final_rungs = rungs
        return stats


@pytest.fixture
def toy_domain():
    return ToyDomain
