"""Short-range forces on a set of sink rows: the two row evaluators.

Both drivers — the serial box (:class:`~repro.core.simulation.Simulation`)
and one rank's rows (:class:`~repro.parallel.distributed_sim.RankDomain`)
— reach tree gravity and CRKSPH through these two functions only.  Each
takes a :class:`~repro.tree.PairCache` (whose ``box`` is the geometry's),
the particle frame it indexes (the whole box, a rank's owned rows or its
overloaded set; for CRKSPH the gas subset) and the sorted sink rows in
that frame.  ``sinks=None`` is every particle: a full evaluation is the
active one with every row a sink, and a sink's row holds the same bits
whichever sink set it was evaluated in.  Non-sinks are gather-only
sources (paper Section IV-A).
"""

from __future__ import annotations

import numpy as np

from .gravity.short_range import short_range_accelerations
from .sph.hydro import HydroDerivatives, crksph_derivatives_active


def gravity_rows(accel, cache, pos, mass, sinks, cfg, g_newton,
                 ids=None) -> int:
    """Add the pair gravity on ``sinks`` to their rows of ``accel``
    (split scale, softening and cutoff from ``cfg``); returns the pair
    rows streamed."""
    rows = cache.get_for_sinks(pos, cfg.cutoff, sinks, ids=ids)
    everyone = sinks is None
    accel[slice(None) if everyone else sinks] += short_range_accelerations(
        pos, mass, rows.pi, rows.pj,
        r_split=cfg.r_split, softening=cfg.softening, box=cache.box,
        g_newton=g_newton, dx=rows.dx, r2=rows.r2,
        sink_index=None if everyone else np.searchsorted(sinks, rows.pi),
        n_out=None if everyone else len(sinks),
    )
    return len(rows.pi)


def crksph_rows(out, frame_rows, cache, pos, vel, mass, u, h, sinks, kernel,
                eos=None, viscosity=None, ids=None) -> HydroDerivatives:
    """CRKSPH on the gas-frame ``sinks``, written to the driver's
    ``out = (accel, du_dt, vsig)`` at ``frame_rows[sinks]`` (``frame_rows``
    maps a gas-frame index to the driver's row).  Returns the evaluation,
    whose closure fields (``rho`` on ``tier1``) and ``n_pairs`` the caller
    may keep."""
    accel, du_dt, vsig = out
    slices = cache.active_slices(pos, h, sinks, ids=ids)
    d = crksph_derivatives_active(pos, vel, mass, u, h, slices, kernel,
                                  eos=eos, viscosity=viscosity, box=cache.box)
    rows = frame_rows[d.sinks]
    accel[rows] += d.accel
    du_dt[rows] = d.du_dt
    vsig[rows] = d.max_signal_speed
    return d
