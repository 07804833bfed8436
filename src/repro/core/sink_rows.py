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

from .gravity.short_range import PairSums, short_range_accelerations
from .sph.hydro import HydroDerivatives, crksph_derivatives_active


def gravity_rows(accel, cache, pos, mass, sinks, cfg, g_newton,
                 ids=None, sums=None, cross=None) -> int:
    """Add the pair gravity on ``sinks`` to their rows of ``accel``
    (split scale, softening and cutoff from ``cfg``); returns the directed
    ``(sink, source)`` rows covered, self rows included.

    The kernel runs once per unordered pair touching a sink; each sink's
    row sums every pair it is in, in half-list order, so it holds the same
    bits whichever sink set (or frame) it was evaluated in.  The cached
    superset streams one block at a time: each block's rows are queried,
    then continue the kernel's running sums, so no more than one block of
    pair state exists at once, and the sums end on the bits of one pass
    over the whole list.

    One list may also be evaluated in two passes, over two frames.
    ``sums`` are running sums the caller keeps across the passes
    (:class:`PairSums`, grown to ``len(pos)`` rows); a pass with ``accel``
    ``None`` only continues them.  ``cross = m`` names a frame whose first
    ``m`` rows are the sinks' frame of an earlier pass (a rank's owned
    rows, then its ghosts): the pass adds only the rows ``pi < m <= pj``
    (``PairCache.n_blocks``), and ``sinks=None`` is the first ``m`` rows.
    A sink's rows to a later end follow its other rows in the one half
    list over the whole frame, so the two passes sum every sink's rows in
    the order of one pass over that list."""
    if sinks is not None and len(sinks) == 0:
        return 0
    n = len(pos)
    m = n if cross is None else cross
    if sums is None:
        sums = PairSums(n)
    elif len(sums.a) < n:
        sums.grow(n)
    if sinks is not None:
        mark = np.zeros(n, dtype=bool)
        mark[sinks] = True
    # each config scalar is derived from the box: read once, not per block
    cutoff, r_split, softening = cfg.cutoff, cfg.r_split, cfg.softening
    ends = 0
    for block in range(cache.n_blocks(pos, cutoff, ids=ids, cross=cross)):
        rows = cache.get_for_sinks(pos, cutoff, sinks, ids=ids, block=block)
        short_range_accelerations(
            pos, mass, rows.pi, rows.pj,
            r_split=r_split, softening=softening, box=cache.box,
            g_newton=g_newton, dx=rows.dx, r2=rows.r2, sums=sums,
        )
        # with every row a sink, a crossing row has one sink end
        ends += ((1 + (cross is None)) * len(rows.pi) if sinks is None else
                 np.count_nonzero(mark[rows.pi])
                 + np.count_nonzero(mark[rows.pj]))
    if accel is not None:
        acc = sums.accelerations()
        if sinks is None:
            accel += acc[:m]
        else:
            accel[sinks] += acc[sinks]
    # a pair covers one directed row per sink end; every sink also has the
    # self row (r = 0 < cutoff) that an unordered list leaves out
    n_sinks = m if sinks is None else len(sinks)
    return int(ends) + n_sinks * (cache.include_self and cutoff > 0)


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
                                  eos=eos, viscosity=viscosity)
    rows = frame_rows[d.sinks]
    accel[rows] += d.accel
    du_dt[rows] = d.du_dt
    vsig[rows] = d.max_signal_speed
    return d
