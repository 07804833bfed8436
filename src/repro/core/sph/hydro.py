"""CRKSPH hydrodynamics: densities, volumes, and conservative pair forces.

The evolution equations follow Frontiere, Raskin & Owen (2017).  For each
symmetric pair (i, j) the antisymmetrized corrected-kernel gradient

    G_ij = grad_i W^R_ij - grad_j W^R_ji

drives momentum and energy exchange:

    dv_i/dt = -(1/m_i) sum_j V_i V_j  Pbar_ij  G_ij
    du_i/dt = +(1/(2 m_i)) sum_j V_i V_j Pbar_ij (v_i - v_j) . G_ij

with Pbar_ij = (P_i + P_j)/2 + q_ij (artificial viscosity pseudo-pressure).
Each one-sided corrected gradient paired with (P_i + P_j)/2 reproduces
half the continuum pressure gradient — the gather side contributes
grad(P)/2 (first-order consistency) and the P_i term vanishes
(zeroth-order) — so the *sum* of the two orientations, not their average,
recovers -grad(P)/rho exactly for linear fields (Section 3.2 there).

Because G_ij = -G_ji and Pbar is symmetric, the pair force is
antisymmetric and the work term symmetric, so the force assembly
evaluates each unordered pair once — the forward orientation (support
h_i, corrections of i) and the mirrored one (support h_j, corrections of
j) on its ``pi < pj`` row — and applies it to both ends.  Total momentum
and total energy are conserved to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ...tree.pair_cache import ActivePairSlices, PairRows
from ..geometry import pair_differences
from ..scatter import running_max, running_sum
from .crk import (
    CRKCorrections,
    compute_corrections,
    corrected_kernel_pairs,
    corrected_kernel_values,
)
from .eos import IdealGasEOS
from .kernels import Kernel
from .pair_batch import PAIR_TILE_ROWS, PairBatch, PairTiles
from .viscosity import MonaghanViscosity, balsara_switch, velocity_divergence_curl


def compute_number_density(batch: PairBatch):
    """SPH number density n_i = sum_j W_ij(h_i) and volumes V_i = 1/n_i."""
    num = np.maximum(batch.seg.sum(batch.w_i), 1e-300)
    return num, 1.0 / num


def compute_density(batch: PairBatch, mass, corrections: CRKCorrections):
    """Corrected mass density rho_i = sum_j m_j W^R_ij; the sum reads only
    the forward value W^R_ij (``corrections`` indexed by particle)."""
    wr = corrected_kernel_values(corrections, batch.pi, batch.dx, batch.w_i)
    return np.maximum(batch.seg.sum(mass[batch.pj] * wr), 1e-300)


def update_smoothing_lengths(
    vol, eta: float = 1.3, n_target: int | None = None, h_old=None,
    h_min: float = 0.0, h_max: float = np.inf, relax: float = 0.5,
):
    """New support radii from current volumes.

    h_i = eta_eff * V_i^(1/3), where eta_eff is chosen so a uniform
    distribution captures roughly ``n_target`` neighbors (if given).  The
    update is relaxed against ``h_old`` for stability during subcycles.
    """
    if n_target is not None:
        # uniform field: neighbors within h = (4/3) pi h^3 / V  -> solve for h
        eta = (3.0 * n_target / (4.0 * np.pi)) ** (1.0 / 3.0)
    h_new = eta * np.asarray(vol) ** (1.0 / 3.0)
    if h_old is not None:
        h_new = relax * h_new + (1.0 - relax) * np.asarray(h_old)
    return np.clip(h_new, h_min, h_max)


@dataclass
class HydroDerivatives:
    """Output of one CRKSPH force evaluation.

    ``accel``/``du_dt``/``max_signal_speed`` are compact, one row per sink
    (``sinks[k]`` is the particle index of row ``k``).  ``rho``/``pressure``
    and ``corrections`` are the freshly evaluated fields on the 1-hop
    closure ``tier1`` (compact, aligned with ``tier1``); ``volume``
    likewise on the 2-hop closure ``tier2``.  When every particle is a
    sink all three index arrays are ``arange(N)`` and every field is
    full-length, in particle order.  ``n_pairs`` counts pair rows streamed
    (diagnostics for ``SubcycleStats``): a full evaluation counts its list
    once.
    """

    sinks: np.ndarray
    accel: np.ndarray  # (S, 3) dv/dt
    du_dt: np.ndarray  # (S,)
    max_signal_speed: np.ndarray  # (S,) per-sink signal velocity (for CFL)
    tier1: np.ndarray
    rho: np.ndarray  # aligned with tier1
    pressure: np.ndarray  # aligned with tier1
    tier2: np.ndarray
    volume: np.ndarray  # aligned with tier2
    corrections: CRKCorrections  # aligned with tier1
    n_pairs: int = 0


def crksph_derivatives(
    pos: np.ndarray,
    vel: np.ndarray,
    mass: np.ndarray,
    u: np.ndarray,
    h: np.ndarray,
    pi: np.ndarray,
    pj: np.ndarray,
    kernel: Kernel,
    eos: IdealGasEOS | None = None,
    viscosity: MonaghanViscosity | None = None,
    box: float | None = None,
) -> HydroDerivatives:
    """Evaluate CRKSPH accelerations and energy derivatives of every
    particle: the evaluation of :func:`crksph_derivatives_active` with
    every row a sink.

    ``pi, pj`` must be a symmetric pair list (both orderings present),
    sorted by ``pi``, that includes self pairs; conservation tests enforce
    this contract.  Its geometry is measured here, in the periodic
    ``box``, as a ``PairCache`` query measures its rows.
    """
    slices = ActivePairSlices.everyone(
        pos.shape[0], PairRows.measured(pos, pi, pj, box))
    return _crksph(pos, vel, mass, u, h, slices, kernel, eos, viscosity)


def crksph_derivatives_active(
    pos: np.ndarray,
    vel: np.ndarray,
    mass: np.ndarray,
    u: np.ndarray,
    h: np.ndarray,
    slices: ActivePairSlices,
    kernel: Kernel,
    eos: IdealGasEOS | None = None,
    viscosity: MonaghanViscosity | None = None,
) -> HydroDerivatives:
    """CRKSPH derivatives for the sinks of an ``ActivePairSlices``.

    Produces, row for row, the accelerations and energy derivatives a
    full evaluation returns for the sink particles — bitwise (asserted),
    since it is the same pipeline over the same CSR-ordered pair rows —
    while touching only the pairs the active rows actually need (paper
    Section IV-A: only active rungs are force-evaluated on a substep).
    Inactive particles participate purely as gather-only sources.
    """
    return _crksph(pos, vel, mass, u, h, slices, kernel, eos, viscosity)


def closure_volumes(tiles: PairTiles) -> np.ndarray:
    """Volumes ``V = 1/n`` of the closure the ``tiles`` cut, tile by tile
    (aligned with it): the number-density pass of an evaluation's tier 2
    and of the smoothing-length refresh."""
    vol = np.empty(len(tiles.bounds) - 1)
    for sinks, _, batch in tiles:
        vol[sinks] = compute_number_density(batch)[1]
    return vol


def _spread(tier, values, n):
    """``values`` (aligned with ``tier``) at their particle rows of a
    length-``n`` staging array: later stages gather neighbor values with
    global indices, and rows outside the closure are never read."""
    if len(tier) == n:
        return values
    out = np.zeros((n,) + values.shape[1:])
    out[tier] = values
    return out


class PairEnds(NamedTuple):
    """The per-particle fields the pair force reads at both ends of a row
    (``balsara`` is the shear limiter ``f``)."""

    corr: CRKCorrections
    vel: np.ndarray
    h: np.ndarray
    cs: np.ndarray
    rho: np.ndarray
    balsara: np.ndarray
    pressure: np.ndarray
    vol: np.ndarray


def pair_force_work(ends: PairEnds, ti, tj, dx, r, w, gw, unit,
                    kernel: Kernel, viscosity: MonaghanViscosity):
    """The pair body of the CRKSPH force: ``(flux, work, speed)`` of the
    unordered rows ``(ti, tj)``.

    ``dx = x_i - x_j``, ``r = |dx|`` and ``unit = dx / r``; ``w, gw`` are
    the forward base kernel and its gradient at support ``h_i``.  ``flux``
    ``(P, 3)`` is the momentum flux of the pair onto ``i`` (``j`` receives
    its negative, ``G_ji = -G_ij``), ``work`` the energy exchange each end
    receives (symmetric: ``dv`` and ``G_ij`` both change sign), ``speed``
    the pair's signal speed for the CFL condition.
    """
    # grad_i W^R_ij at support h_i, and grad_j W^R_ji: corrections of j,
    # separation x_j - x_i = -dx, support h_j, gradient with respect to x_j
    _, g_ij = corrected_kernel_pairs(ends.corr, ti, dx, w, gw)
    hj = ends.h[tj]
    _, g_ji = corrected_kernel_pairs(
        ends.corr, tj, -dx, kernel.w(r, hj),
        -kernel.dw_dr(r, hj)[:, None] * unit)
    g_pair = g_ij - g_ji

    dv = pair_differences(ends.vel, ti, tj)
    rho, cs = ends.rho, ends.cs
    h_ij = 0.5 * (ends.h[ti] + hj)
    c_ij = 0.5 * (cs[ti] + cs[tj])
    rho_ij = 0.5 * (rho[ti] + rho[tj])
    limiter = 0.5 * (ends.balsara[ti] + ends.balsara[tj])

    # viscous pseudo-pressure, symmetric in (i, j).  The 0.25 factor keeps
    # the classic Monaghan strength: G_ij carries twice the one-sided
    # kernel gradient the standard Pi_ij convention pairs with.
    mu = viscosity.mu_pair(dx, dv, h_ij)
    pi_visc = viscosity.pi_pair(mu, c_ij, rho_ij, limiter=limiter)
    q_ij = 0.25 * rho[ti] * rho[tj] * pi_visc

    pbar = 0.5 * (ends.pressure[ti] + ends.pressure[tj]) + q_ij
    vv = ends.vol[ti] * ends.vol[tj]
    flux = (-vv * pbar)[:, None] * g_pair
    work = 0.5 * vv * pbar * np.einsum("pa,pa->p", dv, g_pair)
    # c_i + c_j - min(0, mu_ij)-style estimate, maxed over both ends
    speed = c_ij - 2.0 * np.minimum(mu, 0.0)
    return flux, work, speed


def _crksph(pos, vel, mass, u, h, sl, kernel, eos, viscosity):
    """The CRKSPH pipeline behind both public entry points.

    The dependency closure of the sinks is staged exactly:

    * volumes on the 2-hop closure (``tier2`` pairs; a sink's corrections
      gather its neighbors' volumes, and those neighbors' volumes gather
      one hop further);
    * CRK corrections, corrected density, pressure, sound speed, and the
      Balsara limiter on the 1-hop closure (``tier1`` pairs; the pair force
      reads all of these at both ends of every sink pair);
    * the antisymmetrized pair force, work, and signal speed once per
      unordered pair with an end in ``sinks``, applied to both ends.

    Every pass streams its tier's rows through particle-aligned tiles
    (``PairTiles``, at most ``PAIR_TILE_ROWS`` rows each): a stage reads
    its pair state from the tile's ``PairBatch`` and writes that tile's
    particles, so no pass holds more than one tile of pair temporaries.
    In a ``full`` evaluation the tier-2 rows are the tier-1 rows and one
    tile plan serves both.  A tile never splits a particle's rows, so each
    per-particle sum runs over the same rows in the same order as over the
    whole list.

    Both ends of a sink pair are in tier 1, so its ``pi < pj`` row is a
    tier-1 row: the unordered rows are a mask of the tier-1 rows, in
    half-list order.  The tier-1 pass keeps their forward ``W``, ``grad W``
    and unit vector; the force then walks them in chunks of
    ``PAIR_TILE_ROWS``, and each chunk continues the running sums at both
    ends (``running_sum``) and the running signal-speed max
    (``running_max``), so no per-row force state outlives its chunk.  A
    sink ``i`` is an end of every row that touches it, so its sums ``A_i``
    (rows with ``pi = i``) and ``B_i`` (rows with ``pj = i``) run over the
    same rows in the same order whatever the sink set, and a running sum
    accumulates in row order: a sink's row holds the bits of the full
    evaluation.
    """
    eos = eos or IdealGasEOS()
    viscosity = viscosity or MonaghanViscosity()
    n = pos.shape[0]
    tier1, rows1 = sl.tier1, sl.rows1
    tiles1 = PairTiles(rows1, tier1, h, kernel)
    tiles2 = tiles1 if sl.full else PairTiles(sl.rows2, sl.tier2, h, kernel)
    pi1, pj1 = rows1.pi, rows1.pj

    # -- tier2: volumes (only the base kernel sum) ---------------------------
    vol2 = closure_volumes(tiles2)
    vol = _spread(sl.tier2, vol2, n)

    # -- the unordered sink rows, in half-list order -------------------------
    half = pi1 < pj1
    if sl.mask0 is not None:
        sink = np.zeros(n, dtype=bool)
        sink[sl.sinks] = True
        half &= sl.mask0 | sink[pj1]
    rows = np.flatnonzero(half)
    del half
    w_f = np.empty(len(rows))
    gw_f = np.empty((len(rows), 3))
    unit_f = np.empty((len(rows), 3))

    # -- tier1: corrections, density, divergence and curl --------------------
    n1 = len(tier1)
    corr = CRKCorrections(
        a=np.zeros(n), b=np.zeros((n, 3)), grad_a=np.zeros((n, 3)),
        grad_b=np.zeros((n, 3, 3)),
    )
    rho1, div1, curl1 = np.empty(n1), np.empty(n1), np.empty(n1)
    for sinks, span, batch in tiles1:
        at = sinks if n1 == n else tier1[sinks]
        c = compute_corrections(vol, batch)
        corr.a[at], corr.b[at] = c.a, c.b
        corr.grad_a[at], corr.grad_b[at] = c.grad_a, c.grad_b
        rho1[sinks] = compute_density(batch, mass, corr)
        div1[sinks], curl1[sinks] = velocity_divergence_curl(vel, vol, batch)
        # the tile's sink pairs keep their forward kernel for the force
        lo, hi = np.searchsorted(rows, (span.start, span.stop))
        local = rows[lo:hi] - span.start
        w_f[lo:hi] = batch.w_i[local]
        np.take(batch.gw_i, local, axis=0, out=gw_f[lo:hi])
        np.take(batch.unit, local, axis=0, out=unit_f[lo:hi])
    del tiles1, tiles2
    corr1 = corr if n1 == n else CRKCorrections(
        a=corr.a[tier1], b=corr.b[tier1], grad_a=corr.grad_a[tier1],
        grad_b=corr.grad_b[tier1])
    pressure1 = eos.pressure(rho1, u[tier1])
    cs1 = eos.sound_speed(rho1, u[tier1])
    rho = _spread(tier1, rho1, n)
    pressure = _spread(tier1, pressure1, n)
    cs = _spread(tier1, cs1, n)
    f = _spread(tier1, balsara_switch(div1, curl1, cs1, h[tier1]), n)

    # -- sink pairs: each unordered pair once, applied to both ends ----------
    pi, pj = pi1[rows], pj1[rows]
    ends = PairEnds(corr, vel, h, cs, rho, f, pressure, vol)
    # running sums at each end, continued chunk by chunk in row order
    accel_i, accel_j = np.zeros((n, 3)), np.zeros((n, 3))
    du_i, du_j = np.zeros(n), np.zeros(n)
    v_sig = np.zeros(n)
    for lo in range(0, len(rows), PAIR_TILE_ROWS):
        t = slice(lo, lo + PAIR_TILE_ROWS)
        ti, tj = pi[t], pj[t]
        flux, work, speed = pair_force_work(
            ends, ti, tj, np.take(rows1.dx, rows[t], axis=0),
            np.sqrt(rows1.r2[rows[t]]), w_f[t], gw_f[t], unit_f[t], kernel,
            viscosity)
        m_i, m_j = mass[ti], mass[tj]
        for k in range(3):
            running_sum(accel_i[:, k], ti, flux[:, k] / m_i)
            running_sum(accel_j[:, k], tj, flux[:, k] / m_j)
        running_sum(du_i, ti, work / m_i)
        running_sum(du_j, tj, work / m_j)
        # a max is exact in any order
        running_max(v_sig, ti, speed)
        running_max(v_sig, tj, speed)
    del w_f, gw_f, unit_f

    accel = accel_i - accel_j
    du_dt = du_i + du_j
    # c_i is the self row's value (mu_ii = 0)
    vsig = np.maximum(cs, v_sig)

    return HydroDerivatives(
        sinks=sl.sinks, accel=accel[sl.sinks], du_dt=du_dt[sl.sinks],
        max_signal_speed=vsig[sl.sinks], tier1=tier1, rho=rho1,
        pressure=pressure1, tier2=sl.tier2, volume=vol2, corrections=corr1,
        n_pairs=sl.n_pairs,
    )
