"""CRKSPH hydrodynamics: densities, volumes, and conservative pair forces.

The evolution equations follow Frontiere, Raskin & Owen (2017).  For each
symmetric pair (i, j) the antisymmetrized corrected-kernel gradient

    G_ij = 0.5 * (grad_i W^R_ij - grad_j W^R_ji)

drives momentum and energy exchange:

    dv_i/dt = -(1/m_i) sum_j V_i V_j  Pbar_ij  G_ij
    du_i/dt = +(1/(2 m_i)) sum_j V_i V_j Pbar_ij (v_i - v_j) . G_ij

with Pbar_ij = (P_i + P_j)/2 + q_ij (artificial viscosity pseudo-pressure).
Because G_ij = -G_ji and Pbar is symmetric, total momentum and total energy
are conserved to round-off whenever the pair list is symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import pair_differences, pair_displacements
from ..scatter import SegmentReducer, segment_sum
from .crk import CRKCorrections, compute_corrections, corrected_kernel_pairs
from .eos import IdealGasEOS
from .kernels import Kernel
from .pair_batch import PairBatch, make_pair_batch
from .viscosity import MonaghanViscosity, balsara_switch, velocity_divergence_curl


def compute_number_density(pos, h, pi, pj, kernel, box=None, dx_pairs=None,
                           batch=None):
    """SPH number density n_i = sum_j W_ij(h_i) and volumes V_i = 1/n_i.

    ``dx_pairs`` optionally supplies precomputed displacements; ``batch`` a
    full ``PairBatch`` (shared pair state, supersedes the other pair args).
    """
    n = pos.shape[0]
    if batch is not None:
        num = batch.seg.sum(batch.w_i)
    else:
        if dx_pairs is None:
            dx_pairs = pair_displacements(pos, pi, pj, box)
        r = np.sqrt(np.sum(dx_pairs * dx_pairs, axis=-1))
        num = segment_sum(kernel.w(r, h[pi]), pi, n)
    num = np.maximum(num, 1e-300)
    return num, 1.0 / num


def compute_density(
    pos, mass, h, pi, pj, kernel, corrections: CRKCorrections, box=None,
    dx_pairs=None, batch=None,
):
    """Corrected mass density rho_i = sum_j m_j W^R_ij."""
    n = pos.shape[0]
    if batch is not None:
        wr, _ = corrected_kernel_pairs(
            corrections, pos, h, batch.pi, batch.pj, kernel,
            dx_pairs=batch.dx, wg=batch.kernel_i(),
        )
        rho = batch.seg.sum(mass[batch.pj] * wr)
    else:
        if dx_pairs is None:
            dx_pairs = pair_displacements(pos, pi, pj, box)
        wr, _ = corrected_kernel_pairs(
            corrections, pos, h, pi, pj, kernel, dx_pairs=dx_pairs
        )
        rho = segment_sum(mass[pj] * wr, pi, n)
    return np.maximum(rho, 1e-300)


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
    """Output of one CRKSPH force evaluation."""

    accel: np.ndarray  # (N, 3) dv/dt
    du_dt: np.ndarray  # (N,)
    max_signal_speed: np.ndarray  # (N,) per-particle signal velocity (for CFL)
    rho: np.ndarray
    pressure: np.ndarray
    volume: np.ndarray
    corrections: CRKCorrections


def symmetrized_gradients(corrections, pos, h, pi, pj, kernel, box=None,
                          batch=None):
    """Pairwise antisymmetrized corrected-kernel gradients G_ij.

    G_ij = grad_i W^R_ij - grad_j W^R_ji.  Each one-sided corrected
    gradient reproduces half the continuum pressure gradient when paired
    with (P_i + P_j)/2 — the gather side contributes grad(P)/2 (first-order
    consistency) and the P_i term vanishes (zeroth-order) — so the *sum* of
    the two orientations, not their average, recovers -grad(P)/rho exactly
    for linear fields (Frontiere, Raskin & Owen 2017, Section 3.2).
    Antisymmetry (G_ij = -G_ji) is what makes the pairing conservative.

    Requires a symmetric pair list.  Returns (G, dx) with G of shape (P, 3).
    """
    if batch is not None:
        pi, pj, dx = batch.pi, batch.pj, batch.dx
        wg_ij, wg_ji = batch.kernel_i(), batch.kernel_j()
    else:
        dx = pair_displacements(pos, pi, pj, box)
        wg_ij = wg_ji = None
    _, g_ij = corrected_kernel_pairs(
        corrections, pos, h, pi, pj, kernel, dx_pairs=dx, wg=wg_ij
    )
    # grad_j W^R_ji: corrections of j, separation x_j - x_i = -dx, h_j
    _, g_ji = corrected_kernel_pairs(
        corrections, pos, h, pj, pi, kernel, dx_pairs=-dx, wg=wg_ji
    )
    return g_ij - g_ji, dx


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
    batch: PairBatch | None = None,
    dx_pairs: np.ndarray | None = None,
    r2_pairs: np.ndarray | None = None,
) -> HydroDerivatives:
    """Evaluate CRKSPH accelerations and energy derivatives.

    ``pi, pj`` must be a symmetric pair list (both orderings present) that
    includes self pairs; conservation tests enforce this contract.  Pair
    geometry (taken from ``dx_pairs``/``r2_pairs`` when a ``PairCache``
    query carried it), base kernels, and the CSR reduction plan are
    computed once in a ``PairBatch`` (or accepted prebuilt via ``batch``)
    and shared by every stage.
    """
    eos = eos or IdealGasEOS()
    viscosity = viscosity or MonaghanViscosity()

    if batch is None:
        batch = make_pair_batch(pos, h, pi, pj, kernel, box=box,
                                dx_pairs=dx_pairs, r2_pairs=r2_pairs)
    pi, pj, dx = batch.pi, batch.pj, batch.dx

    _, vol = compute_number_density(pos, h, pi, pj, kernel, batch=batch)
    corrections = compute_corrections(pos, vol, h, pi, pj, kernel, batch=batch)

    # one corrected-kernel evaluation per orientation serves both the
    # density sum (forward W^R) and the antisymmetrized gradient pairing
    wr_ij, g_ij = corrected_kernel_pairs(
        corrections, pos, h, pi, pj, kernel, dx_pairs=dx, wg=batch.kernel_i()
    )
    rho = np.maximum(batch.seg.sum(mass[pj] * wr_ij), 1e-300)
    pressure = eos.pressure(rho, u)
    cs = eos.sound_speed(rho, u)

    # grad_j W^R_ji: corrections of j, separation x_j - x_i = -dx, h_j
    _, g_ji = corrected_kernel_pairs(
        corrections, pos, h, pj, pi, kernel, dx_pairs=-dx, wg=batch.kernel_j()
    )
    g_pair = g_ij - g_ji

    dv = pair_differences(vel, pi, pj)
    h_ij = 0.5 * (h[pi] + h[pj])
    c_ij = 0.5 * (cs[pi] + cs[pj])
    rho_ij = 0.5 * (rho[pi] + rho[pj])

    div_v, curl_v = velocity_divergence_curl(
        pos, vel, vol, h, pi, pj, kernel, batch=batch
    )
    f = balsara_switch(div_v, curl_v, cs, h)
    limiter = 0.5 * (f[pi] + f[pj])

    # viscous pseudo-pressure, symmetric in (i, j).  The 0.25 factor keeps
    # the classic Monaghan strength: G_ij carries twice the one-sided
    # kernel gradient the standard Pi_ij convention pairs with.
    pi_visc = viscosity.pi_pair(dx, dv, h_ij, c_ij, rho_ij, limiter=limiter)
    q_ij = 0.25 * rho[pi] * rho[pj] * pi_visc

    pbar = 0.5 * (pressure[pi] + pressure[pj]) + q_ij
    vv = vol[pi] * vol[pj]
    pair_force = (vv * pbar)[:, None] * g_pair  # momentum flux of pair on i

    accel = batch.seg.sum(-pair_force / mass[pi, None])

    work = 0.5 * vv * pbar * np.einsum("pa,pa->p", dv, g_pair)
    du_dt = batch.seg.sum(work / mass[pi])

    # signal speed for CFL: c_i + c_j - min(0, mu_ij)-style estimate
    mu = viscosity.mu_pair(dx, dv, h_ij)
    vsig_pair = c_ij - 2.0 * np.minimum(mu, 0.0)
    vsig = batch.seg.max(vsig_pair, initial=0.0)

    return HydroDerivatives(
        accel=accel,
        du_dt=du_dt,
        max_signal_speed=vsig,
        rho=rho,
        pressure=pressure,
        volume=vol,
        corrections=corrections,
    )


@dataclass
class ActiveHydroDerivatives:
    """Output of an active-subset CRKSPH force evaluation.

    ``accel``/``du_dt``/``max_signal_speed`` are compact, one row per sink
    (``sinks[k]`` is the particle index of row ``k``).  ``rho``/``pressure``
    are the freshly evaluated densities on the 1-hop closure ``tier1``
    (compact, aligned with ``tier1``); ``volume`` likewise on the 2-hop
    closure ``tier2``.  ``n_pairs`` counts pair rows streamed (diagnostics
    for ``SubcycleStats``).
    """

    sinks: np.ndarray
    accel: np.ndarray  # (S, 3)
    du_dt: np.ndarray  # (S,)
    max_signal_speed: np.ndarray  # (S,)
    tier1: np.ndarray
    rho: np.ndarray  # aligned with tier1
    pressure: np.ndarray  # aligned with tier1
    tier2: np.ndarray
    volume: np.ndarray  # aligned with tier2
    n_pairs: int = 0


def crksph_derivatives_active(
    pos: np.ndarray,
    vel: np.ndarray,
    mass: np.ndarray,
    u: np.ndarray,
    h: np.ndarray,
    slices,
    kernel: Kernel,
    eos: IdealGasEOS | None = None,
    viscosity: MonaghanViscosity | None = None,
    box: float | None = None,
) -> ActiveHydroDerivatives:
    """CRKSPH derivatives for the active sinks of an ``ActivePairSlices``.

    Produces, row for row, the same accelerations and energy derivatives
    ``crksph_derivatives`` would return for the sink particles — to
    round-off, since every stage runs the same per-pair arithmetic over the
    same CSR-ordered pair subsets — while touching only the pairs the
    active rows actually need (paper Section IV-A: only active rungs are
    force-evaluated on a substep).  The dependency closure is staged
    exactly:

    * volumes on the 2-hop closure (``tier2`` pairs; a sink's corrections
      gather its neighbors' volumes, and those neighbors' volumes gather
      one hop further);
    * CRK corrections, corrected density, pressure, sound speed, and the
      Balsara limiter on the 1-hop closure (``tier1`` pairs; the pair force
      reads all of these at both ends of every sink pair);
    * the antisymmetrized pair force, work, and signal speed on the sink
      pairs only, assembled into compact rows without densifying to N.

    Inactive particles participate purely as gather-only sources.
    """
    eos = eos or IdealGasEOS()
    viscosity = viscosity or MonaghanViscosity()
    sl = slices
    n = pos.shape[0]
    n_sinks = len(sl.sinks)
    if n_sinks == 0:
        empty = np.empty(0, dtype=np.intp)
        return ActiveHydroDerivatives(
            sinks=empty, accel=np.zeros((0, 3)), du_dt=np.zeros(0),
            max_signal_speed=np.zeros(0), tier1=empty, rho=np.zeros(0),
            pressure=np.zeros(0), tier2=empty, volume=np.zeros(0),
        )

    # -- tier2: volumes (only the base kernel sum) ---------------------------
    sink2 = np.searchsorted(sl.tier2, sl.pi2)
    b2 = make_pair_batch(pos, h, sl.pi2, sl.pj2, kernel, box=box,
                         dx_pairs=sl.dx2, sink_ids=sink2,
                         n_sinks=len(sl.tier2))
    _, vol2 = compute_number_density(pos, h, sl.pi2, sl.pj2, kernel, batch=b2)
    # full-length staging arrays: later stages gather neighbor values with
    # global indices; rows outside the closure are never read
    vol_full = np.zeros(n)
    vol_full[sl.tier2] = vol2

    # -- tier1: corrections, density, pressure, limiter ----------------------
    sink1 = np.searchsorted(sl.tier1, sl.pi1)
    b1 = make_pair_batch(pos, h, sl.pi1, sl.pj1, kernel, box=box,
                         dx_pairs=sl.dx1, sink_ids=sink1,
                         n_sinks=len(sl.tier1))
    corr1 = compute_corrections(pos, vol_full, h, sl.pi1, sl.pj1, kernel,
                                batch=b1)
    corr_full = CRKCorrections(
        a=np.zeros(n), b=np.zeros((n, 3)),
        grad_a=np.zeros((n, 3)), grad_b=np.zeros((n, 3, 3)),
    )
    corr_full.a[sl.tier1] = corr1.a
    corr_full.b[sl.tier1] = corr1.b
    corr_full.grad_a[sl.tier1] = corr1.grad_a
    corr_full.grad_b[sl.tier1] = corr1.grad_b

    wr1, g_ij1 = corrected_kernel_pairs(
        corr_full, pos, h, sl.pi1, sl.pj1, kernel, dx_pairs=b1.dx,
        wg=b1.kernel_i(),
    )
    rho1 = np.maximum(b1.seg.sum(mass[sl.pj1] * wr1), 1e-300)
    pressure1 = eos.pressure(rho1, u[sl.tier1])
    cs1 = eos.sound_speed(rho1, u[sl.tier1])
    rho_full = np.zeros(n)
    rho_full[sl.tier1] = rho1
    p_full = np.zeros(n)
    p_full[sl.tier1] = pressure1
    cs_full = np.zeros(n)
    cs_full[sl.tier1] = cs1

    div1, curl1 = velocity_divergence_curl(
        pos, vel, vol_full, h, sl.pi1, sl.pj1, kernel, batch=b1
    )
    f_full = np.zeros(n)
    f_full[sl.tier1] = balsara_switch(div1, curl1, cs1, h[sl.tier1])

    # -- sink pairs: antisymmetrized force assembly --------------------------
    m0 = np.flatnonzero(sl.mask0)
    pi0 = sl.pi1[m0]
    pj0 = sl.pj1[m0]
    dx0 = np.take(b1.dx, m0, axis=0)
    r0 = b1.r[m0]
    unit0 = np.take(b1.unit, m0, axis=0)
    g_ij0 = np.take(g_ij1, m0, axis=0)

    # mirrored orientation (support h_j, gradient w.r.t. x_j), sink rows only
    hj0 = h[pj0]
    w_j0 = kernel.w(r0, hj0)
    gw_j0 = -kernel.dw_dr(r0, hj0)[:, None] * unit0
    _, g_ji0 = corrected_kernel_pairs(
        corr_full, pos, h, pj0, pi0, kernel, dx_pairs=-dx0, wg=(w_j0, gw_j0)
    )
    g_pair0 = g_ij0 - g_ji0

    dv0 = pair_differences(vel, pi0, pj0)
    h_ij0 = 0.5 * (h[pi0] + h[pj0])
    c_ij0 = 0.5 * (cs_full[pi0] + cs_full[pj0])
    rho_ij0 = 0.5 * (rho_full[pi0] + rho_full[pj0])
    limiter0 = 0.5 * (f_full[pi0] + f_full[pj0])

    pi_visc0 = viscosity.pi_pair(dx0, dv0, h_ij0, c_ij0, rho_ij0,
                                 limiter=limiter0)
    q0 = 0.25 * rho_full[pi0] * rho_full[pj0] * pi_visc0

    pbar0 = 0.5 * (p_full[pi0] + p_full[pj0]) + q0
    vv0 = vol_full[pi0] * vol_full[pj0]
    pair_force0 = (vv0 * pbar0)[:, None] * g_pair0

    seg0 = SegmentReducer(np.searchsorted(sl.sinks, pi0), n_sinks,
                          assume_sorted=True)
    accel = seg0.sum(-pair_force0 / mass[pi0, None])
    work0 = 0.5 * vv0 * pbar0 * np.einsum("pa,pa->p", dv0, g_pair0)
    du_dt = seg0.sum(work0 / mass[pi0])

    mu0 = viscosity.mu_pair(dx0, dv0, h_ij0)
    vsig = seg0.max(c_ij0 - 2.0 * np.minimum(mu0, 0.0), initial=0.0)

    return ActiveHydroDerivatives(
        sinks=sl.sinks, accel=accel, du_dt=du_dt, max_signal_speed=vsig,
        tier1=sl.tier1, rho=rho1, pressure=pressure1,
        tier2=sl.tier2, volume=vol2, n_pairs=sl.n_pairs,
    )
