"""Lane-level warp-splitting executor (paper Algorithm 1, Section IV-B2).

Executes leaf-leaf interaction kernels exactly the way the GPU does: the
warp is split so half its lanes hold particles from leaf *i* and half from
leaf *j*; separable partials are computed once per lane and exchanged via
register shuffles; every (i, j) pair is visited by rotating partners
through the opposite half-warp.  The executor produces bit-accurate results
(verified against direct summation in tests) while counting FLOPs, memory
traffic, shuffles, and atomics — the quantities behind the paper's
utilization measurements and the warp-splitting ablation.

Stage FLOP costs (``flops_f`` etc.) are *weighted* operation counts per
lane-evaluation following the paper's convention (FMA already counted as 2,
transcendentals as 1); the executor books them plus one transcendental per
pair evaluation for the kernel/exp call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .counters import OpCounters
from .device import GPUSpec


def _lane_scatter_add(out, idx, vals):
    # deliberate atomic model: np.add.at applies duplicate-index updates
    # sequentially in lane order, which is what makes the warp pass
    # bit-reproducible
    np.add.at(out, idx, vals)  # sanitize: allow-scatter


@dataclass(frozen=True)
class SeparablePairKernel:
    """A pairwise kernel phi_ij = combine(f(i), g(j), h(i,j)) (paper Eq. 2).

    ``fields_i``/``fields_j`` name the per-particle state each side loads.
    Stage callables receive dicts of arrays (one entry per lane) and must be
    vectorized.  ``reaction`` controls what leaf j accumulates: 0 = nothing
    (one-sided gather), +1 = phi_ji = +phi_ij (e.g. pair potential energy),
    -1 = phi_ji = -phi_ij (e.g. pairwise force components).
    """

    name: str
    fields_i: tuple
    fields_j: tuple
    f_i: Callable  # f(state_i) -> partial per lane
    g_j: Callable  # g(state_j) -> partial per lane
    h_ij: Callable  # h(pos_i, pos_j, state_i, state_j) -> coupling term
    combine: Callable  # combine(f, g, h) -> phi_ij
    flops_f: int = 2
    flops_g: int = 2
    flops_h: int = 10
    flops_combine: int = 2
    reaction: int = 0
    #: scratch registers beyond the state (temporaries, accumulators)
    scratch_registers: int = 8

    @property
    def flops_per_pair(self) -> int:
        """Weighted FLOPs per pair evaluation (h + combine + transcendental);
        f and g amortize over the half-warp and are excluded here."""
        return self.flops_h + self.flops_combine + 1

    def register_estimate(self, split: bool) -> int:
        """Per-thread register count estimate.

        Naive kernels keep *both* particles' full state (plus position)
        resident; warp splitting stores one side only, receiving the
        partner's partials through shuffles (the paper's register-pressure
        argument for the technique).
        """
        pos_regs = 3
        own = pos_regs + max(len(self.fields_i), len(self.fields_j))
        if split:
            other = 2  # shuffled-in partner partial + distance temp
        else:
            other = pos_regs + max(len(self.fields_i), len(self.fields_j))
        return own + other + self.scratch_registers


def _pad_to(arr: np.ndarray, size: int) -> np.ndarray:
    if len(arr) >= size:
        return arr[:size]
    pad_shape = (size - len(arr),) + arr.shape[1:]
    return np.concatenate([arr, np.zeros(pad_shape, dtype=arr.dtype)])


def execute_leaf_pair_warpsplit(
    kernel: SeparablePairKernel,
    pos_i: np.ndarray,
    state_i: dict,
    pos_j: np.ndarray,
    state_j: dict,
    device: GPUSpec,
    counters: OpCounters | None = None,
    active_i: np.ndarray | None = None,
    compact: bool = False,
):
    """Run one leaf-leaf interaction with warp splitting.

    Returns ``(phi_i, phi_j, counters)``; ``phi_j`` is None for one-sided
    kernels, otherwise the reaction accumulated on leaf j.

    ``active_i`` marks the i-particles whose rows must be computed (mixed
    timestep rungs: inactive rows are not force-evaluated this substep).
    With ``compact=False`` inactive lanes are *predicated off* — issued
    with the tile but masked, wasting issue slots exactly as a divergent
    warp does.  With ``compact=True`` the active i-particles are gathered
    into dense tiles first, so only ``ceil(n_active/half)`` i-tiles issue —
    the paper's mixed-rung compaction.  Predicated results are bit-identical
    to an all-active run on the active rows (lanes keep their tile slots);
    compaction repacks lanes, which permutes each lane's partner-rotation
    order, so its active rows match predication to roundoff (deterministic,
    same pair set — just like lane repacking on real hardware).  Inactive
    rows are exactly zero in both modes.
    """
    counters = counters if counters is not None else OpCounters()
    if active_i is not None and compact:
        sel = np.nonzero(np.asarray(active_i, dtype=bool))[0]
        sub_state = {k: np.asarray(state_i[k])[sel] for k in kernel.fields_i}
        phi_sub, phi_j, counters = execute_leaf_pair_warpsplit(
            kernel, pos_i[sel], sub_state, pos_j, state_j, device, counters
        )
        phi_i = np.zeros(len(pos_i))
        phi_i[sel] = phi_sub
        return phi_i, phi_j, counters

    half = device.warp_size // 2
    ni, nj = len(pos_i), len(pos_j)
    phi_i = np.zeros(ni)
    phi_j = np.zeros(nj) if kernel.reaction else None
    active_arr = (
        np.ones(ni, dtype=bool)
        if active_i is None
        else np.asarray(active_i, dtype=bool)
    )

    bytes_per_i = 4 * (3 + len(kernel.fields_i))
    bytes_per_j = 4 * (3 + len(kernel.fields_j))

    n_tiles_i = (ni + half - 1) // half
    n_tiles_j = (nj + half - 1) // half
    for ti in range(n_tiles_i):
        i_lo = ti * half
        i_idx = np.arange(i_lo, min(i_lo + half, ni))
        i_valid = _pad_to(np.ones(len(i_idx), dtype=bool), half)
        # predication: inactive lanes ride along in the issued tile but do
        # no useful work (their pair_ok is False for every partner)
        i_live = i_valid & _pad_to(active_arr[i_idx], half)
        lane_pos_i = _pad_to(pos_i[i_idx], half)
        lane_state_i = {
            k: _pad_to(np.asarray(state_i[k])[i_idx], half)
            for k in kernel.fields_i
        }
        # one coalesced global read of the i half-warp per tile
        counters.global_load_bytes += int(i_valid.sum()) * bytes_per_i
        f_part = np.broadcast_to(
            np.asarray(kernel.f_i(lane_state_i), dtype=np.float64), (half,)
        )
        counters.fp32_add += kernel.flops_f * half

        acc_i = np.zeros(half)
        for tj in range(n_tiles_j):
            j_lo = tj * half
            j_idx = np.arange(j_lo, min(j_lo + half, nj))
            j_valid = _pad_to(np.ones(len(j_idx), dtype=bool), half)
            lane_pos_j = _pad_to(pos_j[j_idx], half)
            lane_state_j = {
                k: _pad_to(np.asarray(state_j[k])[j_idx], half)
                for k in kernel.fields_j
            }
            counters.global_load_bytes += int(j_valid.sum()) * bytes_per_j
            g_part = np.broadcast_to(
                np.asarray(kernel.g_j(lane_state_j), dtype=np.float64), (half,)
            )
            counters.fp32_add += kernel.flops_g * half

            acc_j = np.zeros(half)
            for t in range(half):
                partner = (np.arange(half) + t) % half
                # shuffles: partner position (packed) + g partial
                counters.shuffles += 2 * half
                pj_pos = lane_pos_j[partner]
                pj_state = {k: v[partner] for k, v in lane_state_j.items()}
                h_term = kernel.h_ij(lane_pos_i, pj_pos, lane_state_i, pj_state)
                phi = kernel.combine(f_part, g_part[partner], h_term)

                pair_ok = i_live & j_valid[partner]
                counters.issued_lane_ops += half
                counters.active_lane_ops += int(pair_ok.sum())
                counters.fp32_add += (kernel.flops_h + kernel.flops_combine) * half
                counters.fp32_transcendental += half
                phi = np.where(pair_ok, phi, 0.0)
                acc_i += phi
                if kernel.reaction:
                    _lane_scatter_add(acc_j, partner, kernel.reaction * phi)
                counters.fp32_add += half  # accumulation add

            if kernel.reaction:
                counters.atomics += int(j_valid.sum())
                counters.global_store_bytes += int(j_valid.sum()) * 4
                _lane_scatter_add(phi_j, j_idx, acc_j[: len(j_idx)])

        counters.atomics += int(i_live.sum())
        counters.global_store_bytes += int(i_live.sum()) * 4
        _lane_scatter_add(phi_i, i_idx, acc_i[: len(i_idx)])

    return phi_i, phi_j, counters


def execute_leaf_pair_naive(
    kernel: SeparablePairKernel,
    pos_i: np.ndarray,
    state_i: dict,
    pos_j: np.ndarray,
    state_j: dict,
    device: GPUSpec,
    counters: OpCounters | None = None,
):
    """Reference one-thread-per-i-particle kernel (no splitting).

    Every thread walks all of leaf j; each warp re-reads the j particle
    from memory (the redundant traffic and register pressure warp splitting
    eliminates).  f and g partials are recomputed per pair.
    """
    counters = counters if counters is not None else OpCounters()
    ni, nj = len(pos_i), len(pos_j)
    phi_i = np.zeros(ni)

    bytes_per_i = 4 * (3 + len(kernel.fields_i))
    bytes_per_j = 4 * (3 + len(kernel.fields_j))
    counters.global_load_bytes += ni * bytes_per_i

    warp = device.warp_size
    n_warps = max((ni + warp - 1) // warp, 1)
    full_i = {k: np.asarray(state_i[k]) for k in kernel.fields_i}

    for j in range(nj):
        sj_scalar = {k: np.asarray(state_j[k])[j] for k in kernel.fields_j}
        sj = {k: np.full(ni, v) for k, v in sj_scalar.items()}
        # each thread issues its own (uncoalesced) read of particle j's
        # record — the redundant global traffic warp splitting replaces
        # with one coalesced tile read plus register shuffles
        counters.global_load_bytes += ni * bytes_per_j
        f_part = np.broadcast_to(
            np.asarray(kernel.f_i(full_i), dtype=np.float64), (ni,)
        )
        g_part = np.broadcast_to(
            np.asarray(kernel.g_j(sj), dtype=np.float64), (ni,)
        )
        h_term = kernel.h_ij(
            pos_i, np.broadcast_to(pos_j[j], pos_i.shape), full_i, sj
        )
        phi_i += kernel.combine(f_part, g_part, h_term)
        counters.issued_lane_ops += n_warps * warp
        counters.active_lane_ops += ni
        counters.fp32_add += (
            kernel.flops_f + kernel.flops_g + kernel.flops_h + kernel.flops_combine + 1
        ) * ni
        counters.fp32_transcendental += ni

    counters.atomics += ni
    counters.global_store_bytes += ni * 4
    return phi_i, None, counters


# -- concrete kernels ----------------------------------------------------------

def sph_density_kernel(h_support: float) -> SeparablePairKernel:
    """rho_i = sum_j m_j W(|r_i - r_j|, h): the density summation kernel."""

    def f_i(state):
        return np.ones_like(state["h"])

    def g_j(state):
        return state["m"]

    def h_ij(pi, pj, si, sj):
        d = pi - pj
        r = np.sqrt(np.einsum("na,na->n", d, d))
        q = np.clip(r / h_support, 0.0, 1.0)
        u = 1.0 - q
        sigma = 495.0 / (32.0 * np.pi) / h_support**3
        return np.where(
            r < h_support, sigma * u**6 * (1 + 6 * q + 35.0 / 3.0 * q**2), 0.0
        )

    return SeparablePairKernel(
        name="sph_density",
        fields_i=("h",),
        fields_j=("m",),
        f_i=f_i,
        g_j=g_j,
        h_ij=h_ij,
        combine=lambda f, g, h: f * g * h,
        flops_f=1,
        flops_g=1,
        flops_h=24,
        flops_combine=2,
    )


def gravity_potential_kernel(softening: float) -> SeparablePairKernel:
    """phi_i = -sum_j m_i m_j / sqrt(r^2 + eps^2): symmetric pair energy
    (each side of the pair receives the same contribution)."""

    def f_i(state):
        return state["m"]

    def g_j(state):
        return state["m"]

    def h_ij(pi, pj, si, sj):
        d = pi - pj
        r2 = np.einsum("na,na->n", d, d)
        near_zero = r2 < 1e-24  # self pair within a leaf
        inv = -1.0 / np.sqrt(r2 + softening**2)
        return np.where(near_zero, 0.0, inv)

    return SeparablePairKernel(
        name="gravity_potential",
        fields_i=("m",),
        fields_j=("m",),
        f_i=f_i,
        g_j=g_j,
        h_ij=h_ij,
        combine=lambda f, g, h: f * g * h,
        flops_f=1,
        flops_g=1,
        flops_h=9,
        flops_combine=2,
        reaction=+1,
    )


def crk_coefficient_kernel(h_support: float) -> SeparablePairKernel:
    """High-order CRK correction-coefficient kernel: the paper's peak-FLOP
    kernel (Section V-B) — heavy per-pair polynomial work, light traffic."""

    def f_i(state):
        return 1.0 / np.maximum(state["vol"], 1e-30)

    def g_j(state):
        return state["vol"]

    def h_ij(pi, pj, si, sj):
        d = pi - pj
        r = np.sqrt(np.einsum("na,na->n", d, d))
        q = np.clip(r / h_support, 0.0, 1.0)
        u = 1.0 - q
        w = u**6 * (1 + 6 * q + 35.0 / 3.0 * q**2)
        # moment-like polynomial tower emulating the m0/m1/m2 work
        poly = 1.0 + q * (0.5 + q * (0.25 + q * (0.125 + q * 0.0625)))
        return np.where(r < h_support, w * poly, 0.0)

    return SeparablePairKernel(
        name="crk_coefficients",
        fields_i=("vol",),
        fields_j=("vol",),
        f_i=f_i,
        g_j=g_j,
        h_ij=h_ij,
        combine=lambda f, g, h: f * g * h,
        flops_f=2,
        flops_g=1,
        flops_h=64,
        flops_combine=2,
        scratch_registers=24,
    )


def hydro_force_like_kernel(h_support: float) -> SeparablePairKernel:
    """A register-heavy kernel shaped like the CRKSPH momentum evaluation.

    Carries the full per-particle hydro state (density, pressure, sound
    speed, smoothing length, mass, volume, viscosity switch, internal
    energy) on each side — the register-pressure profile where warp
    splitting pays off most (paper Section IV-B2).  The evaluated quantity
    is a scalar pair-force magnitude surrogate.
    """
    fields = ("rho", "p", "c", "h", "m", "vol", "balsara", "u")

    def f_i(state):
        return state["vol"] * state["p"] / np.maximum(state["rho"], 1e-30)

    def g_j(state):
        return state["vol"] * state["p"] / np.maximum(state["rho"], 1e-30)

    def h_ij(pi, pj, si, sj):
        d = pi - pj
        r = np.sqrt(np.einsum("na,na->n", d, d))
        q = np.clip(r / h_support, 0.0, 1.0)
        u = 1.0 - q
        dw = -56.0 / 3.0 * q * u**5 * (1.0 + 5.0 * q) / h_support**4
        return np.where(r < h_support, dw, 0.0)

    return SeparablePairKernel(
        name="hydro_force_like",
        fields_i=fields,
        fields_j=fields,
        f_i=f_i,
        g_j=g_j,
        h_ij=h_ij,
        combine=lambda f, g, h: (f + g) * h,
        flops_f=4,
        flops_g=4,
        flops_h=30,
        flops_combine=2,
        reaction=-1,
        scratch_registers=28,
    )


def lennard_jones_kernel(epsilon: float, sigma: float, r_cut: float) -> SeparablePairKernel:
    """Lennard-Jones pair energy: the paper's molecular-dynamics example.

    Warp splitting "generalizes to all CRK-HACC interaction kernels, as
    well as other particle-based methods ... such as Lennard-Jones or
    Coulomb potentials" (Section IV-B2).  phi_ij = 4 eps [(s/r)^12 -
    (s/r)^6] within the cutoff; symmetric, so both leaves accumulate.
    """

    def f_i(state):
        return np.ones_like(next(iter(state.values()))) if state else 1.0

    def g_j(state):
        return np.ones_like(next(iter(state.values()))) if state else 1.0

    def h_ij(pi, pj, si, sj):
        d = pi - pj
        r2 = np.einsum("na,na->n", d, d)
        self_pair = r2 < 1e-24
        r2 = np.maximum(r2, 1e-24)
        s6 = (sigma**2 / r2) ** 3
        val = 4.0 * epsilon * (s6**2 - s6)
        return np.where(self_pair | (r2 > r_cut**2), 0.0, val)

    return SeparablePairKernel(
        name="lennard_jones",
        fields_i=("type",),
        fields_j=("type",),
        f_i=f_i,
        g_j=g_j,
        h_ij=h_ij,
        combine=lambda f, g, h: f * g * h,
        flops_f=1,
        flops_g=1,
        flops_h=14,
        flops_combine=2,
        reaction=+1,
        scratch_registers=10,
    )


def coulomb_kernel(k_e: float, softening: float) -> SeparablePairKernel:
    """Screened Coulomb pair energy: the paper's plasma-physics example."""

    def f_i(state):
        return state["q"]

    def g_j(state):
        return state["q"]

    def h_ij(pi, pj, si, sj):
        d = pi - pj
        r2 = np.einsum("na,na->n", d, d)
        self_pair = r2 < 1e-24
        inv = k_e / np.sqrt(r2 + softening**2)
        return np.where(self_pair, 0.0, inv)

    return SeparablePairKernel(
        name="coulomb",
        fields_i=("q",),
        fields_j=("q",),
        f_i=f_i,
        g_j=g_j,
        h_ij=h_ij,
        combine=lambda f, g, h: f * g * h,
        flops_f=1,
        flops_g=1,
        flops_h=8,
        flops_combine=2,
        reaction=+1,
    )
