"""Lane-level warp-splitting executor (paper Algorithm 1, Section IV-B2).

Executes leaf-leaf interaction kernels exactly the way the GPU does: the
warp is split so half its lanes hold particles from leaf *i* and half from
leaf *j*; separable partials are computed once per lane and exchanged via
register shuffles; every (i, j) pair is visited by rotating partners
through the opposite half-warp.  The executor produces bit-accurate results
(verified against direct summation in tests) while counting FLOPs, memory
traffic, shuffles, and atomics — the quantities behind the paper's
utilization measurements and the warp-splitting ablation.

The CRK-HACC kernels here run the ``core`` pair functions themselves (the
Wendland kernel, the split gravity coefficient, the CRK moment rows, the
CRKSPH pair force), so there is one definition of each pair body.  Stage
FLOPs are counted, not set: each stage runs once on probe lanes of
:class:`~repro.gpusim.counters.CountingArray` (paper convention: FMA = 2,
transcendental = 1), and the executors book that per-lane count for every
lane that runs the stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Callable, NamedTuple

import numpy as np

from ..core.gravity.short_range import pair_force_coefficient
from ..core.sph.crk import CRKCorrections, moment_rows
from ..core.sph.hydro import PairEnds, pair_force_work
from ..core.sph.kernels import WendlandC4
from ..core.sph.pair_batch import unit_vectors
from ..core.sph.viscosity import MonaghanViscosity
from .counters import OpCounters, count_flops
from .device import GPUSpec

#: per-particle fields that are not scalars (the CRK corrections and the
#: velocity the hydro force reads); every other field is one word
FIELD_SHAPES = {"vel": (3,), "b": (3,), "grad_a": (3,), "grad_b": (3, 3)}

_PROBE_LANES = 4
_PROBE_POS = np.random.default_rng(0).uniform(0.0, 0.2, (2, _PROBE_LANES, 3))


def _words(fields) -> int:
    """Words of per-particle state the ``fields`` hold."""
    return sum(prod(FIELD_SHAPES.get(k, ())) for k in fields)


def _lane_scatter_add(out, idx, vals):
    # deliberate atomic model: np.add.at applies duplicate-index updates
    # sequentially in lane order, which is what makes the warp pass
    # bit-reproducible
    np.add.at(out, idx, vals)  # sanitize: allow-scatter


class StageCounts(NamedTuple):
    """One lane's counted FLOPs of each stage, and the shape of one pair's
    ``phi_ij`` (``()`` for a scalar kernel)."""

    f: OpCounters
    g: OpCounters
    h: OpCounters
    combine: OpCounters
    shape: tuple


@dataclass(frozen=True)
class SeparablePairKernel:
    """A pairwise kernel phi_ij = combine(f(i), g(j), h(i,j)) (paper Eq. 2).

    ``fields_i``/``fields_j`` name the per-particle state each side loads.
    Stage callables receive dicts of arrays (one entry per lane) and must be
    vectorized; ``phi_ij`` is a scalar or a vector per pair.  ``reaction``
    controls what leaf j accumulates: 0 = nothing (one-sided gather), +1 =
    phi_ji = +phi_ij (e.g. pair potential energy), -1 = phi_ji = -phi_ij
    (e.g. pairwise force components), or one such sign per component.
    """

    name: str
    fields_i: tuple
    fields_j: tuple
    f_i: Callable  # f(state_i) -> partial per lane
    g_j: Callable  # g(state_j) -> partial per lane
    h_ij: Callable  # h(pos_i, pos_j, state_i, state_j) -> coupling term
    combine: Callable  # combine(f, g, h) -> phi_ij
    reaction: int | tuple = 0
    #: scratch registers beyond the state (temporaries, accumulators)
    scratch_registers: int = 8

    @cached_property
    def stages(self) -> StageCounts:
        """Each stage run once on probe lanes, its FLOPs counted."""
        lanes = _PROBE_LANES

        def probe(fields):
            return {k: np.ones((lanes,) + FIELD_SHAPES.get(k, ()))
                    for k in fields}

        si, sj = probe(self.fields_i), probe(self.fields_j)
        f, f_ops = count_flops(self.f_i, si, lanes=lanes)
        g, g_ops = count_flops(self.g_j, sj, lanes=lanes)
        h, h_ops = count_flops(self.h_ij, *_PROBE_POS, si, sj, lanes=lanes)
        phi, c_ops = count_flops(self.combine, f, g, h, lanes=lanes)
        return StageCounts(f_ops, g_ops, h_ops, c_ops, np.shape(phi)[1:])

    def register_estimate(self, split: bool) -> int:
        """Per-thread register count estimate.

        Naive kernels keep *both* particles' full state (plus position)
        resident; warp splitting stores one side only, receiving the
        partner's partials through shuffles (the paper's register-pressure
        argument for the technique).
        """
        pos_regs = 3
        own = pos_regs + max(_words(self.fields_i), _words(self.fields_j))
        if split:
            other = 2  # shuffled-in partner partial + distance temp
        else:
            other = own
        return own + other + self.scratch_registers


def _pad_to(arr: np.ndarray, size: int) -> np.ndarray:
    if len(arr) >= size:
        return arr[:size]
    pad_shape = (size - len(arr),) + arr.shape[1:]
    return np.concatenate([arr, np.zeros(pad_shape, dtype=arr.dtype)])


# padded lanes hold zero state, so a kernel may divide by zero there: their
# results are masked off, as a GPU ignores its disabled lanes
@np.errstate(divide="ignore", invalid="ignore")
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
    stages = kernel.stages
    if active_i is not None and compact:
        sel = np.nonzero(np.asarray(active_i, dtype=bool))[0]
        sub_state = {k: np.asarray(state_i[k])[sel] for k in kernel.fields_i}
        phi_sub, phi_j, counters = execute_leaf_pair_warpsplit(
            kernel, pos_i[sel], sub_state, pos_j, state_j, device, counters
        )
        phi_i = np.zeros((len(pos_i),) + stages.shape)
        phi_i[sel] = phi_sub
        return phi_i, phi_j, counters

    half = device.warp_size // 2
    ni, nj = len(pos_i), len(pos_j)
    comps = prod(stages.shape)
    phi_i = np.zeros((ni,) + stages.shape)
    phi_j = np.zeros((nj,) + stages.shape) if kernel.reaction else None
    active_arr = (
        np.ones(ni, dtype=bool)
        if active_i is None
        else np.asarray(active_i, dtype=bool)
    )

    n_tiles_i = (ni + half - 1) // half
    n_tiles_j = (nj + half - 1) // half
    # f once per i lane, g once per j lane of every tile pair, h and
    # combine plus the accumulation adds (both sides for a reaction
    # kernel) once per lane of every rotation
    rotations = n_tiles_i * n_tiles_j * half
    counters.book(stages.f, n_tiles_i * half)
    counters.book(stages.g, n_tiles_i * n_tiles_j * half)
    counters.book(stages.h, rotations * half)
    counters.book(stages.combine, rotations * half)
    sides = 2 if kernel.reaction else 1
    counters.fp32_add += sides * comps * rotations * half
    lane = (slice(None),) + (None,) * len(stages.shape)
    bytes_per_i = 4 * (3 + _words(kernel.fields_i))
    bytes_per_j = 4 * (3 + _words(kernel.fields_j))
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

        acc_i = np.zeros((half,) + stages.shape)
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

            acc_j = np.zeros((half,) + stages.shape)
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
                phi = np.where(pair_ok[lane], phi, 0.0)
                acc_i += phi
                if kernel.reaction:
                    _lane_scatter_add(acc_j, partner,
                                      np.multiply(kernel.reaction, phi))

            if kernel.reaction:
                counters.atomics += int(j_valid.sum()) * comps
                counters.global_store_bytes += int(j_valid.sum()) * 4 * comps
                _lane_scatter_add(phi_j, j_idx, acc_j[: len(j_idx)])

        counters.atomics += int(i_live.sum()) * comps
        counters.global_store_bytes += int(i_live.sum()) * 4 * comps
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
    stages = kernel.stages
    comps = prod(stages.shape)
    ni, nj = len(pos_i), len(pos_j)
    phi_i = np.zeros((ni,) + stages.shape)

    bytes_per_i = 4 * (3 + _words(kernel.fields_i))
    bytes_per_j = 4 * (3 + _words(kernel.fields_j))
    counters.global_load_bytes += ni * bytes_per_i

    warp = device.warp_size
    n_warps = max((ni + warp - 1) // warp, 1)
    full_i = {k: np.asarray(state_i[k]) for k in kernel.fields_i}

    for j in range(nj):
        sj = {}
        for k in kernel.fields_j:
            row = np.asarray(state_j[k])[j]
            sj[k] = np.broadcast_to(row, (ni,) + row.shape)
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

    # every stage and the accumulation adds once per pair
    for ops in (stages.f, stages.g, stages.h, stages.combine):
        counters.book(ops, ni * nj)
    counters.fp32_add += comps * ni * nj
    counters.atomics += ni * comps
    counters.global_store_bytes += ni * 4 * comps
    return phi_i, None, counters


# -- concrete kernels ----------------------------------------------------------

def _no_partial(state):
    return 1.0


def _separation(pos_i, pos_j):
    """``(x_i - x_j, |x_i - x_j|)`` per lane."""
    d = pos_i - pos_j
    return d, np.sqrt(np.einsum("na,na->n", d, d))


def sph_density_kernel() -> SeparablePairKernel:
    """rho_i = sum_j m_j W(|r_i - r_j|, h_i): the density summation kernel
    over the Wendland C4 kernel of ``core.sph``, at the gather support."""
    kernel = WendlandC4()

    def h_ij(pi, pj, si, sj):
        return kernel.w(_separation(pi, pj)[1], si["h"])

    return SeparablePairKernel(
        name="sph_density",
        fields_i=("h",),
        fields_j=("m",),
        f_i=_no_partial,
        g_j=lambda s: s["m"],
        h_ij=h_ij,
        combine=lambda f, g, h: g * h,
    )


def short_range_gravity_kernel(r_split: float,
                               softening: float) -> SeparablePairKernel:
    """F_ij = m_i m_j coef(r) (x_i - x_j): the short-range gravity pair
    force, its coefficient that of ``short_range_accelerations``
    (``pair_force_coefficient``); leaf j receives -F_ij, so
    ``phi / m`` is each end's acceleration."""

    def h_ij(pi, pj, si, sj):
        d = pi - pj
        coef = pair_force_coefficient(np.einsum("na,na->n", d, d), r_split,
                                      softening)
        return coef[:, None] * d

    return SeparablePairKernel(
        name="short_range_gravity",
        fields_i=("m",),
        fields_j=("m",),
        f_i=lambda s: s["m"],
        g_j=lambda s: s["m"],
        h_ij=h_ij,
        combine=lambda f, g, h: (f * g)[:, None] * h,
        reaction=-1,
    )


def crk_coefficient_kernel() -> SeparablePairKernel:
    """The CRK correction-coefficient kernel: each pair's 40 moment rows
    (``core.sph.crk.moment_rows``), gathered at the support ``h_i`` — the
    paper's peak-FLOP kernel (Section V-B).  The i-side sum is what
    ``compute_moments`` reduces (``moments_from_sums`` unpacks it)."""
    kernel = WendlandC4()

    def h_ij(pi, pj, si, sj):
        d, r = _separation(pi, pj)
        h = si["h"]
        gw = kernel.dw_dr(r, h)[:, None] * unit_vectors(d, r)
        return kernel.w(r, h), gw, d

    return SeparablePairKernel(
        name="crk_coefficients",
        fields_i=("h",),
        fields_j=("vol",),
        f_i=_no_partial,
        g_j=lambda s: s["vol"],
        h_ij=h_ij,
        combine=lambda f, g, h: moment_rows(g, *h).T,
        scratch_registers=24,
    )


#: the per-particle state of the hydro force kernel: the CRK corrections,
#: then the ``PairEnds`` fields
HYDRO_FIELDS = ("a", "b", "grad_a", "grad_b") + PairEnds._fields[1:]


def hydro_force_kernel() -> SeparablePairKernel:
    """The CRKSPH pair force and work (``core.sph.hydro.pair_force_work``)
    over each unordered pair: ``phi_ij`` is the momentum flux onto i and
    the work, and leaf j receives ``(-flux, +work)``.

    Carries the full per-particle hydro state on each side (corrections,
    velocity, support, sound speed, density, limiter, pressure, volume) —
    the register-pressure profile where warp splitting pays off most
    (paper Section IV-B2).
    """
    kernel, viscosity = WendlandC4(), MonaghanViscosity()

    def h_ij(pi, pj, si, sj):
        d, r = _separation(pi, pj)
        unit = unit_vectors(d, r)
        h = si["h"]
        both = {k: np.concatenate([si[k], sj[k]]) for k in HYDRO_FIELDS}
        ends = PairEnds(
            CRKCorrections(*(both[k] for k in HYDRO_FIELDS[:4])),
            *(both[k] for k in HYDRO_FIELDS[4:]))
        lanes = np.arange(len(r))
        flux, work, _ = pair_force_work(
            ends, lanes, lanes + len(r), d, r, kernel.w(r, h),
            kernel.dw_dr(r, h)[:, None] * unit, unit, kernel, viscosity)
        return np.concatenate([flux, work[:, None]], axis=1)

    return SeparablePairKernel(
        name="hydro_force",
        fields_i=HYDRO_FIELDS,
        fields_j=HYDRO_FIELDS,
        f_i=_no_partial,
        g_j=_no_partial,
        h_ij=h_ij,
        combine=lambda f, g, h: h,
        reaction=(-1, -1, -1, 1),
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
        reaction=+1,
    )
