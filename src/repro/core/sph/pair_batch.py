"""Shared per-pair batch state for one short-range force evaluation.

A CRKSPH force evaluation needs the same per-pair quantities — periodic
displacements ``dx``, separations ``r``, base kernel values ``W`` and
gradients ``grad W`` — in every stage: number density, CRK moments,
corrected density, symmetrized gradients, and the viscosity limiter.  The
seed implementation re-derived them in each stage; ``PairBatch`` computes
them once and is threaded through the whole stack, mirroring how the GPU
kernels stage shared pair state in registers before streaming the physics
(paper Section IV-B1).

The batch keeps pairs sorted by ``pi`` and carries a ``SegmentReducer`` so
every per-particle accumulation is a fast CSR segment reduction instead of
a buffered ``np.add.at`` scatter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..geometry import pair_geometry
from ..scatter import SegmentReducer
from .kernels import Kernel

__all__ = ["PairBatch", "make_pair_batch"]


@dataclass
class PairBatch:
    """Precomputed pair geometry + kernel state (pairs sorted by ``pi``).

    ``w_i``/``gw_i`` evaluate the base kernel at the *gather* support
    ``h_i`` with the gradient taken with respect to ``x_i`` — what every
    gather-side stage consumes.  Only ``w_i`` is built up front: ``unit``
    and ``gw_i`` are computed on first read (the volume pass of an active
    evaluation never reads them).  The mirrored orientation (support
    ``h_j``, gradient with respect to ``x_j``) is needed once per unordered
    sink pair, so the pair-force assembly forms it on those ``pi < pj``
    rows only, beside the forward gradient it takes from here.
    """

    pi: np.ndarray
    pj: np.ndarray
    dx: np.ndarray  # x_i - x_j, periodic-wrapped, (P, 3)
    r: np.ndarray  # (P,)
    n: int
    kernel: Kernel
    h: np.ndarray
    seg: SegmentReducer  # over pi
    w_i: np.ndarray

    @cached_property
    def unit(self) -> np.ndarray:
        """dx / r (zero for self pairs), (P, 3)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                self.r[:, None] > 0.0,
                self.dx / np.maximum(self.r, 1e-300)[:, None], 0.0,
            )

    @cached_property
    def gw_i(self) -> np.ndarray:
        """grad_i W(r, h_i), (P, 3)."""
        return self.kernel.dw_dr(self.r, self.h[self.pi])[:, None] * self.unit

    def kernel_i(self):
        """(W_ij, grad_i W_ij) at support h_i."""
        return self.w_i, self.gw_i


def make_pair_batch(pos, h, pi, pj, kernel: Kernel, box=None,
                    dx_pairs=None, sink_ids=None, n_sinks=None,
                    r2_pairs=None) -> PairBatch:
    """Build the shared pair state for ``(pi, pj)``.

    Pairs are re-sorted by ``pi`` when necessary (lists from
    ``tree.neighbor_pairs`` and ``tree.pair_cache.PairCache`` arrive
    ``(pi, pj)``-ascending and skip this).  ``dx_pairs``/``r2_pairs`` accept
    the geometry a ``PairCache`` query carries; what is missing is formed
    here.

    ``sink_ids``/``n_sinks`` switch the segment-reduction plan to compact
    active rows: per-particle accumulations land in row ``sink_ids[p]`` of
    length-``n_sinks`` outputs instead of full-length arrays, while pair
    geometry and kernels still index the full ``pos``/``h``.  This is the
    batch-level half of the active-set evaluation path (paper Section
    IV-A): inactive particles stay gather-only sources.
    """
    pi = np.asarray(pi)
    pj = np.asarray(pj)
    if len(pi) > 1 and np.any(pi[1:] < pi[:-1]):
        if sink_ids is not None:
            raise ValueError("sink_ids requires a pi-sorted pair list")
        order = np.argsort(pi, kind="stable")
        pi = pi[order]
        pj = pj[order]
        if dx_pairs is not None:
            dx_pairs = np.asarray(dx_pairs)[order]
        if r2_pairs is not None:
            r2_pairs = np.asarray(r2_pairs)[order]
    if dx_pairs is None:
        dx_pairs, r2_pairs = pair_geometry(pos, pi, pj, box)
    elif r2_pairs is None:
        r2_pairs = np.einsum("pa,pa->p", dx_pairs, dx_pairs)
    r = np.sqrt(r2_pairs)
    if sink_ids is None:
        seg = SegmentReducer(pi, pos.shape[0], assume_sorted=True)
        n_seg = pos.shape[0]
    else:
        n_seg = int(n_sinks)
        seg = SegmentReducer(np.asarray(sink_ids), n_seg, assume_sorted=True)
    return PairBatch(
        pi=pi, pj=pj, dx=dx_pairs, r=r, n=n_seg, kernel=kernel,
        h=np.asarray(h), seg=seg, w_i=kernel.w(r, h[pi]),
    )
