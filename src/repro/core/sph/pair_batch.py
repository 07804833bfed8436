"""Shared per-pair batch state for one short-range force evaluation.

A CRKSPH force evaluation needs the same per-pair quantities — periodic
displacements ``dx``, separations ``r``, base kernel values ``W`` and
gradients ``grad W`` — in every stage: number density, CRK moments,
corrected density, symmetrized gradients, and the viscosity limiter.  The
seed implementation re-derived them in each stage; ``PairBatch`` computes
them once and is threaded through the whole stack, mirroring how the GPU
kernels stage shared pair state in registers before streaming the physics
(paper Section IV-B1).  It is the only way pair state reaches a stage: the
batch is built from ``PairRows``, whose displacements ``pair_geometry``
formed where the rows were selected.

The batch keeps pairs sorted by ``pi`` and carries a ``SegmentReducer`` so
every per-particle accumulation is a fast CSR segment reduction instead of
a buffered ``np.add.at`` scatter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ...tree.pair_cache import PairRows
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


def make_pair_batch(rows: PairRows, h, kernel: Kernel, sink_ids=None,
                    n_sinks=None) -> PairBatch:
    """Build the shared pair state of the filtered ``rows``.

    The rows carry their geometry (a ``PairCache`` query measured it, or
    :meth:`~repro.tree.PairRows.measured` for a bare list); the separation
    and base kernel are formed from it here, once.  The rows must be
    sorted by ``pi`` (pair-list builds and cache queries return them so):
    anything else raises ``ValueError``.

    ``sink_ids``/``n_sinks`` switch the segment-reduction plan to compact
    active rows: per-particle accumulations land in row ``sink_ids[p]`` of
    length-``n_sinks`` outputs instead of full-length arrays, while pair
    kernels still index the full ``h``.  This is the batch-level half of
    the active-set evaluation path (paper Section IV-A): inactive
    particles stay gather-only sources.
    """
    pi = np.asarray(rows.pi)
    if len(pi) > 1 and np.any(pi[1:] < pi[:-1]):
        raise ValueError("make_pair_batch requires rows sorted by pi")
    h = np.asarray(h)
    r = np.sqrt(rows.r2)
    if sink_ids is None:
        sink_ids, n_sinks = pi, len(h)
    seg = SegmentReducer(np.asarray(sink_ids), int(n_sinks),
                         assume_sorted=True)
    return PairBatch(
        pi=pi, pj=np.asarray(rows.pj), dx=rows.dx, r=r, n=int(n_sinks),
        kernel=kernel, h=h, seg=seg, w_i=kernel.w(r, h[pi]),
    )
