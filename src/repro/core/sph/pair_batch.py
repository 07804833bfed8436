"""Shared per-pair batch state of one tile of a short-range force evaluation.

A CRKSPH force evaluation needs the same per-pair quantities — periodic
displacements ``dx``, separations ``r``, base kernel values ``W`` and
gradients ``grad W`` — in every stage: number density, CRK moments,
corrected density, symmetrized gradients, and the viscosity limiter.  The
seed implementation re-derived them in each stage; ``PairBatch`` computes
them once and is threaded through the stages, mirroring how the GPU
kernels stage shared pair state in registers before streaming the physics
(paper Section IV-B1).  It is the only way pair state reaches a stage: the
batch is built from ``PairRows``, whose displacements ``pair_geometry``
formed where the rows were selected.

The registers of that analogy are bounded, so a pass never holds the pair
state of the whole list either: ``PairTiles`` cuts the sorted rows into
particle-aligned tiles of at most ``PAIR_TILE_ROWS`` rows and yields one
sub-batch per tile, which reduces into that tile's particles only.  A
pass's temporaries then scale with the tile, not with the pair count, and
since no particle's rows are split, every per-particle sum runs over the
same rows in the same order as over the whole list: the bits do not move.

The batch keeps pairs sorted by ``pi`` and carries a ``SegmentReducer`` so
every per-particle accumulation is a fast CSR segment reduction instead of
a buffered ``np.add.at`` scatter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ...tree.pair_cache import PairRows
from ..scatter import SegmentReducer
from .kernels import Kernel

__all__ = ["PAIR_TILE_ROWS", "PairBatch", "PairTiles", "make_pair_batch",
           "unit_vectors"]

#: most pair rows one tile holds (a particle with more rows is a tile of
#: its own).  The CRK moment pass of a full evaluation at the Sedov
#: benchmark's 24^3 inputs (380k rows, 2-vCPU VM, NumPy 2.4) took 73 ms
#: in tiles of 4096, 66 ms of 8192, 76 ms of 16384 and 123 ms untiled.
PAIR_TILE_ROWS = 8192


@dataclass
class PairBatch:
    """Precomputed pair geometry + kernel state (pairs sorted by ``pi``).

    ``w_i``/``gw_i`` evaluate the base kernel at the *gather* support
    ``h_i`` with the gradient taken with respect to ``x_i`` — what every
    gather-side stage consumes.  Only ``w_i`` is built up front: ``unit``
    and ``gw_i`` are computed on first read (a volume pass never reads
    them).  The mirrored orientation (support ``h_j``, gradient with
    respect to ``x_j``) is needed once per unordered sink pair, so the
    pair-force assembly forms it on those ``pi < pj`` rows only, beside
    the forward values it takes from here.
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
        return unit_vectors(self.dx, self.r)

    @cached_property
    def gw_i(self) -> np.ndarray:
        """grad_i W(r, h_i), (P, 3)."""
        return self.kernel.dw_dr(self.r, self.h[self.pi])[:, None] * self.unit


def unit_vectors(dx: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``dx / r`` per row, zero where ``r == 0``."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(
            r[:, None] > 0.0, dx / np.maximum(r, 1e-300)[:, None], 0.0)


def make_pair_batch(rows: PairRows, h, kernel: Kernel) -> PairBatch:
    """Build the shared pair state of the filtered ``rows``, reducing into
    one output row per particle of ``h``.

    The rows carry their geometry (a ``PairCache`` query measured it, or
    :meth:`~repro.tree.PairRows.measured` for a bare list); the separation
    and base kernel are formed from it here, once.  The rows must be
    sorted by ``pi`` (pair-list builds and cache queries return them so):
    anything else raises ``ValueError``.  A force evaluation streams its
    rows through :class:`PairTiles` instead, one sub-batch per tile.
    """
    pi = _sorted_by_pi(rows)
    return _batch(rows, h, kernel,
                  SegmentReducer(pi, len(h), assume_sorted=True))


def _sorted_by_pi(rows: PairRows) -> np.ndarray:
    pi = np.asarray(rows.pi)
    if len(pi) > 1 and np.any(pi[1:] < pi[:-1]):
        raise ValueError("pair rows must be sorted by pi")
    return pi


def _batch(rows: PairRows, h, kernel: Kernel, seg: SegmentReducer):
    """The batch of ``rows`` whose per-particle sums reduce by ``seg``;
    pair kernels index the full ``h``."""
    pi, h = np.asarray(rows.pi), np.asarray(h)
    r = np.sqrt(rows.r2)
    return PairBatch(
        pi=pi, pj=np.asarray(rows.pj), dx=rows.dx, r=r, n=seg.num_segments,
        kernel=kernel, h=h, seg=seg, w_i=kernel.w(r, h[pi]),
    )


class PairTiles:
    """The rows of the sorted closure ``tier``, cut into particle-aligned
    tiles.

    ``rows`` are sorted by ``pi`` (``ValueError`` otherwise) and every
    ``pi`` is in ``tier``.  The tiles cover ``tier`` in order; each is a
    range of whole particles holding at most :data:`PAIR_TILE_ROWS` rows,
    unless one particle alone has more.  A list no longer than one tile is
    one tile.  Iterating yields ``(sinks, span, batch)`` per tile:
    ``sinks`` slices the closure, ``span`` the rows, and ``batch`` is the
    sub-batch of those rows, reducing into ``len(tier[sinks])`` compact
    outputs.  The plan is cut once and may be iterated by several passes:
    a tile's separations, base kernel and reduction plan are formed on the
    first pass and kept for the next (16 B a row), its gradients per pass.
    """

    def __init__(self, rows: PairRows, tier, h, kernel: Kernel):
        self.rows, self.h, self.kernel = rows, h, kernel
        #: first row of each closure particle, then the row count
        self.bounds = np.append(
            np.searchsorted(_sorted_by_pi(rows), tier), len(rows.pi))
        cuts = [0]
        while cuts[-1] < len(tier):
            k = cuts[-1]
            stop = int(np.searchsorted(
                self.bounds, self.bounds[k] + PAIR_TILE_ROWS, "right")) - 1
            cuts.append(max(stop, k + 1))
        self.cuts = cuts
        self._built = []

    def __iter__(self):
        bounds = self.bounds
        for k, (a, b) in enumerate(zip(self.cuts, self.cuts[1:])):
            span = slice(int(bounds[a]), int(bounds[b]))
            if k == len(self._built):
                self._built.append(_batch(
                    PairRows(*(x[span] for x in self.rows)), self.h,
                    self.kernel,
                    SegmentReducer.from_counts(np.diff(bounds[a:b + 1]))))
            # a fresh batch per pass: the gradients it builds on first read
            # die with the tile
            yield slice(a, b), span, replace(self._built[k])
