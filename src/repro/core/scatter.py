"""Fast segment reductions for per-pair scatter accumulation.

A per-pair sum onto particles is a scatter with duplicate indices.  Over a
whole pair list it is a *segment* reduction — runs of equal values in the
index array — which ``np.bincount`` computes in any index order for 1-D
values and ``np.add.reduceat`` / ``np.maximum.reduceat`` compute over a
sorted-CSR layout for any trailing value shape.  This mirrors the GPU
solver, which streams pair interactions from compact CSR interaction lists
instead of scattering through global atomics (paper Section IV-B1).

The buffered ufunc scatters ``np.add.at`` / ``np.maximum.at`` are only slow
in one form.  Measured at 148k rows into 1,024 particles (NumPy 2.4.6,
2-vCPU VM, random / sorted ids): a 1-D ``add.at`` takes 0.21 / 0.47 ms
against 0.23 / 0.51 ms for the ``bincount``, but a 2-D ``(P, 3)``
``add.at`` takes 6.2 / 6.1 ms against 1.3 / 2.2 ms for the three
``bincount`` calls of :func:`segment_sum`.  The lint rule
``sanitize/rules/scatter.py``
keeps the slow form out.  The 1-D form lives here as :func:`running_sum`
and :func:`running_max`, which continue one per-particle sum (or max) over
a list streamed in blocks: both add in row order, so a sum continued block
by block is bitwise the ``bincount`` over the whole list.  On NumPy
releases without the ``ufunc.at`` fast path (before 1.25) they are slower,
but the bits are the same.

``SegmentReducer`` precomputes the CSR plan (sort permutation + segment
starts) once per pair list, so the many reductions of a single force
evaluation — and of every force evaluation reusing a cached pair list — pay
the sort at most once.  Pair lists stored sorted by ``pi`` (as
``tree.pair_cache.PairCache`` and ``sph.pair_batch.PairBatch`` keep them)
skip the sort entirely.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SegmentReducer", "running_max", "running_sum", "segment_max",
           "segment_sum", "segment_sum_csr"]


def _ids_sorted(ids: np.ndarray) -> bool:
    return len(ids) < 2 or bool(np.all(ids[1:] >= ids[:-1]))


def _max_fill(dtype: np.dtype, initial: float):
    """``initial`` cast into ``dtype``, mapping ``-inf`` on integer dtypes
    to the dtype's minimum (the identity of integer max)."""
    if dtype.kind in "iu" and np.isinf(initial):
        info = np.iinfo(dtype)
        return dtype.type(info.min if initial < 0 else info.max)
    return dtype.type(initial)


class SegmentReducer:
    """Reusable sorted-CSR reduction plan over one segment-id array.

    Parameters
    ----------
    segment_ids : (P,) integer ids in ``[0, num_segments)``
    num_segments : output length
    assume_sorted : skip the (O(P)) sortedness check and trust the caller
    """

    def __init__(self, segment_ids, num_segments: int, assume_sorted: bool = False):
        ids = np.asarray(segment_ids)
        if ids.dtype.kind not in "iu":
            ids = ids.astype(np.intp)
        self.num_segments = int(num_segments)
        if len(ids) and int(ids.max()) >= self.num_segments:
            raise IndexError(
                f"segment id {int(ids.max())} out of range for "
                f"{self.num_segments} segments"
            )
        if assume_sorted or _ids_sorted(ids):
            self.order = None
        else:
            self.order = np.argsort(ids, kind="stable")
            ids = ids[self.order]
        self._plan(np.bincount(ids, minlength=self.num_segments))

    @classmethod
    def from_counts(cls, counts) -> SegmentReducer:
        """The plan of sorted ids holding ``counts[k]`` copies of each
        ``k``, formed without the ids: a range of CSR rows knows its
        segment lengths already."""
        plan = cls.__new__(cls)
        plan.num_segments, plan.order = len(counts), None
        plan._plan(np.asarray(counts))
        return plan

    def _plan(self, counts: np.ndarray) -> None:
        starts = np.concatenate([[0], np.cumsum(counts)])[: self.num_segments]
        self.nonempty = counts > 0
        # reduceat over only the non-empty starts: consecutive non-empty
        # starts bracket exactly one segment's elements (empty segments
        # contribute no elements in between), sidestepping reduceat's
        # idx[k] == idx[k+1] pitfall
        self._starts_ne = starts[self.nonempty].astype(np.intp)

    def _permuted(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values)
        return v if self.order is None else v[self.order]

    def sum(self, values) -> np.ndarray:
        """Per-segment sum; accumulates in the dtype of ``values``."""
        return segment_sum_csr(self, values)

    def max(self, values, initial: float = 0.0) -> np.ndarray:
        """Per-segment max; empty segments yield ``initial`` and non-empty
        ones are clamped below at it — the same result as ``np.maximum.at``
        on an ``initial``-filled output.

        ``initial`` defaults to ``0.0`` for backward compatibility, which
        **clamps all-negative segments to zero**.  Pass
        ``initial=-np.inf`` for a true unclamped maximum; on integer
        values it maps safely to the dtype's minimum instead of
        overflowing.
        """
        v = self._permuted(values)
        fill = _max_fill(v.dtype, initial)
        out = np.full((self.num_segments,) + v.shape[1:], fill, dtype=v.dtype)
        if len(self._starts_ne):
            out[self.nonempty] = np.maximum(
                np.maximum.reduceat(v, self._starts_ne, axis=0), fill
            )
        return out


def segment_sum_csr(plan: SegmentReducer, values) -> np.ndarray:
    """``plan.sum(values)`` as a plain function: the body of
    :meth:`SegmentReducer.sum`, for a fused kernel (the CRK moments) whose
    internal reductions are part of one kernel call, not reducer calls of
    their own."""
    v = plan._permuted(values)
    out = np.zeros((plan.num_segments,) + v.shape[1:], dtype=v.dtype)
    if len(plan._starts_ne):
        out[plan.nonempty] = np.add.reduceat(v, plan._starts_ne, axis=0)
    return out


def segment_sum(values, segment_ids, num_segments: int,
                assume_sorted: bool = False) -> np.ndarray:
    """One-shot ``out[i] = sum(values[segment_ids == i])``.

    Drop-in replacement for ``np.add.at(zeros, ids, values)``: duplicate ids
    accumulate, ids may arrive in any order, empty segments stay zero.
    Float64 values take the sort-free ``np.bincount`` path (one call per
    trailing component); other dtypes reduce via sorted ``np.add.reduceat``
    to preserve the accumulation dtype (the FP32 path accumulates in FP32,
    like the GPU kernels it stands in for).
    """
    v = np.asarray(values)
    ids = np.asarray(segment_ids)
    n_trail = int(np.prod(v.shape[1:], dtype=np.int64)) if v.ndim > 1 else 1
    if v.dtype == np.float64 and n_trail <= 8:
        if len(ids) == 0:
            return np.zeros((num_segments,) + v.shape[1:])
        if int(ids.max()) >= num_segments:
            raise IndexError(
                f"segment id {int(ids.max())} out of range for "
                f"{num_segments} segments"
            )
        if v.ndim == 1:
            return np.bincount(ids, weights=v, minlength=num_segments)[
                :num_segments
            ]
        flat = v.reshape(len(v), n_trail)
        out = np.empty((num_segments, n_trail))
        for k in range(n_trail):
            out[:, k] = np.bincount(
                ids, weights=flat[:, k], minlength=num_segments
            )[:num_segments]
        return out.reshape((num_segments,) + v.shape[1:])
    return SegmentReducer(ids, num_segments, assume_sorted=assume_sorted).sum(v)


def segment_max(values, segment_ids, num_segments: int, initial: float = 0.0,
                assume_sorted: bool = False) -> np.ndarray:
    """One-shot ``out[i] = max(values[segment_ids == i])`` (``initial`` where
    a segment is empty, and a floor under non-empty ones).  Replaces
    ``np.maximum.at`` on an ``initial``-filled output.  Use
    ``initial=-np.inf`` for an unclamped maximum — safe on integer values
    too, where it maps to the dtype's minimum."""
    return SegmentReducer(
        segment_ids, num_segments, assume_sorted=assume_sorted
    ).max(values, initial=initial)


def _running_target(out) -> np.ndarray:
    if np.ndim(out) != 1:
        raise ValueError(
            f"a running reduction continues a 1-D target, got shape "
            f"{np.shape(out)}: reduce each component into its own column"
        )
    return out


def running_sum(out: np.ndarray, ids, values) -> None:
    """Continue the per-segment sums ``out`` with the rows ``(ids,
    values)``: ``out[ids[k]] += values[k]`` for each row ``k`` in order.

    A list streamed in blocks, each block's rows passed in turn, ends on
    exactly the bits of one ``np.bincount(ids, weights=values)`` over the
    whole list added to ``out``: both accumulate in row order.  ``out``
    must be 1-D (``ValueError``); a column view of a ``(N, 3)`` array is.
    """
    np.add.at(_running_target(out), ids, values)  # sanitize: allow-scatter


def running_max(out: np.ndarray, ids, values) -> None:
    """Continue the per-segment maxima ``out`` with the rows ``(ids,
    values)``.  A max is exact in any order, so a list streamed in blocks
    ends on the bits of :meth:`SegmentReducer.max` over the whole list
    with ``out`` as the initial value.  ``out`` must be 1-D
    (``ValueError``)."""
    np.maximum.at(_running_target(out), ids, values)  # sanitize: allow-scatter
