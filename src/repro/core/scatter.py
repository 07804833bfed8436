"""Fast segment reductions for per-pair scatter accumulation.

``np.add.at`` / ``np.maximum.at`` (buffered ufunc scatters) are the dominant
per-pair cost of a NumPy short-range solver: they honor duplicate indices by
processing one element at a time.  The same reductions expressed over
*segments* — runs of equal values in the index array — run 5-10x faster via
``np.bincount`` (any index order, 1-D values) or ``np.add.reduceat`` /
``np.maximum.reduceat`` over a sorted-CSR layout (any trailing value shape).
This mirrors the GPU solver, which streams pair interactions from compact CSR
interaction lists instead of scattering through global atomics (paper
Section IV-B1).

``SegmentReducer`` precomputes the CSR plan (sort permutation + segment
starts) once per pair list, so the many reductions of a single force
evaluation — and of every force evaluation reusing a cached pair list — pay
the sort at most once.  Pair lists stored sorted by ``pi`` (as
``tree.pair_cache.PairCache`` and ``sph.pair_batch.PairBatch`` keep them)
skip the sort entirely.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SegmentReducer", "segment_sum", "segment_max", "segment_sum_csr"]


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
