"""Short-range gravity: direct pair summation over tree interaction lists.

Evaluates the Plummer-softened, split-complement pair force for every
neighbor pair inside the handover cutoff, once per unordered pair and
applied to both ends, as the GPU solver's leaf-leaf kernels compute an
interaction once for both leaves.  The same cached pair lists that drive
the CRKSPH kernels drive this operator.

A list need not be evaluated whole.  The kernel continues two running
per-particle sums (:class:`PairSums`) row by row, so a caller can stream
a list block by block — ``core.sink_rows.gravity_rows`` queries and
evaluates one ``PairCache`` block at a time — and only one block's pair
state exists at once, as the GPU kernels keep a leaf pair's state in
registers.  The sums continue in row order, so the streamed result is
bitwise that of one call over the whole list.
"""

from __future__ import annotations

import numpy as np

from ...constants import G_COSMO
from ..geometry import pair_geometry
from ..scatter import running_sum
from .force_split import newtonian_pair_kernel, short_range_shape


def require_unordered(pi: np.ndarray, pj: np.ndarray) -> None:
    """Reject a pair list that is not unordered (``pi < pj`` on every
    row): a symmetric list would apply each pair twice to both ends."""
    if np.any(pi >= pj):
        raise ValueError(
            "short-range gravity takes unordered pairs (pi < pj on every "
            "row); a directed or self row would double-count its force"
        )


class PairSums:
    """The running per-particle sums of one unordered pair list: ``a``
    holds each row's term at ``pi``, ``b`` at ``pj``, ``(N, 3)`` each.
    Blocks of the list continue them in turn; the acceleration ``a - b``
    is formed once, after the last block (:meth:`accelerations`)."""

    def __init__(self, n: int):
        self.a = np.zeros((n, 3))
        self.b = np.zeros((n, 3))

    def grow(self, n: int) -> None:
        """Extend the sums with zero rows to ``n`` particles, for a list
        over a frame whose first rows are the ones summed so far."""
        extra = np.zeros((n - len(self.a), 3))
        self.a = np.concatenate((self.a, extra))
        self.b = np.concatenate((self.b, extra))

    def accelerations(self) -> np.ndarray:
        return self.a - self.b


def pair_force_coefficient(r2, r_split: float, softening: float,
                           g_newton: float = G_COSMO):
    """The pair body of :func:`short_range_accelerations`: the coefficient
    ``coef`` with which a row of squared separation ``r2`` adds ``m_j coef
    dx`` at ``pi`` (Newtonian kernel times the split function ``S(r)``,
    over ``r``), zero at zero separation."""
    r = np.sqrt(r2)
    # 0/0 at r == 0 (unsoftened kernel, unit vector): masked just below
    with np.errstate(invalid="ignore", divide="ignore"):
        kern = newtonian_pair_kernel(r, softening)
        if r_split > 0:
            kern = kern * short_range_shape(r, r_split)
        return np.where(r2 > 0, -g_newton * kern / r, 0.0)


def short_range_accelerations(
    pos: np.ndarray,
    mass: np.ndarray,
    pi: np.ndarray,
    pj: np.ndarray,
    r_split: float,
    softening: float,
    box: float | None = None,
    g_newton: float = G_COSMO,
    dx: np.ndarray | None = None,
    r2: np.ndarray | None = None,
    sums: PairSums | None = None,
) -> np.ndarray | None:
    """Acceleration on each particle from short-range pair forces.

    ``pi, pj`` is an unordered pair list (``pi < pj`` on every row, else
    ``ValueError``): each pair's kernel is evaluated once and applied to
    both ends, ``A - B`` with ``A_i`` the sum of ``m_j coef dx`` over the
    rows with ``pi = i`` and ``B_j`` the sum of ``m_i coef dx`` over the
    rows with ``pj = j``, so momentum is conserved pair by pair.  Rows at
    zero separation (coincident particles) contribute exact zeros.  With
    ``r_split=0`` the full Newtonian force is returned (direct summation
    mode, used by force-completeness tests).

    ``dx, r2`` are the rows' geometry as a ``PairCache`` query carries it
    (``core.geometry.pair_geometry``); what is missing is formed here.

    A particle's result sums, in row order, exactly the rows that touch
    it, so it is bitwise the same for any row subset that keeps all of
    them in the same order — what ``PairCache.get_for_sinks`` returns for
    a sink.  A particle some of whose rows are missing gets a partial sum.
    """
    require_unordered(pi, pj)
    if dx is None:
        dx, r2 = pair_geometry(pos, pi, pj, box)  # x_i - x_j
    elif r2 is None:
        r2 = np.einsum("pa,pa->p", dx, dx)
    coef = pair_force_coefficient(r2, r_split, softening, g_newton)
    into = PairSums(pos.shape[0]) if sums is None else sums
    at_i, at_j = mass[pj] * coef, mass[pi] * coef
    for k in range(3):
        running_sum(into.a[:, k], pi, at_i * dx[:, k])
        running_sum(into.b[:, k], pj, at_j * dx[:, k])
    return into.accelerations() if sums is None else None


def direct_accelerations(
    pos: np.ndarray,
    mass: np.ndarray,
    softening: float,
    box: float | None = None,
    g_newton: float = G_COSMO,
) -> np.ndarray:
    """O(N^2) direct Newtonian summation (reference for force tests)."""
    pi, pj = np.triu_indices(pos.shape[0], 1)
    return short_range_accelerations(
        pos, mass, pi, pj, r_split=0.0, softening=softening, box=box,
        g_newton=g_newton,
    )
