"""Short-range gravity: direct pair summation over tree interaction lists.

Evaluates the Plummer-softened, split-complement pair force for every
neighbor pair inside the handover cutoff.  The same pair lists that drive
the CRKSPH kernels drive this operator, mirroring the leaf-leaf kernel
structure of the GPU solver.
"""

from __future__ import annotations

import numpy as np

from ...constants import G_COSMO
from ..geometry import pair_geometry
from ..scatter import segment_sum
from .force_split import newtonian_pair_kernel, short_range_shape


def short_range_accelerations(
    pos: np.ndarray,
    mass: np.ndarray,
    pi: np.ndarray,
    pj: np.ndarray,
    r_split: float,
    softening: float,
    box: float | None = None,
    g_newton: float = G_COSMO,
    sink_index: np.ndarray | None = None,
    n_out: int | None = None,
    dx: np.ndarray | None = None,
    r2: np.ndarray | None = None,
) -> np.ndarray:
    """Acceleration on each particle from short-range pair forces.

    ``pi, pj`` is an ordered pair list; rows at zero separation (self
    pairs, coincident particles) contribute exact zeros.  With
    ``r_split=0`` the full Newtonian force is returned (direct summation
    mode, used by force-completeness tests).

    ``dx, r2`` are the rows' geometry as a ``PairCache`` query carries it
    (``core.geometry.pair_geometry``); what is missing is formed here.

    ``sink_index``/``n_out`` switch on compact active-row assembly: forces
    accumulate into row ``sink_index[p]`` of an ``(n_out, 3)`` output
    instead of densifying to the full particle count.  Pair geometry still
    indexes the full ``pos``/``mass`` arrays, so inactive particles remain
    gather-only sources (paper Section IV-A active-rung evaluation).
    """
    n = pos.shape[0] if n_out is None else int(n_out)
    rows = pi if sink_index is None else np.asarray(sink_index)
    accel = np.zeros((n, 3))
    if dx is not None and r2 is None:
        r2 = np.einsum("pa,pa->p", dx, dx)
    # chunk the pair list so peak memory stays bounded regardless of how
    # dense the interaction lists get (each pair costs ~10 temporaries)
    chunk = 2_000_000
    for s in range(0, len(pi), chunk):
        c = slice(s, s + chunk)
        if dx is None:
            cdx, cr2 = pair_geometry(pos, pi[c], pj[c], box)  # x_i - x_j
        else:
            cdx, cr2 = dx[c], r2[c]
        r = np.sqrt(cr2)
        # 0/0 at r == 0 (unsoftened kernel, unit vector): masked just below
        with np.errstate(invalid="ignore", divide="ignore"):
            kern = newtonian_pair_kernel(r, softening)
            if r_split > 0:
                kern = kern * short_range_shape(r, r_split)
            contrib = np.where(
                cr2[:, None] > 0,
                -g_newton * (mass[pj[c]] * kern)[:, None] * (cdx / r[:, None]),
                0.0,
            )
        accel += segment_sum(contrib, rows[c], n)
    return accel


def direct_accelerations(
    pos: np.ndarray,
    mass: np.ndarray,
    softening: float,
    box: float | None = None,
    g_newton: float = G_COSMO,
) -> np.ndarray:
    """O(N^2) direct Newtonian summation (reference for force tests)."""
    n = pos.shape[0]
    idx = np.arange(n)
    pi = np.repeat(idx, n)
    pj = np.tile(idx, n)
    return short_range_accelerations(
        pos, mass, pi, pj, r_split=0.0, softening=softening, box=box,
        g_newton=g_newton,
    )
