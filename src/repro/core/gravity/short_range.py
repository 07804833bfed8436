"""Short-range gravity: direct pair summation over tree interaction lists.

Evaluates the Plummer-softened, split-complement pair force for every
neighbor pair inside the handover cutoff.  The same pair lists that drive
the CRKSPH kernels drive this operator, mirroring the leaf-leaf kernel
structure of the GPU solver.
"""

from __future__ import annotations

import numpy as np

from ...constants import G_COSMO
from ..geometry import pair_displacements
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
) -> np.ndarray:
    """Acceleration on each particle from short-range pair forces.

    ``pi, pj`` is an ordered pair list (self pairs are ignored).  With
    ``r_split=0`` the full Newtonian force is returned (direct summation
    mode, used by force-completeness tests).

    ``sink_index``/``n_out`` switch on compact active-row assembly: forces
    accumulate into row ``sink_index[p]`` of an ``(n_out, 3)`` output
    instead of densifying to the full particle count.  Pair geometry still
    indexes the full ``pos``/``mass`` arrays, so inactive particles remain
    gather-only sources (paper Section IV-A active-rung evaluation).
    """
    n = pos.shape[0] if n_out is None else int(n_out)
    if len(pi) == 0:
        return np.zeros((n, 3))
    keep = pi != pj
    pi = pi[keep]
    pj = pj[keep]
    rows = pi if sink_index is None else np.asarray(sink_index)[keep]
    accel = np.zeros((n, 3))
    # chunk the pair list so peak memory stays bounded regardless of how
    # dense the interaction lists get (each pair costs ~10 temporaries)
    chunk = 2_000_000
    for s in range(0, len(pi), chunk):
        ci = pi[s : s + chunk]
        cj = pj[s : s + chunk]
        crows = rows[s : s + chunk]
        dx = pair_displacements(pos, ci, cj, box)  # x_i - x_j
        r = np.sqrt(np.einsum("pa,pa->p", dx, dx))
        kern = newtonian_pair_kernel(r, softening)
        if r_split > 0:
            kern = kern * short_range_shape(r, r_split)
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = np.where(
                r[:, None] > 0, dx / np.maximum(r, 1e-300)[:, None], 0.0
            )
        contrib = -g_newton * (mass[cj] * kern)[:, None] * unit
        accel += segment_sum(contrib, crows, n)
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
