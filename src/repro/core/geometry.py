"""Periodic-box geometry helpers (minimum image, wrapping)."""

from __future__ import annotations

import numpy as np


def wrap_positions(pos: np.ndarray, box: float) -> np.ndarray:
    """Wrap positions into [0, box)."""
    return np.mod(pos, box)


def minimum_image(dx: np.ndarray, box) -> np.ndarray:
    """Apply the minimum-image convention to displacement vectors.

    ``box`` is a scalar or a 3-vector; ``box=None`` means a non-periodic
    domain (no-op).  ``dx`` is never modified: ``dx - box*round(dx/box)``
    is formed in one temporary.
    """
    if box is None:
        return dx
    q = dx / box
    np.rint(q, out=q)
    q *= box
    return np.subtract(dx, q, out=q)


def pair_differences(x: np.ndarray, pi: np.ndarray, pj: np.ndarray):
    """``x[pi] - x[pj]`` for row arrays ``(N, k)``; ``np.take`` because
    fancy-indexing rows is the slow path (DESIGN.md "Pair-interaction
    engine" has the measurement)."""
    d = np.take(x, pi, axis=0)
    d -= np.take(x, pj, axis=0)
    return d


def pair_geometry(pos: np.ndarray, pi: np.ndarray, pj: np.ndarray, box):
    """Periodic-wrapped ``x_i - x_j`` and its squared length for each pair.

    The one place a pair displacement is formed: pair-list builds and cache
    queries call it where they select rows, and the rows carry ``(dx, r2)``
    on to the force kernels.
    """
    dx = minimum_image(pair_differences(pos, pi, pj), box)
    return dx, np.einsum("pa,pa->p", dx, dx)


def pair_displacements(
    pos: np.ndarray, pi: np.ndarray, pj: np.ndarray, box: float | None
) -> np.ndarray:
    """Periodic-wrapped x_i - x_j for each pair."""
    return pair_geometry(pos, pi, pj, box)[0]
