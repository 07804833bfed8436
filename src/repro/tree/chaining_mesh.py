"""Chaining mesh (CM): fixed spatial bins for short-range interactions.

The CM grid divides a rank's (or box's) domain into cubical bins roughly
four FFT cells wide (paper Section IV-B1).  All short-range forces operate
only within a bin and its 26 neighbors, so the bin width must be at least
the largest interaction radius.  The bins feed leaf sets and leaf-leaf
interaction lists; the particle-level pair list (``neighbor_pairs``) comes
from a k-d tree search and does no binning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ..core.geometry import pair_geometry


@dataclass
class ChainingMesh:
    """Particles binned on a regular grid with CSR-style bin storage.

    Attributes
    ----------
    n_bins : bins per dimension (3-vector)
    widths : bin widths per dimension
    order : permutation sorting particles by bin id
    bin_start, bin_count : CSR offsets into ``order`` per flat bin id
    bin_index : flat bin id per (unsorted) particle
    periodic : whether neighbor stencils wrap around the domain
    """

    origin: np.ndarray
    extent: np.ndarray
    n_bins: np.ndarray
    widths: np.ndarray
    order: np.ndarray
    bin_start: np.ndarray
    bin_count: np.ndarray
    bin_index: np.ndarray
    periodic: bool

    @property
    def total_bins(self) -> int:
        return int(np.prod(self.n_bins))

    def bin_coords(self, flat: np.ndarray) -> np.ndarray:
        """Flat bin id -> (ix, iy, iz)."""
        nx, ny, nz = (int(v) for v in self.n_bins)
        iz = flat % nz
        iy = (flat // nz) % ny
        ix = flat // (ny * nz)
        return np.stack([ix, iy, iz], axis=-1)

    def flat_index(self, coords: np.ndarray) -> np.ndarray:
        """(ix, iy, iz) -> flat bin id, wrapping if periodic."""
        nx, ny, nz = (int(v) for v in self.n_bins)
        c = np.asarray(coords)
        if self.periodic:
            cx = np.mod(c[..., 0], nx)
            cy = np.mod(c[..., 1], ny)
            cz = np.mod(c[..., 2], nz)
            valid = np.ones(c.shape[:-1], dtype=bool)
        else:
            cx, cy, cz = c[..., 0], c[..., 1], c[..., 2]
            valid = (
                (cx >= 0) & (cx < nx) & (cy >= 0) & (cy < ny) & (cz >= 0) & (cz < nz)
            )
            cx = np.clip(cx, 0, nx - 1)
            cy = np.clip(cy, 0, ny - 1)
            cz = np.clip(cz, 0, nz - 1)
        flat = (cx * ny + cy) * nz + cz
        return np.where(valid, flat, -1)

    def particles_in_bin(self, flat: int) -> np.ndarray:
        """Original particle indices contained in one bin."""
        s = self.bin_start[flat]
        return self.order[s : s + self.bin_count[flat]]


def build_chaining_mesh(
    pos: np.ndarray,
    min_width: float,
    origin=None,
    extent=None,
    periodic: bool = True,
) -> ChainingMesh:
    """Bin particles on a grid with bins at least ``min_width`` wide.

    For a periodic box pass ``origin=0`` and ``extent=box``; otherwise the
    bounding box of the particles (slightly padded) is used.
    """
    pos = np.asarray(pos, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"positions must be (N, 3), got {pos.shape}")
    if min_width <= 0:
        raise ValueError("min_width must be positive")

    if origin is None or extent is None:
        lo = pos.min(axis=0)
        hi = pos.max(axis=0)
        pad = 1e-9 * np.maximum(hi - lo, 1.0)
        origin = lo - pad
        extent = (hi - lo) + 2 * pad
        periodic = False
    origin = np.broadcast_to(np.asarray(origin, dtype=np.float64), (3,)).copy()
    extent = np.broadcast_to(np.asarray(extent, dtype=np.float64), (3,)).copy()

    n_bins = np.maximum(np.floor(extent / min_width).astype(int), 1)
    total_bins = int(np.prod(n_bins.astype(np.float64)))
    if total_bins > 50_000_000:
        raise ValueError(
            f"chaining mesh would need {total_bins:.2e} bins "
            f"(extent {extent}, min_width {min_width}); the particle "
            f"distribution has likely blown up or min_width is too small"
        )
    widths = extent / n_bins

    rel = (pos - origin) / widths
    coords = np.floor(rel).astype(int)
    coords = np.clip(coords, 0, n_bins - 1)
    nx, ny, nz = (int(v) for v in n_bins)
    flat = (coords[:, 0] * ny + coords[:, 1]) * nz + coords[:, 2]

    order = np.argsort(flat, kind="stable")
    total = nx * ny * nz
    bin_count = np.bincount(flat, minlength=total)
    bin_start = np.concatenate([[0], np.cumsum(bin_count)[:-1]])

    return ChainingMesh(
        origin=origin,
        extent=extent,
        n_bins=n_bins,
        widths=widths,
        order=order,
        bin_start=bin_start,
        bin_count=bin_count,
        bin_index=flat,
        periodic=periodic,
    )


NEIGHBOR_OFFSETS = np.array(
    [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)]
)


def neighbor_pairs(
    pos: np.ndarray,
    h: np.ndarray,
    box: float | None = None,
    include_self: bool = True,
):
    """Symmetric neighbor pair lists from a k-d tree half list.

    Returns ordered pair index arrays ``(pi, pj)`` containing every pair with
    ``|x_i - x_j| < max(h_i, h_j)`` in both orientations, plus self pairs if
    requested.  The max-h criterion makes the list symmetric by construction,
    which the conservative CRKSPH pairing requires.

    Rows are in canonical order — ``pi`` ascending, ``pj`` ascending within
    each ``pi`` — whatever the positions' spatial layout.  Consumers rely on
    it: ``make_pair_batch`` requires it, ``SegmentReducer(assume_sorted=True)``
    skips its sort, and a filtered ``PairCache`` query is ``array_equal`` to
    a fresh call.  The list is :func:`directed_pairs` of the unordered
    :func:`half_neighbor_pairs` rows.

    Positions need not lie inside ``[0, box)`` but must be finite
    (``ValueError``).
    """
    h, key = _half_keys(pos, h, box)
    return directed_pairs(
        len(h), *_decoded(key, len(h)),
        np.flatnonzero(0.0 < h * h) if include_self else None)


def half_neighbor_pairs(pos: np.ndarray, h: np.ndarray,
                        box: float | None = None):
    """The unordered half of :func:`neighbor_pairs`: the rows ``pi < pj``
    with ``|x_i - x_j| < max(h_i, h_j)``, sorted by ``pi·N + pj`` (the
    order they have among the ``neighbor_pairs`` rows)."""
    h, key = _half_keys(pos, h, box)
    key.sort()
    return _decoded(key, len(h))


def directed_pairs(n: int, pi: np.ndarray, pj: np.ndarray,
                   self_rows: np.ndarray | None = None):
    """Both orientations of the unordered rows ``(pi, pj)`` over ``n``
    particles, plus ``(i, i)`` for each ``i`` in ``self_rows``, in
    canonical ``(pi, pj)``-ascending order whatever the input order."""
    # one key per directed row: sorting the keys is the canonical order,
    # and decoding them is cheaper than carrying a permutation
    keys = [pi * n + pj, pj * n + pi]
    if self_rows is not None:
        keys.append(self_rows * (n + 1))
    key = np.concatenate(keys)
    key.sort()
    return np.divmod(key, n)


def _decoded(key: np.ndarray, n: int):
    """``divmod(key, n)`` with the quotient written over ``key``: the
    decode holds two row arrays, not three."""
    pj = key % n
    key //= n
    return key, pj


#: most superset rows measured at a time: the build applies the exact
#: criterion to its candidates in chunks of this many, and a gravity query
#: answers the stored superset in blocks of this many
#: (``PairCache.n_blocks``).  Larger than the CRKSPH tile because each
#: gravity block pays some 60 NumPy calls of fixed cost (the sweep is in
#: DESIGN.md, "Working set").
PAIR_BLOCK_ROWS = 32768


def _half_keys(pos, h, box):
    """``(h, key)``: the supports broadcast to ``(N,)`` and the unsorted
    keys ``a·N + b`` of the rows ``a < b`` with
    ``|x_a - x_b| < max(h_a, h_b)``.

    A dual-tree ``query_pairs`` at a slightly padded ``max(h)`` yields the
    candidates; membership is then decided by the minimum-image arithmetic
    of ``pair_geometry`` on the caller's positions, so the tree (built on a
    wrapped copy when periodic) only has to return a superset.  The
    criterion runs ``PAIR_BLOCK_ROWS`` candidates at a time and keeps only
    the kept rows' keys, and the candidate array goes before the keys are
    joined, so the build never holds geometry for the whole candidate set.
    """
    pos = np.asarray(pos, dtype=np.float64)
    n = pos.shape[0]
    h = np.broadcast_to(np.asarray(h, dtype=np.float64), (n,))
    if n == 0:
        return h, np.empty(0, dtype=np.int64)

    hmax = float(h.max())
    if hmax <= 0:
        raise ValueError("search radii must be positive")
    if box is None:
        tree = cKDTree(pos)
    else:
        boxv = np.broadcast_to(np.asarray(box, dtype=np.float64), (3,))
        # cKDTree rejects coordinates outside [0, box); mod can round up to
        # exactly box (e.g. for -1e-17), which is the same point as 0
        wrapped = np.mod(pos, boxv)
        tree = cKDTree(np.where(wrapped >= boxv, 0.0, wrapped), boxsize=boxv)
    # padded well past the rounding differences (~1e-16 relative, a few
    # ulps of the box from wrapping) between the tree's distances and the
    # filter's
    half = tree.query_pairs(hmax * (1.0 + 1e-9), output_type="ndarray")
    del tree

    # exact criterion; dx -> -dx leaves r2 bitwise unchanged, so deciding the
    # i < j orientation decides both
    keys = []
    for lo in range(0, len(half), PAIR_BLOCK_ROWS):
        a, b = half[lo:lo + PAIR_BLOCK_ROWS].T
        _, r2 = pair_geometry(pos, a, b, box)
        rmax = np.maximum(h[a], h[b])
        keep = np.flatnonzero(r2 < rmax * rmax)
        keys.append(np.take(a, keep) * n + np.take(b, keep))
    del half
    return h, (np.concatenate(keys) if keys
               else np.empty(0, dtype=np.int64))
