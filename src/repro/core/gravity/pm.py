"""Particle-mesh (PM) gravity: CIC deposit, spectral Poisson solve, forces.

The long/intermediate-range gravitational field is computed with an
FFT-based Poisson solver on a periodic grid (paper Section IV-A).  The
Green's function carries a high-order spectral filter: CIC deconvolution
plus a Gaussian long-range cutoff ``exp(-k^2 r_s^2)`` that hands the
remaining short-range force to the tree solver on a compact spatial scale.

The Poisson equation solved (comoving form) is

    nabla^2 phi = coeff * (rho - rho_mean),

with ``coeff`` supplied by the caller (``4 pi G / a`` for comoving cosmology,
``4 pi G`` for Newtonian tests).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..scatter import segment_sum


def cic_deposit(pos: np.ndarray, mass: np.ndarray, n: int, box: float) -> np.ndarray:
    """Cloud-in-cell mass deposit onto an n^3 periodic grid.

    Returns the density grid in units of mass per cell volume.
    """
    # the eight stencil deposits accumulate through flat-index segment
    # sums (bincount) rather than buffered np.add.at scatters
    pos = np.asarray(pos, dtype=np.float64)
    mass = np.broadcast_to(np.asarray(mass, dtype=np.float64), (pos.shape[0],))
    cell = box / n
    x = pos / cell - 0.5  # CIC centers at cell centers
    i0 = np.floor(x).astype(np.int64)
    frac = x - i0
    grid = np.zeros(n * n * n)
    for ox in (0, 1):
        wx = frac[:, 0] if ox else 1.0 - frac[:, 0]
        ix = np.mod(i0[:, 0] + ox, n)
        for oy in (0, 1):
            wy = frac[:, 1] if oy else 1.0 - frac[:, 1]
            iy = np.mod(i0[:, 1] + oy, n)
            for oz in (0, 1):
                wz = frac[:, 2] if oz else 1.0 - frac[:, 2]
                iz = np.mod(i0[:, 2] + oz, n)
                flat = (ix * n + iy) * n + iz
                grid += segment_sum(mass * wx * wy * wz, flat, n * n * n)
    return grid.reshape(n, n, n) / cell**3


def cic_interpolate(field: np.ndarray, pos: np.ndarray, box: float) -> np.ndarray:
    """Interpolate a grid field (n^3 or n^3 x C) back to particle positions."""
    n = field.shape[0]
    cell = box / n
    x = np.asarray(pos, dtype=np.float64) / cell - 0.5
    i0 = np.floor(x).astype(np.int64)
    frac = x - i0
    vec = field.ndim == 4
    out_shape = (pos.shape[0], field.shape[3]) if vec else (pos.shape[0],)
    out = np.zeros(out_shape)
    for ox in (0, 1):
        wx = frac[:, 0] if ox else 1.0 - frac[:, 0]
        ix = np.mod(i0[:, 0] + ox, n)
        for oy in (0, 1):
            wy = frac[:, 1] if oy else 1.0 - frac[:, 1]
            iy = np.mod(i0[:, 1] + oy, n)
            for oz in (0, 1):
                wz = frac[:, 2] if oz else 1.0 - frac[:, 2]
                iz = np.mod(i0[:, 2] + oz, n)
                w = wx * wy * wz
                vals = field[ix, iy, iz]
                out += vals * (w[:, None] if vec else w)
    return out


#: module-level memo of spectral tables shared across PMSolver instances,
#: keyed by (n, box, r_split, deconvolve_cic).  Repeated campaign jobs on
#: the same grid shape stop rebuilding the Green's function; the arrays
#: are frozen read-only so sharing is safe.  LRU-bounded.
_GREEN_CACHE: OrderedDict = OrderedDict()
_GREEN_CACHE_MAX = 8
_GREEN_LOCK = threading.Lock()


def clear_green_cache() -> None:
    """Drop the memoized spectral tables (the next solver of each shape
    builds again)."""
    with _GREEN_LOCK:
        _GREEN_CACHE.clear()


def green_tables_nbytes(n: int) -> int:
    """Bytes held by one memo entry (the k2 + green rfft grids dominate)."""
    return 2 * n * n * (n // 2 + 1) * 8


def build_green_tables(n: int, box: float, r_split: float = 0.0,
                       deconvolve_cic: bool = True, *, half_z: bool = True,
                       y_slab: tuple | None = None):
    """The ``(kx, ky, kz, k2, green)`` spectral tables of one grid layout.

    ``green`` is ``-1/k^2`` (zero at k=0) times the Gaussian long-range
    filter ``exp(-k^2 r_split^2)``, divided by the squared CIC window when
    ``deconvolve_cic``.  ``half_z`` selects the z layout: the ``n//2 + 1``
    non-negative frequencies of an rfft (serial :class:`PMSolver`) or all
    ``n`` of a complex FFT (the slab-decomposed rank solve).  ``y_slab``
    ``(start, stop)`` restricts the y axis to one rank's slab.  The wave
    vectors broadcast against ``k2``; every table is frozen read-only.
    """
    ys = slice(None) if y_slab is None else slice(*y_slab)
    zfreq = np.fft.rfftfreq if half_z else np.fft.fftfreq
    dk = 2.0 * np.pi / box
    k1 = np.fft.fftfreq(n, d=1.0 / n) * dk
    kx = k1[:, None, None]
    ky = k1[ys][None, :, None]
    kz = (zfreq(n, d=1.0 / n) * dk)[None, None, :]
    k2 = kx**2 + ky**2 + kz**2
    green = np.zeros_like(k2)
    nz = k2 > 0
    green[nz] = -1.0 / k2[nz]
    if r_split > 0:
        green = green * np.exp(-k2 * r_split**2)
    if deconvolve_cic:
        # np.sinc includes the pi factor; W_cic = sinc^2 per axis (the
        # square of the NGP window), and deposit + interpolation apply it
        # twice
        f1 = np.fft.fftfreq(n)  # cycles per cell
        w = (np.sinc(f1)[:, None, None] * np.sinc(f1[ys])[None, :, None]
             * np.sinc(zfreq(n))[None, None, :])
        green = green / np.maximum((w**2) ** 2, 1e-12)
    tables = (kx, ky, kz, k2, green)
    for arr in tables:
        arr.flags.writeable = False
    return tables


def shared_green_tables(n: int, box: float, r_split: float = 0.0,
                        deconvolve_cic: bool = True):
    """Build-or-fetch the ``(kx, ky, kz, k2, green)`` spectral tables.

    Every :class:`PMSolver` constructs through this memo, so repeated
    solver instances on the same (grid, box, filter order) share one
    read-only Green's function instead of rebuilding it.  Builds and
    reuses are counted as ``pm/green_builds`` / ``pm/green_reuses`` in the
    default metrics registry.
    """
    key = (int(n), float(box), float(r_split), bool(deconvolve_cic))
    with _GREEN_LOCK:
        tables = _GREEN_CACHE.get(key)
        if tables is not None:
            _GREEN_CACHE.move_to_end(key)
            hit = True
    if tables is None:
        hit = False
        tables = build_green_tables(*key)
        with _GREEN_LOCK:
            _GREEN_CACHE[key] = tables
            while len(_GREEN_CACHE) > _GREEN_CACHE_MAX:
                _GREEN_CACHE.popitem(last=False)
    from ...observe import default_observatory

    registry = default_observatory().registry
    registry.counter("pm/green_reuses" if hit else "pm/green_builds").add(1)
    return tables


@dataclass
class PMSolver:
    """Spectrally filtered PM Poisson solver on an n^3 periodic grid.

    Parameters
    ----------
    n : grid cells per dimension
    box : box side length (Mpc/h)
    r_split : Gaussian handover scale r_s in Mpc/h; 0 disables the long-range
        filter (plain PM solve).
    deconvolve_cic : divide by W_CIC^2 to undo deposit+interpolation smoothing
    """

    n: int
    box: float
    r_split: float = 0.0
    deconvolve_cic: bool = True

    def __post_init__(self) -> None:
        #: number of end-to-end PM force evaluations (deposit + FFT solve +
        #: interpolation); the active-set scheduling tests assert the
        #: once-per-PM-step FFT budget through this counter
        self.n_evaluations = 0
        # spectral tables come from the module memo: instances on the same
        # (n, box, r_split, order) share one frozen Green's function
        (self._kx, self._ky, self._kz, self._k2,
         self._green) = shared_green_tables(
            self.n, self.box, self.r_split, self.deconvolve_cic
        )

    def potential_k(self, rho: np.ndarray, coeff: float, rho_mean: float | None = None):
        """Fourier-space potential from a density grid."""
        if rho_mean is None:
            rho_mean = float(rho.mean())
        delta = rho - rho_mean
        return coeff * self._green * np.fft.rfftn(delta)

    def potential(self, rho: np.ndarray, coeff: float, rho_mean: float | None = None):
        """Real-space potential grid."""
        n = self.n
        return np.fft.irfftn(
            self.potential_k(rho, coeff, rho_mean), s=(n, n, n), axes=(0, 1, 2)
        )

    def acceleration_grid(
        self, rho: np.ndarray, coeff: float, rho_mean: float | None = None
    ) -> np.ndarray:
        """Acceleration field -grad(phi) as an (n, n, n, 3) grid.

        Gradients are taken spectrally (ik multiplication), matching the
        low-noise spectral differentiation CRK-HACC uses.
        """
        phik = self.potential_k(rho, coeff, rho_mean)
        n = self.n
        acc = np.empty((n, n, n, 3))
        for axis, kc in enumerate((self._kx, self._ky, self._kz)):
            acc[..., axis] = np.fft.irfftn(-1j * kc * phik, s=(n, n, n), axes=(0, 1, 2))
        return acc

    def accelerations(
        self,
        pos: np.ndarray,
        mass: np.ndarray,
        coeff: float,
        rho_mean: float | None = None,
    ) -> np.ndarray:
        """End-to-end PM accelerations at particle positions."""
        self.n_evaluations += 1
        rho = cic_deposit(pos, mass, self.n, self.box)
        grid = self.acceleration_grid(rho, coeff, rho_mean)
        return cic_interpolate(grid, pos, self.box)
