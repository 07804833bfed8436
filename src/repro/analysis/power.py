"""Matter power spectrum measurement from particle distributions.

CIC-deposits particles onto a grid, FFTs the density contrast, deconvolves
the assignment window, and averages |delta_k|^2 in spherical k shells —
the standard estimator used for the in situ clustering statistics.
"""

from __future__ import annotations

import numpy as np

from ..core.gravity.pm import cic_deposit


def measure_power_spectrum(
    pos: np.ndarray,
    mass: np.ndarray,
    box: float,
    n_grid: int = 64,
    n_bins: int | None = None,
    deconvolve: bool = True,
    subtract_shot_noise: bool = False,
):
    """Binned P(k) of a particle set.

    Returns (k_centers, p_k) with k in h/Mpc and P in (Mpc/h)^3.  Empty
    bins return NaN.
    """
    pos = np.asarray(pos, dtype=np.float64)
    n_part = len(pos)
    rho = cic_deposit(pos, mass, n_grid, box)
    mean = rho.mean()
    if mean <= 0:
        raise ValueError("empty density grid")
    delta = rho / mean - 1.0

    delta_k = np.fft.rfftn(delta)
    dk = 2.0 * np.pi / box
    k1 = np.fft.fftfreq(n_grid, d=1.0 / n_grid) * dk
    kz = np.fft.rfftfreq(n_grid, d=1.0 / n_grid) * dk
    kmag = np.sqrt(
        k1[:, None, None] ** 2 + k1[None, :, None] ** 2 + kz[None, None, :] ** 2
    )

    pk3d = np.abs(delta_k) ** 2 * box**3 / n_grid**6

    if deconvolve:
        fx = np.fft.fftfreq(n_grid)
        fz = np.fft.rfftfreq(n_grid)
        w = (
            np.sinc(fx)[:, None, None]
            * np.sinc(fx)[None, :, None]
            * np.sinc(fz)[None, None, :]
        ) ** 2  # CIC window
        pk3d = pk3d / np.maximum(w**2, 1e-12)

    if n_bins is None:
        n_bins = n_grid // 2
    k_ny = np.pi * n_grid / box
    edges = np.linspace(dk * 0.5, k_ny, n_bins + 1)
    idx = np.digitize(kmag.ravel(), edges)
    pk_flat = pk3d.ravel()

    counts = np.bincount(idx, minlength=n_bins + 2)[1 : n_bins + 1]
    sums = np.bincount(idx, weights=pk_flat, minlength=n_bins + 2)[1 : n_bins + 1]
    ksums = np.bincount(idx, weights=kmag.ravel(), minlength=n_bins + 2)[
        1 : n_bins + 1
    ]
    with np.errstate(invalid="ignore"):
        pk = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        kc = np.where(counts > 0, ksums / np.maximum(counts, 1), np.nan)

    if subtract_shot_noise:
        pk = pk - box**3 / n_part
    return kc, pk
