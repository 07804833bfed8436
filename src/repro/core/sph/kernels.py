"""Smoothing kernels for SPH/CRKSPH.

All kernels are compactly supported on ``r < h`` (h is the full support
radius, not the scaling length), normalized so that the 3D volume integral
is unity, and vectorized over arrays of separations.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np


class Kernel(ABC):
    """Base class for 3D compact-support smoothing kernels."""

    #: ratio of support radius to the "standard" smoothing scale; informational
    name: str = "kernel"

    @abstractmethod
    def w(self, r, h):
        """Kernel value W(r, h) for separations r and support radius h."""

    @abstractmethod
    def dw_dr(self, r, h):
        """Radial derivative dW/dr."""


class CubicSpline(Kernel):
    """Monaghan & Lattanzio (1985) M4 cubic spline, support radius h."""

    name = "cubic_spline"
    _sigma = 8.0 / math.pi  # 3D normalization for q = r/h in [0, 1]

    def w(self, r, h):
        r = np.asarray(r, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        q = r / h
        out = np.zeros(np.broadcast(q, q).shape, dtype=np.float64)
        inner = q < 0.5
        mid = (q >= 0.5) & (q < 1.0)
        qq = np.broadcast_to(q, out.shape)
        out[inner] = 1.0 - 6.0 * qq[inner] ** 2 + 6.0 * qq[inner] ** 3
        out[mid] = 2.0 * (1.0 - qq[mid]) ** 3
        norm = self._sigma / np.broadcast_to(h, out.shape) ** 3
        return out * norm

    def dw_dr(self, r, h):
        r = np.asarray(r, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        q = r / h
        out = np.zeros(np.broadcast(q, q).shape, dtype=np.float64)
        qq = np.broadcast_to(q, out.shape)
        inner = qq < 0.5
        mid = (qq >= 0.5) & (qq < 1.0)
        out[inner] = -12.0 * qq[inner] + 18.0 * qq[inner] ** 2
        out[mid] = -6.0 * (1.0 - qq[mid]) ** 2
        norm = self._sigma / np.broadcast_to(h, out.shape) ** 4
        return out * norm


class WendlandC2(Kernel):
    """Wendland C2 kernel (Dehnen & Aly 2012), support radius h."""

    name = "wendland_c2"
    _sigma = 21.0 / (2.0 * math.pi)

    def w(self, r, h):
        r = np.asarray(r, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        q = np.clip(r / h, 0.0, 1.0)
        u = 1.0 - q
        val = u**4 * (1.0 + 4.0 * q)
        val = np.where(r / h < 1.0, val, 0.0)
        return val * self._sigma / np.broadcast_to(h, val.shape) ** 3

    def dw_dr(self, r, h):
        r = np.asarray(r, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        q = np.clip(r / h, 0.0, 1.0)
        u = 1.0 - q
        val = -20.0 * q * u**3
        val = np.where(r / h < 1.0, val, 0.0)
        return val * self._sigma / np.broadcast_to(h, val.shape) ** 4


class WendlandC4(Kernel):
    """Wendland C4 kernel, support radius h; CRKSPH's preferred base kernel."""

    name = "wendland_c4"
    _sigma = 495.0 / (32.0 * math.pi)

    def w(self, r, h):
        h = np.asanyarray(h, dtype=np.float64)
        x = np.asanyarray(r, dtype=np.float64) / h
        q = np.clip(x, 0.0, 1.0)
        u = 1.0 - q
        val = u**6 * (1.0 + 6.0 * q + 35.0 / 3.0 * q**2)
        val = np.where(x < 1.0, val, 0.0)
        return val * self._sigma / h**3

    def dw_dr(self, r, h):
        h = np.asanyarray(h, dtype=np.float64)
        x = np.asanyarray(r, dtype=np.float64) / h
        q = np.clip(x, 0.0, 1.0)
        u = 1.0 - q
        # d/dq [u^6 (1 + 6q + 35/3 q^2)] = -56/3 q u^5 (1 + 5q)
        val = -56.0 / 3.0 * q * u**5 * (1.0 + 5.0 * q)
        val = np.where(x < 1.0, val, 0.0)
        return val * self._sigma / h**4


KERNELS = {
    "cubic_spline": CubicSpline,
    "wendland_c2": WendlandC2,
    "wendland_c4": WendlandC4,
}


def get_kernel(name: str) -> Kernel:
    """Instantiate a kernel by registry name."""
    try:
        return KERNELS[name]()
    except KeyError:
        raise ValueError(
            f"unknown kernel {name!r}; choose from {sorted(KERNELS)}"
        ) from None
