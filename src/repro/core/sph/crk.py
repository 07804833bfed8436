"""Conservative Reproducing Kernel (CRK) corrections.

Implements the first-order corrected kernel of Frontiere, Raskin & Owen
(2017):

    W^R_ij = A_i [1 + B_i . (x_i - x_j)] W_ij

with the correction fields A (scalar) and B (vector) chosen so the corrected
interpolant exactly reproduces constant and linear functions.  Gradient
corrections (grad A, grad B) are computed as well so corrected kernel
gradients are exact for linear fields.

All routines read one :class:`~repro.core.sph.pair_batch.PairBatch`: the
pair rows ``(pi, pj)`` in the gather convention — pair (i, j) present
whenever ``|x_i - x_j| < h_i``, the self pair (i, i) included — with the
periodic-wrapped displacements, base kernel values and gradients formed
once for every stage, and the reduction plan over ``pi``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..scatter import segment_sum_csr
from .pair_batch import PairBatch


@dataclass
class CRKCorrections:
    """Per-particle CRK correction coefficients and their gradients."""

    a: np.ndarray  # (N,)
    b: np.ndarray  # (N, 3)
    grad_a: np.ndarray  # (N, 3)
    grad_b: np.ndarray  # (N, 3, 3) grad_b[:, alpha, beta] = d B_beta / d x_alpha


def _invert_spd_batch(m: np.ndarray, eps: float = 1.0e-12) -> np.ndarray:
    """Invert a batch of (near-)SPD 3x3 matrices with Tikhonov fallback.

    Degenerate moment matrices occur for particles with too few neighbors
    (e.g. edge of a non-periodic region); regularization keeps the correction
    finite and falls back toward plain SPH (B -> 0) in that limit.
    """
    m = np.asarray(m, dtype=np.float64)
    trace = np.trace(m, axis1=-2, axis2=-1)
    reg = np.maximum(trace, eps) * eps
    eye = np.eye(3)
    out = np.empty_like(m)
    mm = m + reg[..., None, None] * eye
    try:
        out = np.linalg.inv(mm)
    except np.linalg.LinAlgError:
        for idx in np.ndindex(m.shape[:-2]):
            try:
                out[idx] = np.linalg.inv(mm[idx])
            except np.linalg.LinAlgError:
                out[idx] = np.linalg.pinv(mm[idx])
    return out


#: rows of the per-pair moment buffer: m0 | m1 (3) | m2 upper triangle (6)
#: | dm0 (3) | dm1 sums (3x3) | dm2 sums (3 x 6 upper-triangle) = 40
_SYM_B = np.array([0, 0, 0, 1, 1, 2])
_SYM_C = np.array([0, 1, 2, 1, 2, 2])
#: (b, c) -> upper-triangle index
_SYM = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def compute_moments(vol: np.ndarray, batch: PairBatch):
    """Compute CRK geometric moments m0, m1, m2 and their gradients.

    ``vol`` holds the particle volumes (read at ``batch.pj``); the pair
    geometry, the base kernel at support ``h_i`` and the reduction plan
    come from ``batch``.  All six sums are one reduction over a
    ``(P, 40)`` buffer (filled as its ``(40, P)`` transpose, so every write
    is contiguous).  Only the parts that differ pair to pair are reduced;
    the delta terms of the gradients are per-*particle* because
    ``sum_j V_j W = m0`` and ``sum_j V_j dx_c W = -m1_c``
    (``dx = x_i - x_j``):

        dm1[a, b]    = sum_j V_j (-dx_b) gw_a - delta_ab m0
        dm2[a, b, c] = sum_j V_j dx_b dx_c gw_a - delta_ab m1_c - delta_ac m1_b

    Returns
    -------
    (m0, m1, m2, dm0, dm1, dm2) where gradients are with respect to x_i:
        dm0 : (N, 3)
        dm1 : (N, 3, 3)  dm1[:, a, b] = d m1_b / d x_a
        dm2 : (N, 3, 3, 3) dm2[:, a, b, c] = d m2_bc / d x_a
    """
    buf = moment_rows(vol[batch.pj], batch.w_i, batch.gw_i, batch.dx)
    # the reductions are part of this one kernel call, not reducer calls
    return moments_from_sums(segment_sum_csr(batch.seg, buf.T))


def moment_rows(vj, w, gw, dx) -> np.ndarray:
    """The pair body of :func:`compute_moments`: the ``(40, P)`` moment
    buffer of rows with partner volume ``vj``, base kernel ``w`` and its
    gradient ``gw`` at support ``h_i``, and separation ``dx = x_i - x_j``
    (the ``(P, 40)`` rows, filled through their transpose)."""
    p = len(vj)
    dxt = dx.T
    vw = vj * w
    sym = dxt[_SYM_B] * dxt[_SYM_C]  # dx_b dx_c, b <= c
    buf = np.empty((40, p))
    buf[0] = vw
    np.multiply(dxt, -vw, out=buf[1:4])
    np.multiply(sym, vw, out=buf[4:10])
    vgw = np.multiply(gw.T, vj, out=buf[10:13])
    np.multiply(vgw[:, None], -dxt, out=buf[13:22].reshape(3, 3, p))
    np.multiply(vgw[:, None], sym, out=buf[22:40].reshape(3, 6, p))
    return buf


def moments_from_sums(tot: np.ndarray):
    """``(m0, m1, m2, dm0, dm1, dm2)`` from the per-particle sums ``tot``
    ``(N, 40)`` of :func:`moment_rows`, delta terms included."""
    n = len(tot)
    eye = np.eye(3)
    m0 = tot[:, 0]
    m1 = tot[:, 1:4]
    m2 = tot[:, 4:10][:, _SYM]
    dm0 = tot[:, 10:13]
    dm1 = tot[:, 13:22].reshape(n, 3, 3) - eye * m0[:, None, None]
    dm2 = tot[:, 22:40].reshape(n, 3, 6)[:, :, _SYM]
    dm2 -= eye[:, :, None] * m1[:, None, None, :]
    dm2 -= eye[:, None, :] * m1[:, None, :, None]
    return m0, m1, m2, dm0, dm1, dm2


def compute_corrections(vol: np.ndarray, batch: PairBatch) -> CRKCorrections:
    """Solve the linear reproducing conditions for A_i and B_i (and grads).

    The conditions  sum_j V_j W^R_ij = 1  and  sum_j V_j (x_j - x_i) W^R_ij = 0
    give (with d_ij = x_i - x_j):

        B_i = m2^{-1} m1,      A_i = 1 / (m0 - B_i . m1)
    """
    m0, m1, m2, dm0, dm1, dm2 = compute_moments(vol, batch)
    m2inv = _invert_spd_batch(m2)
    b = np.einsum("nab,nb->na", m2inv, m1)
    denom = m0 - np.einsum("na,na->n", b, m1)
    denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
    a = 1.0 / denom

    # grad B: differentiate m2 B = m1  ->  dm2 B + m2 dB = dm1
    #   dB[:, a, :] = m2inv @ (dm1[:, a, :] - dm2[:, a, :, :] @ B)
    rhs = dm1 - np.einsum("nabc,nc->nab", dm2, b)
    grad_b = np.einsum("nbc,nac->nab", m2inv, rhs)

    # grad A: A = 1/(m0 - B.m1) -> dA = -A^2 (dm0 - dB.m1 - B.dm1)
    d_bm1 = np.einsum("nab,nb->na", grad_b, m1) + np.einsum(
        "nb,nab->na", b, dm1
    )
    grad_a = -(a**2)[:, None] * (dm0 - d_bm1)

    return CRKCorrections(a=a, b=b, grad_a=grad_a, grad_b=grad_b)


def corrected_kernel_values(corrections: CRKCorrections, pi, dx, w):
    """The forward corrected kernel ``W^R_ij = A_i (1 + B_i . dx) W_ij``
    per pair, without its gradient: all a density sum reads.  ``w`` is the
    base kernel at support ``h_i``; the arithmetic is that of
    :func:`corrected_kernel_pairs`, so the values are its bits."""
    b = np.take(corrections.b, pi, axis=0)
    lin = 1.0 + np.einsum("pa,pa->p", b, dx)
    return corrections.a[pi] * lin * w


def corrected_kernel_pairs(corrections: CRKCorrections, pi, dx, w, gw):
    """Evaluate the corrected kernel and its gradient for each pair.

    ``dx = x_i - x_j`` and the base kernel ``(w, gw)`` — ``W_ij`` and its
    gradient with respect to ``x_i`` — are those of one orientation, as a
    ``PairBatch`` holds them (or their mirror for the reverse rows); the
    corrections are read at ``pi``.  Returns ``(wr, gwr)`` with ``wr``
    shape (P,) and ``gwr`` shape (P, 3), the gradient with respect to
    ``x_i``.
    """
    a = corrections.a[pi]
    b = np.take(corrections.b, pi, axis=0)
    ga = np.take(corrections.grad_a, pi, axis=0)
    gb = np.take(corrections.grad_b, pi, axis=0)

    lin = 1.0 + np.einsum("pa,pa->p", b, dx)
    wr = a * lin * w

    # grad_i [A (1 + B.dx) W]
    #   = gradA (1+B.dx) W + A (gradB.dx + B) W + A (1+B.dx) gradW
    term1 = ga * (lin * w)[:, None]
    term2 = a[:, None] * (np.einsum("pab,pb->pa", gb, dx) + b) * w[:, None]
    term3 = (a * lin)[:, None] * gw
    gwr = term1 + term2 + term3
    return wr, gwr
