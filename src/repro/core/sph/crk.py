"""Conservative Reproducing Kernel (CRK) corrections.

Implements the first-order corrected kernel of Frontiere, Raskin & Owen
(2017):

    W^R_ij = A_i [1 + B_i . (x_i - x_j)] W_ij

with the correction fields A (scalar) and B (vector) chosen so the corrected
interpolant exactly reproduces constant and linear functions.  Gradient
corrections (grad A, grad B) are computed as well so corrected kernel
gradients are exact for linear fields.

All routines operate on flat neighbor-pair arrays ``(pi, pj)`` in the gather
convention: pair (i, j) present whenever ``|x_i - x_j| < h_i``, including the
self pair (i, i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import pair_displacements
from ..scatter import segment_sum, segment_sum_csr
from .kernels import Kernel


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


def compute_moments(
    pos: np.ndarray,
    vol: np.ndarray,
    h: np.ndarray,
    pi: np.ndarray,
    pj: np.ndarray,
    kernel: Kernel,
    dx_pairs: np.ndarray | None = None,
    batch=None,
    box=None,
):
    """Compute CRK geometric moments m0, m1, m2 and their gradients.

    Parameters
    ----------
    pos : (N, 3) positions
    vol : (N,) particle volumes
    h : (N,) support radii
    pi, pj : pair index arrays (gather convention, self pair included)
    kernel : base smoothing kernel
    dx_pairs : optional precomputed ``x_i - x_j`` (periodic-wrapped) per pair
    batch : optional ``PairBatch`` carrying shared pair state (supersedes
        ``pi, pj, dx_pairs``)
    box : periodic box the displacements are wrapped in when they are
        formed here (neither ``dx_pairs`` nor ``batch`` given)

    Returns
    -------
    (m0, m1, m2, dm0, dm1, dm2) where gradients are with respect to x_i:
        dm0 : (N, 3)
        dm1 : (N, 3, 3)  dm1[:, a, b] = d m1_b / d x_a
        dm2 : (N, 3, 3, 3) dm2[:, a, b, c] = d m2_bc / d x_a
    """
    n = pos.shape[0]
    if batch is not None:
        # moment accumulation over the batch's shared CSR plan
        w, gw = batch.kernel_i()
        acc = lambda values: segment_sum_csr(batch.seg, values)  # noqa: E731
        return _moments_body(vol[batch.pj], batch.dx, w, gw, acc)
    if dx_pairs is None:
        dx_pairs = pair_displacements(pos, pi, pj, box)
    dx = dx_pairs  # x_i - x_j, shape (P, 3)
    r = np.sqrt(np.sum(dx * dx, axis=-1))
    hi = h[pi]
    w = kernel.w(r, hi)
    # grad_i W_ij = dW/dr * (x_i - x_j)/r
    dwdr = kernel.dw_dr(r, hi)
    with np.errstate(invalid="ignore", divide="ignore"):
        gw = np.where(
            r[:, None] > 0.0,
            dwdr[:, None] * dx / np.maximum(r, 1e-300)[:, None],
            0.0,
        )
    acc = lambda values: segment_sum(values, pi, n)  # noqa: E731
    return _moments_body(vol[pj], dx, w, gw, acc)


#: rows of the per-pair moment buffer: m0 | m1 (3) | m2 upper triangle (6)
#: | dm0 (3) | dm1 sums (3x3) | dm2 sums (3 x 6 upper-triangle) = 40
_SYM_B = np.array([0, 0, 0, 1, 1, 2])
_SYM_C = np.array([0, 1, 2, 1, 2, 2])
#: (b, c) -> upper-triangle index
_SYM = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def _moments_body(vj, dx, w, gw, acc):
    """All six moment sums in one ``acc`` over a ``(P, 40)`` buffer (filled
    as its ``(40, P)`` transpose, so every write is contiguous).

    Only the parts that differ pair to pair are reduced; the delta terms of
    the gradients are per-*particle* because ``sum_j V_j W = m0`` and
    ``sum_j V_j dx_c W = -m1_c`` (``dx = x_i - x_j``):

        dm1[a, b]    = sum_j V_j (-dx_b) gw_a - delta_ab m0
        dm2[a, b, c] = sum_j V_j dx_b dx_c gw_a - delta_ab m1_c - delta_ac m1_b
    """
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
    tot = acc(buf.T)

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


def compute_corrections(
    pos: np.ndarray,
    vol: np.ndarray,
    h: np.ndarray,
    pi: np.ndarray,
    pj: np.ndarray,
    kernel: Kernel,
    dx_pairs: np.ndarray | None = None,
    batch=None,
    box=None,
) -> CRKCorrections:
    """Solve the linear reproducing conditions for A_i and B_i (and grads).

    The conditions  sum_j V_j W^R_ij = 1  and  sum_j V_j (x_j - x_i) W^R_ij = 0
    give (with d_ij = x_i - x_j):

        B_i = m2^{-1} m1,      A_i = 1 / (m0 - B_i . m1)
    """
    m0, m1, m2, dm0, dm1, dm2 = compute_moments(
        pos, vol, h, pi, pj, kernel, dx_pairs=dx_pairs, batch=batch, box=box
    )
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


def corrected_kernel_pairs(
    corrections: CRKCorrections,
    pos: np.ndarray,
    h: np.ndarray,
    pi: np.ndarray,
    pj: np.ndarray,
    kernel: Kernel,
    dx_pairs: np.ndarray | None = None,
    wg=None,
    box=None,
):
    """Evaluate the corrected kernel and its gradient for each pair.

    Returns ``(wr, gwr)`` with ``wr`` shape (P,) and ``gwr`` shape (P, 3);
    the gradient is with respect to ``x_i``.  ``wg`` optionally supplies
    precomputed base-kernel values ``(W_ij, grad_i W_ij)`` for the same
    orientation (e.g. from a ``PairBatch``), skipping their re-derivation.
    Without ``dx_pairs`` the displacements are formed here, wrapped in the
    periodic ``box``.
    """
    if dx_pairs is None:
        dx_pairs = pair_displacements(pos, pi, pj, box)
    dx = dx_pairs
    if wg is not None:
        w, gw = wg
    else:
        r = np.sqrt(np.sum(dx * dx, axis=-1))
        hi = h[pi]
        w = kernel.w(r, hi)
        dwdr = kernel.dw_dr(r, hi)
        with np.errstate(invalid="ignore", divide="ignore"):
            gw = np.where(
                r[:, None] > 0.0,
                dwdr[:, None] * dx / np.maximum(r, 1e-300)[:, None],
                0.0,
            )

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
