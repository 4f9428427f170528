"""Qubit operators and closed-form kernels on stacks of 2x2 Hermitian blocks.

Every kernel takes an array of shape (..., 2, 2) and works on all blocks
at once. `min_eig`, `psd_project` and `det2` are closed form and read a
block's upper triangle only (the real part of the diagonal and the (0, 1)
entry); `mat_pow` goes through `np.linalg.eigh`, which reads the lower
triangle. So a caller that cannot vouch for Hermiticity checks
`anti_herm_norm` or symmetrizes with `herm` first.
"""

from __future__ import annotations

import numpy as np

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Basis convention: index 0 is the excited level, index 1 the ground level.
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

KET_E = np.array([1.0, 0.0], dtype=complex)
KET_G = np.array([0.0, 1.0], dtype=complex)


def kron(a, b) -> np.ndarray:
    """Kronecker product, first factor on the left (slow) index."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def herm(h):
    """Hermitian part (h + h^dag)/2 per block."""
    return 0.5 * (h + h.conj().swapaxes(-1, -2))


def anti_herm_norm(h):
    """Frobenius norm of h - h^dag per block."""
    return np.linalg.norm(h - h.conj().swapaxes(-1, -2), axis=(-2, -1))


def min_eig(h):
    """Smallest eigenvalue per 2x2 Hermitian block, closed form."""
    a = h[..., 0, 0].real
    d = h[..., 1, 1].real
    b = h[..., 0, 1]
    m = 0.5 * (a + d)
    r = np.sqrt(0.25 * (a - d) ** 2 + b.real ** 2 + b.imag ** 2)
    return m - r


def psd_project(h):
    """PSD projection per 2x2 Hermitian block, closed form."""
    a = h[..., 0, 0].real
    d = h[..., 1, 1].real
    b = h[..., 0, 1]
    m = 0.5 * (a + d)
    r = np.sqrt(0.25 * (a - d) ** 2 + b.real ** 2 + b.imag ** 2)
    lp, lm = m + r, m - r
    clp, clm = np.maximum(lp, 0.0), np.maximum(lm, 0.0)
    f = (clp - clm) / (2.0 * np.where(r > 0, r, 1.0))
    out = np.empty_like(h)
    out[..., 0, 0] = clm + f * (a - lm)
    out[..., 1, 1] = clm + f * (d - lm)
    out[..., 0, 1] = f * b
    out[..., 1, 0] = f * b.conj()
    return out


def det2(h):
    """Determinant per 2x2 Hermitian block."""
    return (h[..., 0, 0].real * h[..., 1, 1].real
            - (h[..., 0, 1].real ** 2 + h[..., 0, 1].imag ** 2))


def mat_pow(h, p):
    """h**p for PSD blocks; eigenvalues floored so roundoff negatives
    cannot poison fractional or negative powers."""
    w, v = np.linalg.eigh(h)
    floor = 1e-16 * np.maximum(np.abs(w).max(axis=-1, keepdims=True), 1e-200)
    w = np.maximum(w, floor)
    return np.einsum("...ij,...j,...kj->...ik", v, w ** p, v.conj())
