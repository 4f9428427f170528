"""Qubit operators and closed-form kernels on stacks of 2x2 Hermitian blocks.

Every kernel takes an array of shape (..., 2, 2), works on all blocks at
once and is closed form. `min_eig`, `psd_project` and `det2` read only a
block's upper triangle: the real part of its diagonal and its (0, 1)
entry. So a caller that cannot vouch for Hermiticity checks
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
    """Kronecker product of matrices, first factor on the left (slow) index; np.kron's products."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], -1)


def herm(h):
    """Hermitian part (h + h^dag)/2 per block."""
    return 0.5 * (h + h.conj().swapaxes(-1, -2))


def anti_herm_norm(h):
    """Frobenius norm of h - h^dag per block."""
    return np.linalg.norm(h - h.conj().swapaxes(-1, -2), axis=(-2, -1))


def _spectrum(h):
    """Per block a, d, b = h00, h11, h01 and m, r with eigenvalues m -+ r."""
    a = h[..., 0, 0].real
    d = h[..., 1, 1].real
    b = h[..., 0, 1]
    m = 0.5 * (a + d)
    r = np.sqrt(0.25 * (a - d) ** 2 + b.real ** 2 + b.imag ** 2)
    return a, d, b, m, r


def min_eig(h):
    """Smallest eigenvalue per 2x2 Hermitian block, closed form."""
    _, _, _, m, r = _spectrum(h)
    return m - r


def psd_project(h):
    """PSD projection per 2x2 Hermitian block, closed form."""
    a, d, b, m, r = _spectrum(h)
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

