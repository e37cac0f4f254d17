"""Internal Hermitian eigenvalue kernels.

Hot paths dispatch on dimension: 2x2 matrices use the closed form
(mean of the diagonal +/- half the discriminant), everything else goes
through LAPACK via numpy. The public spectral norm is
``spectral_norm_fast``; a LAPACK-free Jacobi reference lives in
``oracle``.

All functions assume the input is already Hermitian; callers validate.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "lammax_single",
    "extremes_batch",
    "max_batch",
    "eigh_single",
    "spectral_norm_fast",
]


def lammax_single(H: np.ndarray) -> float:
    """Largest eigenvalue of one Hermitian matrix."""
    n = H.shape[0]
    if n == 1:
        return float(H[0, 0].real)
    if n == 2:
        a = H[0, 0].real
        d = H[1, 1].real
        b = H[0, 1]
        m = 0.5 * (a + d)
        rad = math.hypot(0.5 * (a - d), abs(b))
        return m + rad
    return float(np.linalg.eigvalsh(H)[-1])


def extremes_batch(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(smallest, largest) eigenvalues along a (K, n, n) Hermitian stack."""
    n = H.shape[-1]
    if n == 1:
        v = H[:, 0, 0].real.copy()
        return v, v.copy()
    if n == 2:
        a = H[:, 0, 0].real
        d = H[:, 1, 1].real
        b = H[:, 0, 1]
        m = 0.5 * (a + d)
        rad = np.sqrt(0.25 * (a - d) ** 2 + b.real**2 + b.imag**2)
        return m - rad, m + rad
    w = np.linalg.eigvalsh(H)
    return w[:, 0], w[:, -1]


def max_batch(H: np.ndarray) -> np.ndarray:
    """Largest eigenvalues along a (K, n, n) Hermitian stack."""
    n = H.shape[-1]
    if n <= 2:
        return extremes_batch(H)[1]
    return np.linalg.eigvalsh(H)[:, -1]


def eigh_single(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full decomposition (ascending eigenvalues, eigenvector columns)."""
    return np.linalg.eigh(H)


def spectral_norm_fast(T: np.ndarray) -> float:
    """Largest singular value, via the top eigenvalue of T*T.

    T is first divided by the power of two s that brings its largest
    entry into [0.5, 1), so that T*T neither underflows nor overflows;
    the division is exact, so the result is the unscaled one wherever
    that does not under- or overflow, and every nonzero T has a positive
    norm."""
    n = T.shape[0]
    # 2^-1000 at least: the power for a subnormal entry would overflow
    s = 2.0 ** max(math.frexp(float(np.abs(T).max()))[1], -1000)
    A = T / s
    G = A.conj().T @ A
    if n == 2:
        lam = lammax_single(G)
    else:
        lam = float(np.linalg.eigvalsh(G)[-1])
    return s * math.sqrt(max(lam, 0.0))
