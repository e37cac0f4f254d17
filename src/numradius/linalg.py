"""Dense complex matrix substrate: adjoints, rotated Hermitian parts,
the top Hermitian eigenpair and the spectral norm (both via LAPACK),
rank-one builder, and the package's private eigenvalue kernels.

Conventions
-----------
Matrices are numpy ``complex128`` arrays, square, with every entry
finite, and dimension 1 <= n <= 64. The inner product is
``<x, y> = sum_i x[i] * conj(y[i])`` (conjugate-linear in the second
slot), so the quadratic form ``<T x, x>`` is ``x* T x``.

All public functions treat matrices as immutable values: inputs are
never modified and returned arrays are marked read-only, so results can
be shared freely across threads.

Scale is handled once, on entry: every public call that computes with a
matrix takes it through `_as_unit`, an exact division by a power of two,
and multiplies its answer back. The private kernels see unit-scaled
input only, so no square they take (T*T, omega^2, a 2x2 discriminant)
under- or overflows at any scale.

Eigenvalues come from LAPACK via numpy, except 2x2 extremes, which
`_eig2` takes in closed form for stacks and scalars alike; the private
kernels assume validated, Hermitian, unit-scaled input.
"""

from __future__ import annotations

import math
import numbers
import threading
from collections import OrderedDict

import numpy as np

__all__ = [
    "MatrixError",
    "DimensionError",
    "NonHermitianError",
    "MAX_DIM",
    "as_matrix",
    "adjoint",
    "hermitian_part",
    "herm_eig_max",
    "spectral_norm",
    "rank_one",
]

MAX_DIM = 64


class MatrixError(ValueError):
    """Invalid matrix input."""


class DimensionError(MatrixError):
    """Input is not square, is empty, exceeds the supported size, or
    two operands have mismatched dimensions."""


class NonHermitianError(MatrixError):
    """A Hermitian matrix was required."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _LRU:
    """Bounded least-recently-used map, safe to share between threads."""

    def __init__(self, cap: int):
        self.cap = cap
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            hit = self._data.get(key)
            if hit is not None:
                self._data.move_to_end(key)
            return hit

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.cap:
                self._data.popitem(last=False)


def as_matrix(obj) -> np.ndarray:
    """Validate and canonicalize a matrix-like object.

    Accepts anything ``np.asarray`` understands (nested lists, tuples,
    arrays). Returns a fresh read-only complex128 array.

    Raises
    ------
    DimensionError
        Not 2-D square, or the dimension is 0 or exceeds 64.
    MatrixError
        Any entry is NaN or infinite.
    """
    if isinstance(obj, numbers.Number):
        obj = [[obj]]
    A = np.array(obj, dtype=np.complex128, order="C", copy=True)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n == 0:
        raise DimensionError("empty matrix")
    if n > MAX_DIM:
        raise DimensionError(f"dimension {n} exceeds the supported maximum {MAX_DIM}")
    if not np.isfinite(A.view(np.float64)).all():
        raise MatrixError("matrix entries must be finite")
    return _freeze(A)


def _as_unit(obj) -> tuple[np.ndarray, float]:
    """(``as_matrix(obj)`` / s, s), s the power of two that brings the
    largest entry into [0.5, 1), kept in [2^-1000, 2^1023] (1.0 for zero):
    an exact division. Every public call that computes with a matrix enters
    here, and multiplies its answer back by s."""
    T = as_matrix(obj)
    s = 2.0 ** min(max(math.frexp(float(np.abs(T).max()))[1], -1000), 1023)
    return (T, s) if s == 1.0 else (_freeze(T / s), s)


def _as_vector(obj, *, name: str = "vector") -> np.ndarray:
    v = np.array(obj, dtype=np.complex128, copy=True).reshape(-1)
    if v.size == 0 or v.size > MAX_DIM:
        raise DimensionError(f"{name} length {v.size} outside supported range")
    if not np.isfinite(v.view(np.float64)).all():
        raise MatrixError(f"{name} entries must be finite")
    return v


def adjoint(T) -> np.ndarray:
    """Conjugate transpose. An involution: adjoint(adjoint(T)) == T."""
    T = as_matrix(T)
    return _freeze(np.conj(T.T).copy(order="C"))


def hermitian_part(T, theta: float = 0.0) -> np.ndarray:
    """Rotated Hermitian part H_theta = (e^{i theta} T + e^{-i theta} T*) / 2.

    Satisfies <H_theta x, x> = Re(e^{i theta} <T x, x>) for every x.
    The angle may be any finite real number; it enters only through
    e^{i theta}. The construction is exactly Hermitian in floating point.

    Raises
    ------
    ValueError
        If ``theta`` is NaN or infinite.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    return _freeze(_hermitian_rot(as_matrix(T), np.exp(1j * theta)))


def _hermitian_rot(M: np.ndarray, z) -> np.ndarray:
    """(z M + (z M)*) / 2 for a matrix or a (..., n, n) stack M.

    ``z`` is a scalar or an array broadcast against the stack axes of M
    (one rotation per matrix). Every rotated Hermitian part in the
    package is built here, so all modules round it alike.
    """
    E = np.asarray(z)[..., None, None] * M
    return 0.5 * (E + np.conj(np.swapaxes(E, -1, -2)))


def herm_eig_max(H) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a unit eigenvector of a Hermitian matrix.

    Uses LAPACK's Hermitian eigensolver (``np.linalg.eigh``).

    Raises
    ------
    NonHermitianError
        If an entry of ``H`` deviates from its adjoint's by more than
        1e-12 times the Frobenius norm of ``H``.
    """
    H, s = _as_unit(H)
    dev = float(np.abs(H - np.conj(H.T)).max())
    if dev > 1e-12 * float(np.linalg.norm(H)):
        raise NonHermitianError(f"matrix deviates from Hermitian by {dev * s:.3e}")
    w, V = np.linalg.eigh(H)
    return s * float(w[-1]), _freeze(np.ascontiguousarray(V[:, -1]))


def _eig2(m, d, br, bi):
    """(smallest, largest) eigenvalue m -/+ sqrt(d^2 + br^2 + bi^2) of the
    Hermitian [[m + d, b], [conj b, m - d]], b = br + i bi, its squares
    taken term by term. Floats and arrays round alike, so the scalar
    evaluations and the batched sweeps share every bit."""
    q = d * d + br * br + bi * bi
    rad = math.sqrt(q) if isinstance(q, float) else np.sqrt(q)
    return m - rad, m + rad


def _rot2(T) -> list:
    """`_eig2_rot`'s coefficients of a 2x2 T (Python floats) or a stack
    (arrays): the real and imaginary parts of
    (t00 + t11, t00 - t11, t01 + t10, t01 - t10) / 2."""
    if T.ndim == 2:
        a, b, c, d = T.ravel().tolist()
    else:
        a, b, c, d = T[..., 0, 0], T[..., 0, 1], T[..., 1, 0], T[..., 1, 1]
    return [x for w in (a + d, a - d, b + c, b - c) for x in (0.5 * w.real, 0.5 * w.imag)]


def _eig2_rot(c, zr, zi):
    """`_eig2` of H = (z T + (z T)*) / 2, z = zr + i zi, from T's `_rot2`
    coefficients by real products alone (numpy's complex product may fuse
    a multiply-add where Python's does not)."""
    sr, si, dr, di, ur, ui, wr, wi = c
    return _eig2(zr * sr - zi * si, zr * dr - zi * di, zr * ur - zi * ui, zr * wi + zi * wr)


def _eig2_slope(c, zr, zi):
    """(largest eigenvalue, its derivative in theta) of `_eig2_rot`, z =
    e^{i theta}: the eigenvalue is `_eig2_rot`'s bit for bit, the
    derivative m' + (d d' + br br' + bi bi') / rad of its real products
    (zr' = -zi, zi' = zr), or m' where rad = 0. Floats and arrays round
    alike."""
    sr, si, dr, di, ur, ui, wr, wi = c
    d, br, bi = zr * dr - zi * di, zr * ur - zi * ui, zr * wi + zi * wr
    q = d * d + br * br + bi * bi
    lean = d * -(zi * dr + zr * di) + br * -(zi * ur + zr * ui) + bi * (zr * wr - zi * wi)
    if isinstance(q, float):
        rad = math.sqrt(q)
        turn = lean / rad if rad > 0.0 else 0.0
    else:
        rad = np.sqrt(q)
        turn = np.divide(lean, rad, out=np.zeros_like(rad), where=rad > 0.0)
    return (zr * sr - zi * si) + rad, turn - (zi * sr + zr * si)


def _extremes(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(smallest, largest) eigenvalues along a (..., n, n) Hermitian stack:
    LAPACK, or for 2x2 the closed form `_eig2`."""
    if H.shape[-1] == 2:
        a, d, b = H[..., 0, 0].real, H[..., 1, 1].real, H[..., 0, 1]
        return _eig2(0.5 * (a + d), 0.5 * (a - d), b.real, b.imag)
    w = np.linalg.eigvalsh(H)
    return w[..., 0], w[..., -1]


def _spectral_norm(T: np.ndarray) -> float:
    """Largest singular value of a validated, unit-scaled T, via the top
    eigenvalue of T*T."""
    lam = float(np.linalg.eigvalsh(T.conj().T @ T)[-1])
    return math.sqrt(max(lam, 0.0))


def spectral_norm(T) -> float:
    """Largest singular value, via the top eigenvalue of T*T."""
    T, s = _as_unit(T)
    return s * _spectral_norm(T)


def rank_one(x, y) -> np.ndarray:
    """Rank-one matrix M = x (x) y with entries M[i][j] = x[i] * conj(y[j]).

    Acts as M z = <z, y> x.

    Raises
    ------
    DimensionError
        If the two vectors have different lengths.
    """
    x = _as_vector(x, name="x")
    y = _as_vector(y, name="y")
    if x.size != y.size:
        raise DimensionError(f"length mismatch: {x.size} vs {y.size}")
    return _freeze(np.outer(x, np.conj(y)))
