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

Eigenvalues come from LAPACK via numpy, except 2x2 extremes, which
`_extremes` and numrange's scalar golden search take in closed form;
the private kernels assume validated, Hermitian input.
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

# squares in this range neither over- nor underflow (`_extremes`)
_TINY = 2.0**-800
_HUGE = 2.0**800


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
    H = as_matrix(H)
    dev = float(np.abs(H - np.conj(H.T)).max())
    if dev > 1e-12 * float(np.linalg.norm(H)):
        raise NonHermitianError(f"matrix deviates from Hermitian by {dev:.3e}")
    w, V = np.linalg.eigh(H)
    return float(w[-1]), _freeze(np.ascontiguousarray(V[:, -1]))


def _extremes(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(smallest, largest) eigenvalues along a (K, n, n) Hermitian stack:
    LAPACK, or for 2x2 the closed form (mean of the diagonal +/- half the
    discriminant). When the squares of the largest discriminant would leave
    [2^-800, 2^800], they are taken on the stack divided by `_pow2`
    instead, so that they neither over- nor underflow; inside that range
    the two agree bit for bit, wherever the squares are normal numbers.
    Scaling every stack would give the same bits but costs about 3.5 us
    more per call (one matrix); most calls are single 2x2 Gram matrices
    of the BJ scan, and `validate` ran 2.7 % slower in process (median of
    5 seeds, 40 instances each; 2 cores, numpy 2.4.6 on OpenBLAS)."""
    if H.shape[-1] == 2:
        a = H[:, 0, 0].real
        d = H[:, 1, 1].real
        b = H[:, 0, 1]
        m = 0.5 * (a + d)
        with np.errstate(over="ignore"):
            q = 0.25 * (a - d) ** 2 + b.real**2 + b.imag**2
        if _TINY <= q.max() <= _HUGE:
            rad = np.sqrt(q)
        else:
            s = _pow2(H)
            rad = s * np.sqrt(0.25 * ((a - d) / s) ** 2 + (b.real / s) ** 2 + (b.imag / s) ** 2)
        return m - rad, m + rad
    w = np.linalg.eigvalsh(H)
    return w[:, 0], w[:, -1]


def _pow2(T: np.ndarray) -> float:
    """The power of two that brings the largest entry of T into [0.5, 1);
    1.0 for the zero matrix, and at least 2^-1000 (the power for a
    subnormal entry would overflow). Dividing by it is exact."""
    return 2.0 ** max(math.frexp(float(np.abs(T).max()))[1], -1000)


def _spectral_norm(T: np.ndarray) -> float:
    """Largest singular value of a validated T, via the top eigenvalue of
    T*T, with T first divided by `_pow2` so that T*T neither underflows
    nor overflows: the result is the unscaled one wherever that does not
    under- or overflow, and every nonzero T has a positive norm."""
    s = _pow2(T)
    A = T / s
    lam = float(np.linalg.eigvalsh(A.conj().T @ A)[-1])
    return s * math.sqrt(max(lam, 0.0))


def spectral_norm(T) -> float:
    """Largest singular value, via the top eigenvalue of T*T."""
    return _spectral_norm(as_matrix(T))


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
