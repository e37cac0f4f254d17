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

Eigenvalues come from LAPACK via numpy, except the 2x2 and 3x3 extremes of
H_theta(T), which `_eig2_rot` and `_eig3_rot` take in closed form (LAPACK
where a 3x3 gap is small); the private kernels assume validated, Hermitian,
unit-scaled input.
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

    def get_or(self, key, make):
        """The value at ``key``; on a miss, ``make()``, stored there."""
        hit = self.get(key)
        if hit is None:
            hit = make()
            with self._lock:
                self._data[key] = hit
                self._data.move_to_end(key)
                while len(self._data) > self.cap:
                    self._data.popitem(last=False)
        return hit


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
    (one rotation per matrix). Every rotated Hermitian part the package
    builds as a matrix is built here, so all modules round it alike; the
    closed forms `_eig2_rot` and `_eig3_rot` read its entries off M.
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


# `_eig3_rot` hands a lane to LAPACK where its top or bottom gap, 2 sqrt(3) p
# sin(pi/3 - phi) or 2 sqrt(3) p sin(phi), is below p / 4 and acos loses the
# close pair's digits: where |r| = |cos 3 phi| > cos(3 asin(1 / (8 sqrt 3)))
_EIG3_EDGE = math.sqrt(191.0 / 192.0) * 188.0 / 192.0
_EIG3_AT = (np.array([0, 1, 2, 0, 0, 1, 1, 2, 2]), np.array([0, 1, 2, 1, 2, 2, 0, 0, 1]))


def _eig3_rot(T, zr, zi):
    """(smallest, largest) eigenvalue of H = (z T + (z T)*) / 2, z = zr + i zi,
    along a (..., 3, 3) stack T broadcast against z, in closed form (O. K.
    Smith, CACM 4(4):168, 1961): with q = tr(H) / 3, B = H - q I, p =
    sqrt(tr(B^2) / 6), r = det(B) / (2 p^3) and phi = acos(r) / 3 they are
    q + 2 p cos(phi + 2 pi / 3) and q + 2 p cos(phi). H's entries come from
    T's by real products (numpy's complex product may fuse a multiply-add in
    some loops only), so a lane's bits do not depend on the others; a lane
    with |r| above `_EIG3_EDGE` takes LAPACK's values of H set from them."""
    t = np.moveaxis(T[..., _EIG3_AT[0], _EIG3_AT[1]], -1, 0)
    a, b = t.real, t.imag  # rows: T's diagonal, then t01, t02, t12, then t10, t20, t21
    ar, ai = (a[0] + a[1] + a[2]) / 3.0, (b[0] + b[1] + b[2]) / 3.0
    # q, B's diagonal d0, d1, d2 and b_jk = xr + i xi (jk = 01), yr + i yi
    # (02), wr + i wi (12) are zr A - zi B, by rows
    A = np.concatenate(([ar], a[:3] - ar, 0.5 * (a[3:6] + a[6:]), 0.5 * (b[3:6] - b[6:])))
    B = np.concatenate(([ai], b[:3] - ai, 0.5 * (b[3:6] + b[6:]), 0.5 * (a[6:] - a[3:6])))
    rows = (10,) + (1,) * max(0, np.ndim(zr) - a.ndim + 1) + a.shape[1:]
    E = A.reshape(rows) * zr - B.reshape(rows) * zi
    q, d0, d1, d2, xr, yr, wr, xi, yi, wi = E
    sq = E[1:] * E[1:]
    x2, y2, w2 = sq[3:6] + sq[6:]
    p = np.sqrt((sq[0] + sq[1] + sq[2] + 2.0 * (x2 + y2 + w2)) / 6.0)
    # det B = d0 d1 d2 - d0 |b12|^2 - d1 |b02|^2 - d2 |b01|^2 + 2 Re(b01 b12 conj b02)
    det = d0 * (d1 * d2 - w2) - d1 * y2 - d2 * x2
    det = det + 2.0 * ((xr * wr - xi * wi) * yr + (xr * wi + xi * wr) * yi)
    r = det / np.maximum(2.0 * p * p * p, 1e-300)  # B = 0: r = 0, no warning
    good = np.abs(r) <= _EIG3_EDGE
    c = np.cos(np.add.outer((0.0, 2.0 * math.pi / 3.0), np.arccos(np.where(good, r, 0.0)) / 3.0))
    hi, lo = q + 2.0 * p * c
    if np.count_nonzero(good) < good.size:
        e = E[:, ~good]
        H = np.zeros((e.shape[1], 3, 3), dtype=np.complex128)
        H.real[:, [0, 1, 2, 1, 2, 2], [0, 1, 2, 0, 0, 1]] = np.vstack((e[0] + e[1:4], e[4:7])).T
        H.imag[:, [1, 2, 2], [0, 0, 1]] = -e[7:].T
        w = np.linalg.eigvalsh(H)
        lo[~good], hi[~good] = w[:, 0], w[:, -1]
    return lo, hi


def _extremes(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(smallest, largest) eigenvalues along a (..., n, n) Hermitian stack,
    by LAPACK (`numrange._extremes_at` sends n = 2 and 3 to closed forms)."""
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
