"""Independent brute-force and closed-form references.

Nothing in this module reuses the grid-plus-refinement machinery of
``numrange``: the 2x2 reference comes from the elliptical range theorem,
the sampling bound from Monte Carlo over unit vectors, and the
orthogonality scan from a plain polar grid over the perturbation
parameter with a fixed-resolution support sweep, and the Hermitian
eigensolver is a pure-Python cyclic Jacobi iteration that calls no
LAPACK. These are the oracles that the fast paths are validated
against, so they deliberately stay simple. The scan has three economies,
each with code of its own and none changing a bit of its result:

- its sweep uses H_{phi+pi} = -H_phi, so it solves only the angles
  below pi and takes the rest from lambda_min;
- it bounds every radius from below by Rayleigh quotients, with no
  eigensolve per lambda. For unit x, omega(M) >= |<Mx, x>|, and
  <(T + lambda S)x, x> = <Tx, x> + lambda <Sx, x>: four vectors, the
  top and bottom eigenvectors of H_phi at the grid argmax angles of T
  and of S, bound every lambda at once, and cos(pi/1024) times that
  bounds the grid radius by the secant bound below;
- it prunes lambda with the secant bound. If p in W(M) has
  |p| = omega(M), then lambda_max(H_phi) >= omega(M) cos(phi + arg p),
  and every angle lies within pi/m of one of m equispaced angles, so
  omega(M) <= sec(pi/m) max_k lambda_max(H_{2 pi k/m}). Coarse sweeps
  over every 256th, 64th, 16th and 4th scan angle bracket each radius
  in turn, each only for the lambda whose bracket can still hold the
  minimum margin; the lambda left at the end get the full sweep.

Randomness: every generator draws from numpy's PCG64 (the 64-bit
permuted-congruential generator, fully specified and stable across
platforms and numpy versions), so a seed pins the exact instance stream
bit-for-bit. Draw order is documented per method.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .linalg import DimensionError, as_matrix

__all__ = [
    "jacobi_eigh",
    "sample_radius_lower",
    "ellipse_radius_2x2",
    "direct_lambda_scan",
    "generators",
    "InstanceGenerator",
]

_TWO_PI = 2.0 * math.pi
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def jacobi_eigh(H: np.ndarray, max_sweeps: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a complex Hermitian matrix.

    Sweeps row by row, annihilating each off-diagonal pair with a unitary
    2x2 rotation, until the off-diagonal Frobenius mass falls below
    1e-14 times the Frobenius norm of the input. For each pivot (p, q)
    the off-diagonal phase is absorbed first, which reduces the update to
    the classical real rotation.

    Returns (eigenvalues ascending, eigenvector columns in that order).
    """
    A = np.array(H, dtype=np.complex128, order="C")
    n = A.shape[0]
    V = np.eye(n, dtype=np.complex128)
    if n == 1:
        return A.real.reshape(1).copy(), V
    fro = np.linalg.norm(A)
    if fro == 0.0:
        return np.zeros(n), V
    target = 1e-14 * fro
    # rotation is skipped when the pivot cannot move the off mass
    skip = 1e-18 * fro
    for _ in range(max_sweeps):
        off2 = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                aa = abs(apq)
                off2 += 2.0 * aa * aa
                if aa <= skip:
                    continue
                ph = apq / aa
                app = A[p, p].real
                aqq = A[q, q].real
                tau = (aqq - app) / (2.0 * aa)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                sph = (t * c) * ph
                # A <- R* A R with R embedding [[c, sph], [-conj(sph), c]]
                colp = A[:, p].copy()
                colq = A[:, q]
                A[:, p] = c * colp - np.conj(sph) * colq
                A[:, q] = sph * colp + c * colq
                rowp = A[p, :].copy()
                rowq = A[q, :]
                A[p, :] = c * rowp - sph * rowq
                A[q, :] = np.conj(sph) * rowp + c * rowq
                A[p, q] = 0.0
                A[q, p] = 0.0
                A[p, p] = A[p, p].real
                A[q, q] = A[q, q].real
                vp = V[:, p].copy()
                vq = V[:, q]
                V[:, p] = c * vp - np.conj(sph) * vq
                V[:, q] = sph * vp + c * vq
        if math.sqrt(off2) <= target:
            break
    w = A.diagonal().real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]


def sample_radius_lower(T, samples: int, seed: int) -> float:
    """Monte Carlo lower bound: max of |<Tx, x>| over random unit vectors.

    Vectors are standard complex Gaussians, normalized. The result never
    exceeds the numerical radius; it is a bound, not an estimator.
    """
    samples = int(samples)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    T = as_matrix(T)
    n = T.shape[0]
    rng = np.random.Generator(np.random.PCG64(seed))
    best = 0.0
    left = samples
    while left > 0:
        k = min(left, 16384)
        Z = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        nrm = np.linalg.norm(Z, axis=1)
        nrm[nrm == 0.0] = 1.0
        X = Z / nrm[:, None]
        vals = np.abs(np.einsum("si,si->s", np.conj(X), X @ T.T))
        best = max(best, float(vals.max()))
        left -= k
    return best


def ellipse_radius_2x2(T) -> float:
    """Numerical radius of a 2x2 matrix from the elliptical range theorem.

    W(T) is an ellipse with foci at the eigenvalues mu1, mu2 and minor
    semi-axis b with b^2 = (trace(T*T) - |mu1|^2 - |mu2|^2) / 4. The
    radius is the farthest point of that ellipse from the origin, found
    by maximizing |z(t)| over the ellipse parameter (dense grid plus
    golden-section polish down to 1e-12).
    """
    T = as_matrix(T)
    if T.shape != (2, 2):
        raise DimensionError("ellipse_radius_2x2 requires a 2x2 matrix")
    a11, a12 = complex(T[0, 0]), complex(T[0, 1])
    a21, a22 = complex(T[1, 0]), complex(T[1, 1])
    tr = a11 + a22
    det = a11 * a22 - a12 * a21
    disc = cmath.sqrt(0.25 * tr * tr - det)
    mu1 = 0.5 * tr + disc
    mu2 = 0.5 * tr - disc
    gram = (
        abs(a11) ** 2 + abs(a12) ** 2 + abs(a21) ** 2 + abs(a22) ** 2
    )  # trace(T*T)
    b2 = 0.25 * (gram - abs(mu1) ** 2 - abs(mu2) ** 2)
    b = math.sqrt(max(b2, 0.0))
    center = 0.5 * (mu1 + mu2)
    focal = 0.5 * (mu1 - mu2)
    c = abs(focal)
    a = math.sqrt(c * c + b * b)
    # rotate the major axis onto the real line
    rot = focal / c if c > 0.0 else 1.0 + 0.0j
    g = center * rot.conjugate()
    p, q = g.real, g.imag

    def dist2(t: float) -> float:
        return (p + a * math.cos(t)) ** 2 + (q + b * math.sin(t)) ** 2

    grid = 720
    ts = [(_TWO_PI * k) / grid for k in range(grid)]
    vals = [dist2(t) for t in ts]
    k = max(range(grid), key=vals.__getitem__)
    lo = ts[k] - _TWO_PI / grid
    hi = ts[k] + _TWO_PI / grid
    xb, fb = ts[k], vals[k]
    h = hi - lo
    cpt = lo + _INV_PHI2 * h
    dpt = lo + _INV_PHI * h
    fc, fd = dist2(cpt), dist2(dpt)
    while h > 1e-13:
        if fc > fb:
            xb, fb = cpt, fc
        if fd > fb:
            xb, fb = dpt, fd
        if fc > fd:
            hi, dpt, fd = dpt, cpt, fc
            h = hi - lo
            cpt = lo + _INV_PHI2 * h
            fc = dist2(cpt)
        else:
            lo, cpt, fc = cpt, dpt, fd
            h = hi - lo
            dpt = lo + _INV_PHI * h
            fd = dist2(dpt)
    return math.sqrt(max(fb, 0.0))


_SCAN_GRID = 1024
# each pruning tier solves every step-th scan angle, a subset of the full
# sweep's angles, so its maximum is an exact lower bound
_PRUNE_STEPS = (256, 64, 16, 4)
# every angle lies within pi/1024 of the scan's grid, so by the secant
# bound the grid radius is at least this share of omega
_GRID_COS = math.cos(math.pi / _SCAN_GRID)
# bytes of one batched H stack; bounds the scan's working set
_STACK_BYTES = 1 << 19


def _grid_extremes(Ms: np.ndarray, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_max, lambda_min) of H_phi, one row per matrix of a stack."""
    E = np.exp(1j * phis)[None, :, None, None] * Ms[:, None, :, :]
    H = 0.5 * (E + np.conj(np.swapaxes(E, -1, -2)))
    if Ms.shape[-1] == 2:
        d0 = H[..., 0, 0].real
        d1 = H[..., 1, 1].real
        b = H[..., 0, 1]
        mid = 0.5 * (d0 + d1)
        rad = np.sqrt(0.25 * (d0 - d1) ** 2 + b.real**2 + b.imag**2)
        return mid + rad, mid - rad
    w = np.linalg.eigvalsh(H)
    return w[..., -1], w[..., 0]


def _grid_omega(Ms: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Support-sweep radius of each matrix in a stack, no refinement.

    ``phis`` is the first half of an even angle grid. H_{phi+pi} is
    -H_phi, so lambda_max at phi + pi is -lambda_min at phi, and the
    maximum over the whole grid is max(lambda_max, -lambda_min) over
    the half: only the half is solved. Since lambda_min <= lambda_max,
    the result is never negative, rounding included.
    """
    hi, lo = _grid_extremes(Ms, phis)
    return np.maximum(hi, -lo).max(axis=1)


def _scan_omegas(T: np.ndarray, S: np.ndarray, lams: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """``_grid_omega`` of every T + lambda S, in stacks of bounded size."""
    per_call = max(1, _STACK_BYTES // (phis.size * T.nbytes))
    return np.concatenate(
        [
            _grid_omega(T[None] + chunk[:, None, None] * S[None], phis)
            for chunk in np.split(lams, range(per_call, lams.size, per_call))
        ]
    )


def _support_vectors(
    Ms: np.ndarray, phis: np.ndarray, hi: np.ndarray, lo: np.ndarray
) -> np.ndarray:
    """Unit vectors, as rows, where each matrix's half sweep peaks.

    For each matrix, given the extremes ``hi``, ``lo`` of its sweep over
    ``phis``: the top eigenvector of H_phi at the angle of the largest
    lambda_max, then the bottom one at the angle of the least lambda_min.
    """
    E = np.exp(1j * phis[np.stack((hi.argmax(axis=1), lo.argmin(axis=1)), axis=1)])
    E = E[..., None, None] * Ms[:, None]
    V = np.linalg.eigh(0.5 * (E + np.conj(np.swapaxes(E, -1, -2))))[1]
    return np.stack((V[:, 0, :, -1], V[:, 1, :, 0]), axis=1).reshape(-1, Ms.shape[-1])


def _rayleigh_lower(
    T: np.ndarray, S: np.ndarray, X: np.ndarray, lams: np.ndarray, slack: np.ndarray
) -> np.ndarray:
    """Lower bound of ``_grid_omega`` of every T + lambda S, no eigensolve.

    For each unit row x of ``X``, omega(T + lambda S) >= |a + lambda b|
    with a = <Tx, x> and b = <Sx, x>, and the grid radius is at least
    ``_GRID_COS`` omega; ``slack`` (one per lambda) takes up the
    rounding of both sides. Never negative.
    """
    a, b = np.einsum("ji,mik,jk->mj", np.conj(X), np.stack((T, S)), X)
    rq = np.abs(a[:, None] + b[:, None] * lams).max(axis=0)
    return np.maximum(_GRID_COS * rq - slack, 0.0)


def direct_lambda_scan(
    T, S, epsilon: float, grid_r: int = 32, grid_theta: int = 64
) -> tuple[float, complex]:
    """Polar-grid minimum of the orthogonality margin over lambda.

    Evaluates F(lambda) = omega^2(T + lambda S) - omega^2(T)
    + 2 eps |lambda| omega(T) omega(S) on r in (0, 2 omega(T)/omega(S)]
    times grid_theta angles, with every radius the maximum of
    lambda_max(H_phi) over a plain 1024-angle grid of phi. The sweep
    solves only phi < pi and reads phi + pi off lambda_min, since
    H_{phi+pi} = -H_phi; it shares no code with ``numrange``.

    Only the lambda that can still hold the minimum get that sweep.
    Every radius has a lower bound lo and an upper bound up: F is the
    same floating expression for every bound and nondecreasing in the
    radius, so a lambda whose lower F exceeds the upper F of any lambda
    is neither the minimum nor tied with it, and the result is bit for
    bit that of the full scan. The bounds come in three stages:

    - Rayleigh quotients (``_rayleigh_lower``) of the four vectors where
      the sweeps of T and of S peak give every lambda a lower F with no
      eigensolve;
    - the lambda of least lower F is swept over every 4th angle; by the
      secant bound (module docstring) its upper bound lo / cos(4 pi /
      1024) plus a rounding allowance seeds the least upper F, and only
      the lambda whose lower F is at most that seed are kept;
    - each pruning tier (``_PRUNE_STEPS``) sweeps the lambda still kept
      over every step-th angle, the same doubles through the same
      eigensolver. That gives exact lower bounds lo and upper bounds
      lo / cos(pi step / 1024) plus the allowance; the least upper F
      seen so far prunes the lambda of greater lower F.

    Returns (min margin, argmin lambda), the first minimum in order of
    radius, then angle. A negative margin witnesses a violation of the
    orthogonality inequality at that lambda. Raises ValueError unless
    epsilon is finite and in [0, 1), and DimensionError unless T and S
    have the same size.
    """
    grid_r = int(grid_r)
    grid_theta = int(grid_theta)
    if grid_r < 16 or grid_theta < 16:
        raise ValueError("grids must be at least 16")
    eps = float(epsilon)
    if not (math.isfinite(eps) and 0.0 <= eps < 1.0):
        raise ValueError("epsilon must lie in [0, 1)")
    T = as_matrix(T)
    S = as_matrix(S)
    if T.shape != S.shape:
        raise DimensionError(
            f"matrices must share a dimension, got {T.shape[0]} and {S.shape[0]}"
        )
    phis = np.arange(_SCAN_GRID // 2) * (_TWO_PI / _SCAN_GRID)
    TS = np.stack((T, S))
    hi, lo = _grid_extremes(TS, phis)
    wT, wS = (float(w) for w in np.maximum(hi, -lo).max(axis=1))
    if wS == 0.0:
        return 0.0, 0j
    r_hi = 2.0 * wT / wS if wT > 0.0 else 1.0
    rs = np.repeat([r_hi * i / grid_r for i in range(1, grid_r + 1)], grid_theta)
    units = [cmath.exp(1j * _TWO_PI * j / grid_theta) for j in range(grid_theta)]
    lams = rs * np.tile(units, grid_r)

    def margin(w, r):
        return w * w - wT * wT + 2.0 * eps * r * wT * wS

    slack = 1e-12 * (np.linalg.norm(T) + rs * np.linalg.norm(S))

    def bounds(idx, step):
        """Lower and upper F of lams[idx] from every step-th angle."""
        w, r = _scan_omegas(T, S, lams[idx], phis[::step]), rs[idx]
        return margin(w, r), margin(w / math.cos(math.pi * step / _SCAN_GRID) + slack[idx], r)

    lower = margin(_rayleigh_lower(T, S, _support_vectors(TS, phis, hi, lo), lams, slack), rs)
    best = bounds(np.argmin(lower)[None], _PRUNE_STEPS[-1])[1][0]
    keep = np.flatnonzero(lower <= best)
    for step in _PRUNE_STEPS:
        low, up = bounds(keep, step)
        best = min(best, up.min())
        keep = keep[low <= best]
    margins = margin(_scan_omegas(T, S, lams[keep], phis), rs[keep])
    k = int(np.argmin(margins))
    return float(margins[k]), complex(lams[keep[k]])


class InstanceGenerator:
    """Deterministic stream of random test instances.

    One PCG64 stream drives all draws; the per-method draw order below
    is part of the reproducibility contract.

    - complex Gaussian blocks are drawn as one ``standard_normal``
      call of shape (2, n, n) (real block first, then imaginary),
      combined as (re + i*im)/sqrt(2) so entries are standard complex
      Gaussian (unit complex variance);
    - vectors draw shape (2, n) the same way.
    """

    def __init__(self, seed: int):
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def matrix(self, n: int) -> np.ndarray:
        """General complex Gaussian matrix."""
        z = self._rng.standard_normal((2, n, n))
        return ((z[0] + 1j * z[1]) / math.sqrt(2.0)).astype(np.complex128)

    def hermitian(self, n: int) -> np.ndarray:
        """Hermitian (A + A*) / 2 of a Gaussian draw; exactly Hermitian."""
        A = self.matrix(n)
        return 0.5 * (A + np.conj(A.T))

    def positive(self, n: int, unit_norm: bool = False) -> np.ndarray:
        """Positive semidefinite A*A, optionally scaled to unit spectral norm."""
        A = self.matrix(n)
        P = np.conj(A.T) @ A
        if unit_norm:
            top = float(np.linalg.eigvalsh(P)[-1])
            if top > 0.0:
                P = P / top
        return P

    def unitary(self, n: int) -> np.ndarray:
        """Unitary matrix from orthonormalizing a Gaussian draw."""
        A = self.matrix(n)
        Q, R = np.linalg.qr(A)
        d = np.diagonal(R).copy()
        d[d == 0.0] = 1.0
        return Q * (d / np.abs(d))[None, :].conj()

    def unit_vector(self, n: int) -> np.ndarray:
        """Uniform random unit vector (normalized complex Gaussian)."""
        z = self._rng.standard_normal((2, n))
        v = (z[0] + 1j * z[1]) / math.sqrt(2.0)
        nrm = float(np.linalg.norm(v))
        if nrm == 0.0:
            v = np.zeros(n, dtype=np.complex128)
            v[0] = 1.0
            return v
        return v / nrm

    def nilpotent_rank_one(self, n: int) -> np.ndarray:
        """Rank-one x (x) y with <x, y> = 0, hence a square-zero matrix."""
        if n < 2:
            raise ValueError("nilpotent rank-one needs n >= 2")
        while True:
            x = self.unit_vector(n)
            y = self.unit_vector(n)
            y = y - x * np.vdot(x, y)
            nrm = float(np.linalg.norm(y))
            if nrm > 1e-8:
                y = y / nrm
                return np.outer(x, np.conj(y))


def generators(seed: int) -> InstanceGenerator:
    """Deterministic instance streams for the given 64-bit seed."""
    return InstanceGenerator(seed)
