"""Numerical range quantities of a dense complex matrix.

Everything reduces to the support function of the numerical range
W(T) = {<Tx, x> : ||x|| = 1}: with the rotated Hermitian part
H_theta = (e^{i theta} T + e^{-i theta} T*) / 2, the largest eigenvalue
lambda_max(H_theta) is the support function of W(T) in direction
-theta, so

    omega(T) = max_theta lambda_max(H_theta)      (numerical radius)
    c(T)     = max(0, max_theta lambda_min(H_theta))   (Crawford number)

and the support point at angle theta is <T x_theta, x_theta> for a top
eigenvector x_theta of H_theta (equivalently e^{-i theta} times the
tangency point of the rotated range). That rotation convention is fixed
once, in ``linalg._hermitian_rot``; every other module except the
independent ``oracle`` builds H_theta there.

The theta maximization runs a coarse grid first (lambda_max(H_theta) is
Lipschitz in theta with constant ||T||, but may be multimodal), then
golden-section refinement of every competitive grid bracket (a sweep
flat up to rounding, as for a disk centred at 0, keeps its grid maximum
alone). For n >= 3 the brackets are refined in lockstep: each golden
step makes one batched eigensolve over every bracket still open,
possibly of several matrices, with per-bracket results bit for bit those
of the scalar search. Sweep results are memoized per matrix because
downstream derivative and orthogonality code re-evaluates the same
profiles heavily.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _eig
from .linalg import _LRU, _freeze, _hermitian_rot, as_matrix

__all__ = [
    "GRID_DEFAULT",
    "RadiusResult",
    "MaximizerSet",
    "DegenerateMatrixError",
    "numerical_radius",
    "crawford_number",
    "boundary_points",
    "maximizers",
    "radius_enclosure",
]

GRID_DEFAULT = 1024

_TWO_PI = 2.0 * math.pi
# a support sweep whose spread is within _FLAT n u ||T|| is flat: square-zero
# T (n = 2..8) and J + J spread 1-5.5 u ||T||, generic T at least 0.13 ||T||
_FLAT = 4.0 * np.finfo(float).eps
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


class DegenerateMatrixError(ValueError):
    """The zero matrix was passed where it makes every vector optimal."""


@dataclass(frozen=True)
class RadiusResult:
    """Numerical radius with its optimizing angle and certificate.

    Attributes
    ----------
    omega : float
        The numerical radius.
    theta_star : float
        Angle in [0, 2pi) attaining the support-function maximum.
    maximizer : np.ndarray
        Unit vector with ``|<T maximizer, maximizer>| = omega`` (within
        the requested tolerance).
    enclosure : tuple[float, float]
        Interval [lower, upper] containing the true radius, of width at
        most the requested tolerance.
    """

    omega: float
    theta_star: float
    maximizer: np.ndarray
    enclosure: tuple[float, float]


@dataclass(frozen=True)
class MaximizerSet:
    """Support angles attaining the radius, with top eigenvectors.

    ``pairs`` holds (theta, unit vector) tuples; every vector satisfies
    ``|<T x, x>| >= omega - 10 * tol`` for the tolerance passed to
    :func:`maximizers`.
    """

    pairs: tuple[tuple[float, np.ndarray], ...]
    omega: float

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    @property
    def angles(self) -> tuple[float, ...]:
        return tuple(theta for theta, _ in self.pairs)


# ---------------------------------------------------------------------------
# support-profile machinery (internal)


class _Profile:
    """Cached theta-sweep of one matrix: grid curves plus refined peaks."""

    __slots__ = (
        "T",
        "n",
        "grid",
        "thetas",
        "hi",
        "lo",
        "lip",
        "omega",
        "theta_star",
        "maximizer",
        "width",
        "peaks",
        "is_zero",
    )

    T: np.ndarray
    n: int
    grid: int
    thetas: np.ndarray
    hi: np.ndarray
    lo: np.ndarray
    lip: float
    omega: float
    theta_star: float
    maximizer: np.ndarray
    width: float
    peaks: list[tuple[float, float]]
    is_zero: bool


def _lammax_fn(T: np.ndarray):
    """Fast scalar theta -> lambda_max(H_theta(T)) for golden refinement."""
    n = T.shape[0]
    if n == 1:
        t00 = complex(T[0, 0])

        def f1(theta: float) -> float:
            return (cmath.exp(1j * theta) * t00).real

        return f1
    if n == 2:
        t00 = complex(T[0, 0])
        t11 = complex(T[1, 1])
        t01 = complex(T[0, 1])
        t10 = complex(T[1, 0])

        def f2(theta: float) -> float:
            e = cmath.exp(1j * theta)
            a = (e * t00).real
            d = (e * t11).real
            b = 0.5 * (e * t01 + (e * t10).conjugate())
            return 0.5 * (a + d) + math.hypot(0.5 * (a - d), abs(b))

        return f2

    def fn(theta: float) -> float:
        return float(np.linalg.eigvalsh(_hermitian_rot(T, cmath.exp(1j * theta)))[-1])

    return fn


def _solved_stack(T: np.ndarray, grid: int) -> np.ndarray:
    """H_theta(T) at the angles 2 pi k / grid that a sweep has to solve.

    H_{theta+pi} = -H_theta, so an even grid solves only its first half
    and reads the second half off it; an odd grid has no antipodal pairs
    and solves every angle. T may be a (..., n, n) stack; the angle axis
    goes right before the matrix axes.
    """
    m = grid // 2 if grid % 2 == 0 else grid
    return _hermitian_rot(T[..., None, :, :], np.exp(1j * (np.arange(m) * (_TWO_PI / grid))))


def _sweep_extremes(T: np.ndarray, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_min, lambda_max) of H_theta(T) at theta_k = 2 pi k / grid.

    On an even grid, angle k + grid/2 takes lambda_min = -lambda_max and
    lambda_max = -lambda_min of angle k. A (..., n, n) stack of matrices
    gives (..., grid) curves from one batched eigensolve.
    """
    H = _solved_stack(T, grid)
    n = H.shape[-1]
    lo, hi = _eig.extremes_batch(H.reshape(-1, n, n))
    lo = lo.reshape(H.shape[:-2])
    hi = hi.reshape(H.shape[:-2])
    if H.shape[-3] == grid:
        return lo, hi
    return np.concatenate((lo, -hi), axis=-1), np.concatenate((hi, -lo), axis=-1)


def _golden_max(f, a: float, b: float, width: float, seed_best: tuple[float, float]):
    """Golden-section maximization on [a, b] down to bracket `width`.

    Returns the best evaluated point (x, f(x)); never worse than
    ``seed_best``, which lets callers seed with a known grid value.
    """
    xb, fb = seed_best
    h = b - a
    if h <= width:
        m = 0.5 * (a + b)
        fm = f(m)
        return (m, fm) if fm > fb else (xb, fb)
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    fc = f(c)
    fd = f(d)
    for _ in range(120):
        if fc > fb:
            xb, fb = c, fc
        if fd > fb:
            xb, fb = d, fd
        if h <= width:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INV_PHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = f(d)
    return xb, fb


def _golden_lanes(fb, a, b, width: float, xb, fbest) -> tuple[np.ndarray, np.ndarray]:
    """`_golden_max` run on many brackets ("lanes") at once.

    Every lane takes exactly the steps of the scalar search: the same
    seed, the same width test, the same c/d updates and the same
    120-step cap, so its result is the scalar result whenever the
    batched evaluator ``fb(lanes, x)`` (values of lanes ``lanes`` at
    abscissae ``x``) returns what the scalar function would. A lane
    leaves as soon as its bracket is narrower than ``width``; each step
    makes one ``fb`` call over the lanes still open.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    xb = np.array(xb, dtype=float)
    fbest = np.array(fbest, dtype=float)
    h = b - a
    short = h <= width
    mid = np.flatnonzero(short)
    run = np.flatnonzero(~short)
    xm = 0.5 * (a[mid] + b[mid])
    a, b, h = a[run], b[run], h[run]
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    k, m = mid.size, run.size
    f = fb(np.concatenate((mid, run, run)), np.concatenate((xm, c, d)))
    fm, fc, fd = f[:k], f[k : k + m], f[k + m :]
    up = fm > fbest[mid]
    xb[mid[up]] = xm[up]
    fbest[mid[up]] = fm[up]
    xr, fr = xb[run], fbest[run]
    for step in range(120):
        up = fc > fr
        xr, fr = np.where(up, c, xr), np.where(up, fc, fr)
        up = fd > fr
        xr, fr = np.where(up, d, xr), np.where(up, fd, fr)
        # the scalar search evaluates one more point after its last step
        # but never compares it
        go = ~(h <= width) if step < 119 else np.zeros(run.size, dtype=bool)
        xb[run[~go]] = xr[~go]
        fbest[run[~go]] = fr[~go]
        if not go.any():
            break
        run, a, b, c, d, fc, fd, xr, fr = (
            v[go] for v in (run, a, b, c, d, fc, fd, xr, fr)
        )
        left = fc > fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        h = b - a
        x = np.where(left, a + _INV_PHI2 * h, a + _INV_PHI * h)
        fx = fb(run, x)
        c, fc, d, fd = (
            np.where(left, x, d),
            np.where(left, fx, fd),
            np.where(left, c, x),
            np.where(left, fc, fx),
        )
    return xb, fbest


def _lammax_at(Ms: np.ndarray, owner, x) -> np.ndarray:
    """lambda_max(H_{x[i]}(Ms[owner[i]])) for every i, rounded as the
    golden searches of `_refine_peaks` round it."""
    if Ms.shape[-1] <= 2:
        return np.array([_lammax_fn(Ms[k])(t) for k, t in zip(owner, x)])
    return _eig.max_batch(_hermitian_rot(Ms[np.asarray(owner)], np.exp(1j * np.asarray(x))))


def _refine_peaks(
    Ms: np.ndarray, owner, a, b, width: float, seeds, negate: bool = False
) -> list[tuple[float, float]]:
    """Golden-refine bracket i of theta -> lambda_max(H_theta(Ms[owner[i]])).

    Returns ``_golden_max``'s (x, f(x)) for every bracket, seeded with
    ``seeds[i]``; ``negate`` maximizes -lambda_max instead. For n >= 3
    all brackets, whatever their matrix, share one batched eigensolve per
    golden step, which returns the scalar values bit for bit. The 2x2
    closed form has no bit-exact batched twin (``np.hypot`` differs from
    ``math.hypot``), and one bracket gains nothing from batching, so
    those stay on the scalar search.
    """
    if Ms.shape[-1] <= 2 or len(owner) <= 1:
        fns: dict[int, object] = {}
        out = []
        for k, lo, hi, seed in zip(owner, a, b, seeds):
            f = fns.get(k)
            if f is None:
                g = _lammax_fn(Ms[k])
                f = fns[k] = (lambda th, g=g: -g(th)) if negate else g
            out.append(_golden_max(f, lo, hi, width, seed))
        return out
    sign = -1.0 if negate else 1.0
    own = np.asarray(owner)

    def fb(lanes: np.ndarray, x: np.ndarray) -> np.ndarray:
        return sign * _lammax_at(Ms, own[lanes], x)

    xs, fs = _golden_lanes(
        fb, a, b, width, [x for x, _ in seeds], [v for _, v in seeds]
    )
    return list(zip(xs.tolist(), fs.tolist()))


def _true_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal cyclic runs of True, as (start, end inclusive).

    A run crossing the wrap point is merged into one with start < 0; an
    all-True mask is the single run (0, size - 1).
    """
    g = mask.size
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    if idx.size == g:
        return [(0, g - 1)]
    runs: list[list[int]] = [[int(idx[0]), int(idx[0])]]
    for i in idx[1:]:
        if i == runs[-1][1] + 1:
            runs[-1][1] = int(i)
        else:
            runs.append([int(i), int(i)])
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == g - 1:
        runs[0][0] = runs[-1][0] - g
        runs.pop()
    return [(s, e) for s, e in runs]


def _cyclic_local_max_groups(vals: np.ndarray) -> list[tuple[int, int]]:
    """Cyclic runs of grid values that weakly dominate both neighbours."""
    return _true_runs((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))


_PROFILE_CACHE = _LRU(1024)


def _profile(T: np.ndarray, grid: int = GRID_DEFAULT, tol: float = 1e-10) -> _Profile:
    """Sweep + refine one matrix; memoized on (matrix bytes, grid, tol)."""
    key = (T.tobytes(), T.shape[0], int(grid), float(tol))
    hit = _PROFILE_CACHE.get(key)
    if hit is not None:
        return hit

    p = _Profile()
    p.T = T
    n = p.n = T.shape[0]
    p.grid = int(grid)
    p.thetas = np.arange(p.grid) * (_TWO_PI / p.grid)
    p.is_zero = not T.any()
    if p.is_zero:
        p.hi = np.zeros(p.grid)
        p.lo = np.zeros(p.grid)
        p.lip = 0.0
        p.omega = 0.0
        p.theta_star = 0.0
        e1 = np.zeros(n, dtype=np.complex128)
        e1[0] = 1.0
        p.maximizer = _freeze(e1)
        p.width = 0.0
        p.peaks = [(0.0, 0.0)]
    else:
        p.lo, p.hi = _sweep_extremes(T, p.grid)
        p.lip = _eig.spectral_norm_fast(T)
        h = _TWO_PI / p.grid
        omega_grid = float(p.hi.max())
        keep = omega_grid - 2.0 * p.lip * h
        width_target = tol / max(p.lip, 1e-300)
        peaks: list[tuple[float, float]] = []
        brackets: list[tuple[float, float, tuple[float, float]]] = []
        if omega_grid - float(p.hi.min()) <= _FLAT * n * p.lip:
            # flat curve (a disk centred at 0): its local maxima are rounding
            # noise, and the grid already resolves it
            peaks.append((p.thetas[int(np.argmax(p.hi))], omega_grid))
        else:
            for s, e in _cyclic_local_max_groups(p.hi):
                gv = float(p.hi[s % p.grid])
                if gv >= keep:
                    brackets.append(((s - 1) * h, (e + 1) * h, (0.5 * (s + e) * h, gv)))
        if brackets:
            a, b, seeds = zip(*brackets)
            refined = _refine_peaks(T[None], [0] * len(a), a, b, width_target, seeds)
            peaks.extend((xb % _TWO_PI, fb) for xb, fb in refined)
        if not peaks:
            k = int(np.argmax(p.hi))
            peaks = [(float(p.thetas[k]), omega_grid)]
        p.peaks = sorted(peaks)
        p.omega = max(v for _, v in peaks)
        tie = 1e-12 * max(1.0, p.omega)
        p.theta_star = min(th for th, v in peaks if v >= p.omega - tie)
        p.width = min(width_target, h)
        _, V = _eig.eigh_single(_hermitian_rot(T, cmath.exp(1j * p.theta_star)))
        p.maximizer = _freeze(np.ascontiguousarray(V[:, -1]))

    _PROFILE_CACHE.put(key, p)
    return p


def _omega_of(T: np.ndarray, grid: int = GRID_DEFAULT) -> float:
    """Internal shortcut: the radius of a canonical matrix."""
    return _profile(T, grid).omega


# ---------------------------------------------------------------------------
# public operations


def numerical_radius(T, tol: float = 1e-10) -> RadiusResult:
    """Numerical radius omega(T) = sup of |<Tx, x>| over unit vectors.

    Computed as max over theta of lambda_max(H_theta) on a 1024-point
    grid with golden-section refinement of every competitive bracket.
    The enclosure is certified by the Lipschitz bound
    |lambda_max(H_a) - lambda_max(H_b)| <= ||T|| |a - b| applied to the
    final refinement bracket.

    The zero matrix returns omega = 0, theta_star = 0, maximizer = e1.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    T = as_matrix(T)
    p = _profile(T, GRID_DEFAULT, tol)
    upper = p.omega + p.lip * p.width
    return RadiusResult(
        omega=p.omega,
        theta_star=p.theta_star % _TWO_PI,
        maximizer=p.maximizer,
        enclosure=(p.omega, upper),
    )


def crawford_number(T, tol: float = 1e-10) -> float:
    """Crawford number c(T): the distance from 0 to the numerical range.

    Equals max(0, max over theta of lambda_min(H_theta)) by convexity of
    W(T); the inner maximization reuses the grid sweep plus golden
    refinement.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    T = as_matrix(T)
    p = _profile(T, GRID_DEFAULT, tol)
    if p.is_zero:
        return 0.0
    best_grid = float(p.lo.max())
    if best_grid + 2.0 * p.lip * (_TWO_PI / p.grid) < 0.0:
        # the whole sweep stays clearly below zero: 0 is interior
        return 0.0
    h = _TWO_PI / p.grid
    keep = best_grid - 2.0 * p.lip * h
    brackets = []
    for s, e in _cyclic_local_max_groups(p.lo):
        gv = float(p.lo[s % p.grid])
        if gv < keep:
            continue
        a = (s - 1) * h
        b = (e + 1) * h
        if b - a >= _TWO_PI:
            continue
        brackets.append((a, b, (0.5 * (s + e) * h, gv)))
    best = best_grid
    if brackets:
        # lambda_min(H_theta(T)) = -lambda_max(H_theta(-T))
        a, b, seeds = zip(*brackets)
        width_target = tol / max(p.lip, 1e-300)
        for _, fb in _refine_peaks(
            (-T)[None], [0] * len(a), a, b, width_target, seeds, negate=True
        ):
            best = max(best, fb)
    return max(0.0, best)


def boundary_points(T, count: int) -> list[complex]:
    """Support points of W(T) at `count` equispaced support angles.

    Each point is <T x_theta, x_theta> for a top eigenvector x_theta of
    H_theta; every returned p has |p| <= omega(T). For an even count,
    the top eigenvector at theta + pi is the bottom one at theta.
    """
    count = int(count)
    if count < 3:
        raise ValueError("count must be at least 3")
    T = as_matrix(T)
    H = _solved_stack(T, count)
    _, V = np.linalg.eigh(H)
    X = V[:, :, -1]
    if H.shape[0] < count:
        X = np.concatenate((X, V[:, :, 0]))
    return [complex(z) for z in np.einsum("ki,ij,kj->k", X.conj(), T, X)]


def maximizers(T, tol: float = 1e-8) -> MaximizerSet:
    """All support angles attaining the radius within tol, with vectors.

    Returns one entry per grid-distinct angle whose lambda_max(H_theta)
    reaches omega(T) - tol, plus the refined optimum itself. When the
    top eigenspace at an angle is degenerate a single basis vector is
    reported for it.

    Raises
    ------
    DegenerateMatrixError
        For the zero matrix (every vector trivially maximizes).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    T = as_matrix(T)
    if not T.any():
        raise DegenerateMatrixError("zero matrix: every unit vector is a maximizer")
    p = _profile(T, GRID_DEFAULT)
    cut = p.omega - tol
    cand = [float(th) for th, v in p.peaks if v >= cut]
    cand.extend(float(th) for th, v in zip(p.thetas, p.hi) if v >= cut)
    cand.sort()
    angles: list[float] = []
    for th in cand:
        if angles and th - angles[-1] < 1e-7:
            continue
        angles.append(th)
    # wrap-around duplicate (theta ~ 0 vs theta ~ 2pi)
    if len(angles) > 1 and angles[0] + _TWO_PI - angles[-1] < 1e-7:
        angles.pop()
    pairs = []
    for th in angles:
        _, V = _eig.eigh_single(_hermitian_rot(T, cmath.exp(1j * th)))
        pairs.append((th % _TWO_PI, _freeze(np.ascontiguousarray(V[:, -1]))))
    return MaximizerSet(pairs=tuple(pairs), omega=p.omega)


def radius_enclosure(T, grid: int) -> tuple[float, float]:
    """Certified interval containing omega(T) from a pure grid sweep.

    lower is the grid maximum of lambda_max(H_theta). If p in W(T) has
    |p| = omega(T), then lambda_max(H_theta) >= omega(T) cos(theta + arg p),
    and some grid angle lies within pi/grid of -arg p, so
    omega(T) <= lower / cos(pi/grid). upper adds an allowance of
    4 n eps ||T||_F for the rounding of the sweep. No unimodality
    assumption.
    """
    grid = int(grid)
    if grid < 8:
        raise ValueError("grid must be at least 8")
    T = as_matrix(T)
    if not T.any():
        return (0.0, 0.0)
    _, hi = _sweep_extremes(T, grid)
    lower = float(hi.max())
    rounding = 4.0 * T.shape[0] * np.finfo(float).eps * float(np.linalg.norm(T))
    upper = lower / math.cos(math.pi / grid) + rounding
    return (lower, upper)
