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
alone). The grid is solved lazily (`_Sweep`): every 32nd angle first,
then only the arcs between them that can reach the level a caller reads.
On an arc between samples a and b, delta apart, W(T) lies in the wedge
of their two supporting lines, so lambda_max there is at most the
modulus of the wedge's corner, sqrt(a^2 + b^2 - 2ab cos delta) / sin
delta, plus a rounding allowance. Every value a caller reads is the full
sweep's bit for bit. For n >= 3 the brackets are refined in lockstep:
each golden step makes one batched eigensolve (`linalg._extremes`) over
every bracket still open, possibly of several matrices, with results bit
for bit those of the scalar search. Sweep results are memoized per
matrix because derivative and orthogonality code re-reads them heavily.
"""

from __future__ import annotations

import cmath
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .linalg import _LRU, _extremes, _freeze, _hermitian_rot, _spectral_norm, as_matrix

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
_EPS = np.finfo(float).eps
# a support sweep whose spread is within _FLAT n u ||T|| is flat: square-zero
# T (n = 2..8) and J + J spread 1-5.5 u ||T||, generic T at least 0.13 ||T||
_FLAT = 4.0 * _EPS
# a pruned sweep bounds 32 arcs: at delta = 2 pi / 32 the corner of two
# supporting lines lies within 0.5 % of equal samples (sec(pi / 32))
_ARCS = 32
# below this size a whole sweep costs less than pruning it
_PRUNE_MIN_N = 3
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
    """Cached theta-sweep of one matrix: its support curves plus refined peaks.

    Both are filled lazily. ``sweep`` solves the curves as far as a caller
    reads them, and ``hi`` and ``lo`` are the whole curves. ``peaks_above``
    refines the grid runs a peak of a given value may come from, and
    ``peaks`` refines every run within ``2 ||T|| h`` of the grid maximum."""

    __slots__ = (
        "T",
        "n",
        "grid",
        "thetas",
        "sweep",
        "lip",
        "omega",
        "theta_star",
        "maximizer",
        "width",
        "is_zero",
        "_golden",
        "_keep",
        "_cut",
        "_peaks",
        "_lock",
    )

    T: np.ndarray
    n: int
    grid: int
    thetas: np.ndarray
    sweep: _Sweep
    lip: float
    omega: float
    theta_star: float
    maximizer: np.ndarray
    width: float
    is_zero: bool

    @property
    def hi(self) -> np.ndarray:
        return self.sweep.full()[1]

    @property
    def lo(self) -> np.ndarray:
        return self.sweep.full()[0]

    @property
    def peaks(self) -> list[tuple[float, float]]:
        return self.peaks_above(-math.inf)

    def peaks_above(self, level: float) -> list[tuple[float, float]]:
        """Sorted refined peaks (theta, value): every one of value at least
        ``level``, and maybe some below it.

        A grid run is refined when its value is within 2 ||T|| h of the grid
        maximum (``_keep``). Its golden search ends at most ||T|| h / 2 above
        that value, plus rounding, since the grid values at the edges of its
        bracket lie below it; so runs below that margin under ``level`` wait
        until a caller reads that low. Each extension publishes a new list.
        """
        h = _TWO_PI / self.grid
        cut = max(self._keep, level - (0.5 * self.lip * h + 4.0 * self.sweep.rho))
        if cut < self._cut:
            with self._lock:
                if cut < self._cut:
                    hi = self.sweep.above(cut)
                    brackets = []
                    for s, e in _cyclic_local_max_groups(hi):
                        gv = float(hi[s % self.grid])
                        if cut <= gv < self._cut:
                            brackets.append(((s - 1) * h, (e + 1) * h, (0.5 * (s + e) * h, gv)))
                    if brackets:
                        a, b, seeds = zip(*brackets)
                        refined = _refine_peaks(
                            self.T[None], [0] * len(a), a, b, self._golden, seeds
                        )
                        self._peaks = sorted(self._peaks + [(x % _TWO_PI, f) for x, f in refined])
                    self._cut = cut
        return self._peaks


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
    lo, hi = _extremes(H.reshape(-1, n, n))
    lo = lo.reshape(H.shape[:-2])
    hi = hi.reshape(H.shape[:-2])
    if H.shape[-3] == grid:
        return lo, hi
    return np.concatenate((lo, -hi), axis=-1), np.concatenate((hi, -lo), axis=-1)


def _extremes_at(T: np.ndarray, idx: np.ndarray, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_min, lambda_max) of H_theta(T) at theta = 2 pi idx / grid,
    bit for bit the values a whole sweep finds at those angles."""
    return _extremes(_hermitian_rot(T[None], np.exp(1j * (idx * (_TWO_PI / grid)))))


class _Sweep:
    """`_sweep_extremes` of one matrix, solved only as far as callers read.

    The first solve takes every (grid // 32)-th angle. On the arc between
    two such samples a and b, delta apart, W(T) lies in the wedge cut out
    by their two supporting lines, so every lambda_max(H_theta) there is
    at most the modulus of the wedge's corner P,

        |P|^2 = (a^2 + b^2 - 2 a b cos delta) / sin^2 delta,

    taken with a and b raised by an allowance rho for the rounding of a
    sample, plus 2 rho for the rounding of an unsolved value and of the
    bound itself. ``above(level)`` solves, in one batched call, the arcs
    whose bound reaches ``level``; every value left unsolved then lies
    below it. With fewer than `_PRUNE_MIN_N` rows, or fewer than 64 grid
    angles, the first solve takes every angle.

    Each solve publishes new read-only curves, so an array once handed out
    never changes; solves hold a lock, so threads may share a sweep.
    """

    def __init__(self, T: np.ndarray, grid: int):
        self.T, self.grid = T, grid
        self._lock = threading.Lock()
        n = T.shape[0]
        # allowance for the rounding of one computed eigenvalue of H_theta
        self.rho = 8.0 * n * _EPS * math.sqrt(np.vdot(T, T).real)
        if n < _PRUNE_MIN_N or grid < 2 * _ARCS:
            lo, hi = _sweep_extremes(T, grid)
            self.lo, self.hi = _freeze(lo), _freeze(hi)
            self.samples = self.hi
            self._reach = None
            self._mid = self._half = np.zeros(0)
            return
        m = grid // 2 if grid % 2 == 0 else grid  # solved angles
        # angle m is the antipode of angle 0; an odd grid wraps to angle 0
        self._ends = ends = np.append(np.arange(0, m, grid // _ARCS), m)
        lo, hi = _extremes_at(T, ends[:-1], grid)
        wmin = np.full(m, math.inf)
        wmax = np.full(m, -math.inf)
        wmin[ends[:-1]], wmax[ends[:-1]] = lo, hi
        self._publish(wmin, wmax)
        # lambda_max around the circle at the sample angles, and the arcs
        # between them (those of an even grid's second half mirror the first)
        if m < grid:
            c = self.samples = np.concatenate((hi, -lo))
            delta = np.diff(np.concatenate((ends[:-1], ends[:-1] + m, [grid])))
        else:
            c = self.samples = hi
            delta = np.diff(ends)
        delta = delta * (_TWO_PI / grid)
        rho = self.rho
        self._open = np.diff(ends) > 1
        a = c + rho
        b = np.roll(a, -1)
        corner = np.hypot(a - b * np.cos(delta), b * np.sin(delta)) / np.sin(delta)
        self.bound = (corner + 2.0 * rho).reshape(-1, ends.size - 1).max(axis=0)
        self._reach = float(self.bound[self._open].max()) if self._open.any() else None
        inner = np.tile(self._open, c.size // self._open.size)
        self._mid = 0.5 * (c + np.roll(c, -1))[inner]
        self._half = 0.5 * delta[inner]

    def _publish(self, wmin: np.ndarray, wmax: np.ndarray) -> None:
        if wmin.size < self.grid:  # H_{theta+pi} = -H_theta
            wmin, wmax = np.concatenate((wmin, -wmax)), np.concatenate((wmax, -wmin))
        self.lo, self.hi = _freeze(wmin), _freeze(wmax)

    def above(self, level: float) -> np.ndarray:
        """The lambda_max curve, exact wherever it reaches ``level``; a
        value that cannot reach it may read -inf."""
        # _reach, the highest bound of an unsolved arc (None once every arc
        # is solved), is published last; a NaN bound is solved, never skipped
        reach = self._reach
        if reach is not None and not level > reach:
            with self._lock:
                need = self._open & ~(self.bound < level)
                if need.any():
                    e = self._ends
                    idx = np.concatenate(
                        [np.arange(s + 1, t) for s, t in zip(e[:-1][need], e[1:][need])]
                    )
                    lo, hi = _extremes_at(self.T, idx, self.grid)
                    m = e[-1]
                    wmin, wmax = self.lo[:m].copy(), self.hi[:m].copy()
                    wmin[idx], wmax[idx] = lo, hi
                    self._publish(wmin, wmax)
                    self._open = todo = self._open & ~need
                    self._reach = float(self.bound[todo].max()) if todo.any() else None
        return self.hi

    def full(self) -> tuple[np.ndarray, np.ndarray]:
        """(lambda_min, lambda_max) curves with every arc solved."""
        self.above(-math.inf)
        return self.lo, self.hi

    def floor(self, lip: float) -> float:
        """A lower bound of the whole lambda_max curve: on an arc between
        samples a and b, a Lipschitz constant lip >= ||T|| gives
        (a + b - lip delta) / 2, less 2 rho for rounding."""
        low = float(self.samples.min())
        if self._mid.size:
            arcs = self._mid - (lip + self.rho) * self._half - 2.0 * self.rho
            low = min(low, float(arcs.min()))
        return low


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
    return _extremes(_hermitian_rot(Ms[np.asarray(owner)], np.exp(1j * np.asarray(x))))[1]


def _refine_peaks(
    Ms: np.ndarray, owner, a, b, width: float, seeds, negate: bool = False
) -> list[tuple[float, float]]:
    """Golden-refine bracket i of theta -> lambda_max(H_theta(Ms[owner[i]])).

    Returns ``_golden_max``'s (x, f(x)) for every bracket, seeded with
    ``seeds[i]``; ``negate`` maximizes -lambda_max instead. For n >= 3
    all brackets, whatever their matrix, share one batched eigensolve per
    golden step, which returns the scalar values bit for bit. n <= 2 and
    single brackets stay on the scalar search, which is faster there: the
    330 calls of ortho-disk seed 4242, all replayed through `_golden_lanes`
    (2 cores, numpy 2.4.6, OpenBLAS, one thread), went for n = 2 and one
    bracket from 3.4 to 173 ms, n = 2 and several from 188 to 313 ms, n >= 3
    and one from 17 to 62 ms, and the workload took 17-34 % longer.
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


def _profile(T: np.ndarray, grid: int = GRID_DEFAULT, tol: float | None = 1e-10) -> _Profile:
    """Sweep + refine one matrix; memoized on (matrix bytes, grid, tol).

    ``tol`` is the absolute golden tolerance on the radius; None refines
    to 1e-10 ||T|| (a golden width of 1e-10 rad), so that the profile of
    c T is that of T scaled by c, bit for bit when c is a power of two."""
    key = (T.tobytes(), T.shape[0], int(grid), tol)
    hit = _PROFILE_CACHE.get(key)
    if hit is not None:
        return hit

    p = _Profile()
    p.T = T
    n = p.n = T.shape[0]
    p.grid = int(grid)
    p.thetas = np.arange(p.grid) * (_TWO_PI / p.grid)
    p.is_zero = not T.any()
    p.sweep = _Sweep(T, p.grid)
    p._lock = threading.Lock()
    p._keep = p._cut = -math.inf
    if p.is_zero:
        p.lip = 0.0
        p.omega = 0.0
        p.theta_star = 0.0
        e1 = np.zeros(n, dtype=np.complex128)
        e1[0] = 1.0
        p.maximizer = _freeze(e1)
        p.width = 0.0
        p._peaks = [(0.0, 0.0)]
    else:
        p.lip = _spectral_norm(T)
        h = _TWO_PI / p.grid
        p._golden = 1e-10 if tol is None else tol / p.lip
        p.width = min(p._golden, h)
        # the grid maximum is at least the samples' and the spread at least
        # theirs, so only a flat spread of samples needs the whole curve
        c = p.sweep.samples
        c_max = float(c.max())
        flat = c_max - float(c.min()) <= _FLAT * n * p.lip
        hi = p.sweep.above(
            -math.inf if flat else c_max - (0.5 * p.lip * h + 4.0 * p.sweep.rho)
        )
        omega_grid = float(hi.max())
        if flat and omega_grid - float(hi.min()) <= _FLAT * n * p.lip:
            # flat curve (a disk centred at 0): its local maxima are rounding
            # noise, and the grid already resolves it
            p._peaks = [(p.thetas[int(np.argmax(hi))], omega_grid)]
        else:
            # grid values below a run that is refined may be unsolved (-inf):
            # they end every such run and start none
            p._keep = omega_grid - 2.0 * p.lip * h
            p._cut = math.inf
            p._peaks = []
        p.omega = max(v for _, v in p.peaks_above(omega_grid))
        tie = 1e-12 * p.omega
        p.theta_star = min(th for th, v in p.peaks_above(p.omega - tie) if v >= p.omega - tie)
        _, V = np.linalg.eigh(_hermitian_rot(T, cmath.exp(1j * p.theta_star)))
        p.maximizer = _freeze(np.ascontiguousarray(V[:, -1]))

    _PROFILE_CACHE.put(key, p)
    return p


def _rel_profile(T: np.ndarray) -> _Profile:
    """The scale-free profile (``tol=None``) that the derivatives read."""
    return _profile(T, GRID_DEFAULT, None)


# ---------------------------------------------------------------------------
# public operations


def _validate_tol(tol: float) -> float:
    tol = float(tol)
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    return tol


def numerical_radius(T, tol: float = 1e-10) -> RadiusResult:
    """Numerical radius omega(T) = sup of |<Tx, x>| over unit vectors.

    Computed as max over theta of lambda_max(H_theta) on a 1024-point
    grid with golden-section refinement of every competitive bracket.
    The grid solves every 32nd angle, then only the arcs whose corner
    bound (see `_Sweep`) reaches the samples' maximum less ||T|| h / 2
    (h the grid step) and a rounding allowance: a bracket whose grid value
    lies lower cannot refine to the grid maximum, so it is left alone.
    The enclosure is certified by the Lipschitz bound
    |lambda_max(H_a) - lambda_max(H_b)| <= ||T|| |a - b| applied to the
    final refinement bracket.

    The zero matrix returns omega = 0, theta_star = 0, maximizer = e1.
    """
    tol = _validate_tol(tol)
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
    refinement. When the samples of the pruned sweep already show, by the
    Lipschitz bound (a + b - ||T|| delta) / 2 on each arc, that every
    lambda_max(H_theta) exceeds 2 ||T|| times the grid step, 0 lies
    clearly inside W(T) and 0.0 returns before any arc is solved.
    """
    tol = _validate_tol(tol)
    T = as_matrix(T)
    p = _profile(T, GRID_DEFAULT, tol)
    if p.is_zero:
        return 0.0
    h = _TWO_PI / p.grid
    # lambda_min(H_theta) = -lambda_max(H_{theta+pi}): once the whole
    # lambda_max curve is known to exceed 2 ||T|| h, so is -best_grid below
    if p.sweep.floor(p.lip) > 2.0 * p.lip * h:
        return 0.0
    lo = p.lo
    best_grid = float(lo.max())
    if best_grid + 2.0 * p.lip * h < 0.0:
        # the whole sweep stays clearly below zero: 0 is interior
        return 0.0
    keep = best_grid - 2.0 * p.lip * h
    brackets = []
    for s, e in _cyclic_local_max_groups(lo):
        gv = float(lo[s % p.grid])
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
        for _, fb in _refine_peaks(
            (-T)[None], [0] * len(a), a, b, p._golden, seeds, negate=True
        ):
            best = max(best, fb)
    return max(0.0, best)


def boundary_points(T, count: int) -> list[complex]:
    """Support points of W(T) at `count` equispaced support angles.

    Each point is <T x_theta, x_theta> for a top eigenvector x_theta of
    H_theta; every returned p has |p| <= omega(T). For an even count,
    the top eigenvector at theta + pi is the bottom one at theta.
    """
    count = operator.index(count)
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
    tol = _validate_tol(tol)
    T = as_matrix(T)
    if not T.any():
        raise DegenerateMatrixError("zero matrix: every unit vector is a maximizer")
    p = _profile(T)
    cut = p.omega - tol
    cand = [float(th) for th, v in p.peaks_above(cut) if v >= cut]
    cand.extend(float(th) for th, v in zip(p.thetas, p.sweep.above(cut)) if v >= cut)
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
        _, V = np.linalg.eigh(_hermitian_rot(T, cmath.exp(1j * th)))
        pairs.append((th % _TWO_PI, _freeze(np.ascontiguousarray(V[:, -1]))))
    return MaximizerSet(pairs=tuple(pairs), omega=p.omega)


def radius_enclosure(T, grid: int) -> tuple[float, float]:
    """Certified interval containing omega(T) from a pure grid sweep.

    lower is the grid maximum of lambda_max(H_theta). If p in W(T) has
    |p| = omega(T), then lambda_max(H_theta) >= omega(T) cos(theta + arg p),
    and some grid angle lies within pi/grid of -arg p, so
    omega(T) <= lower / cos(pi/grid). upper adds an allowance of
    4 n eps ||T||_F for the rounding of the sweep. No unimodality
    assumption. The sweep solves every (grid // 32)-th angle, then only
    the arcs whose corner bound (see `_Sweep`) reaches those samples'
    maximum, so lower is the full sweep's maximum bit for bit.
    """
    grid = operator.index(grid)
    if grid < 8:
        raise ValueError("grid must be at least 8")
    T = as_matrix(T)
    if not T.any():
        return (0.0, 0.0)
    sweep = _Sweep(T, grid)
    lower = float(sweep.above(float(sweep.samples.max())).max())
    rounding = 4.0 * T.shape[0] * np.finfo(float).eps * float(np.linalg.norm(T))
    upper = lower / math.cos(math.pi / grid) + rounding
    return (lower, upper)
