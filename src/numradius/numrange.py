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
once, in ``linalg``: ``_hermitian_rot`` builds H_theta, and the n = 2 and
n = 3 closed forms ``_eig2_rot`` and ``_eig3_rot`` read its entries off T;
only the independent ``oracle`` builds its own. `boundary_points` reads the
support values off the sweep and gets each x_theta from one shifted
solve (a step of inverse iteration), not a full eigendecomposition.

The theta maximization runs a coarse grid first (lambda_max(H_theta) is
Lipschitz in theta with constant ||T||, but may be multimodal), then
refines every competitive grid bracket on the slope of lambda_max (a
sweep flat up to rounding, as for a disk centred at 0, keeps its grid
maximum alone). The grid is solved lazily (`_Sweep`): every 32nd angle
first, then only the arcs between solved angles that can still matter.
On an arc between solved values a and b, delta apart, W(T) lies in the wedge
of their two supporting lines, so lambda_max there is at most the
wedge's largest support over the arc's directions (the wedge bound): the
modulus of its corner, sqrt(a^2 + b^2 - 2ab cos delta) / sin delta, when
the corner points into the arc, else max(a, b), plus a rounding
allowance. The grid maximum comes from a best-first bisection that
solves only the midpoints of arcs whose bound beats the best value found
so far (about 30 of 512 eigenproblems for a generic n = 64 T); a caller
that reads a level solves every arc whose bound reaches it; and a grid
run is refined only when a bound on a step of its bracket reaches the
level read (the bracket test). Every value a caller reads is the full
sweep's bit for bit. The brackets of a call, possibly of several
matrices, are refined in lockstep: each round makes one batched
evaluation (`_slopes_at`) over every bracket still open, and a
bracket's result does not depend on the others. One driver,
`_lockstep`, advances every generator search of the package, these
peak searches and ``wderiv``'s quotient schedules and ray searches
alike; a call of more than `_SCALAR_LANES` brackets instead takes each
round's arithmetic as one numpy pass over them (`_peak_lanes`), the
same bits. Sweep results are memoized per matrix because derivative
and orthogonality code re-reads them heavily.

One eigensolve gives the slope of lambda_max with its value: by
Hellmann-Feynman it is -Im(e^{i theta} <T x, x>) for a top eigenvector
x. It vanishes at a peak, where e^{i theta} <T x, x> is real: at the
top peak, |<T x, x>| = omega(T).
Brent's zeroin finds that sign change in 5-8 eigensolves per peak; a
bracket whose end slopes do not change sign is re-split at the slope's
sign changes on the 1024-angle grid inside it (`_resplit`).

Every public call divides T by a power of two on entry (`linalg._as_unit`)
and multiplies its answer back; c T for a power of two c shares T's cached
sweep and gives c times T's answers bit for bit.

The radii of the perturbations T + r e^{i theta} S that ``wderiv`` takes
are read through T's profile too (`_radius_near`): the support function
of T + r e^{i theta} S is within r omega(S) of T's, so only the grid runs
where T's is within 2 r omega(S) of omega(T) are searched.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .linalg import (
    MAX_DIM, _LRU, _as_unit, _eig2_rot, _eig2_slope, _eig3_rot, _extremes, _freeze, _hermitian_rot,
    _rot2, _spectral_norm,
)

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
# a pruned sweep bounds 32 arcs: at delta = 2 pi / 32 the corner of two
# supporting lines lies within 0.5 % of equal samples (sec(pi / 32))
_ARCS = 32
# below this size a whole sweep costs less than pruning it
_PRUNE_MIN_N = 3
# below this size a round of bisection costs more than the angles it saves:
# `_Sweep.top` solves each arc it picks whole (on 100 generic T, n = 3: 0.19
# ms whole, 0.48 ms bisected; n = 6: 0.43 / 0.50 ms; n = 8: 0.60 / 0.54 ms).
# Bisecting at every n read `validate` (n <= 4) 2-4 % fewer instances/s in
# 3 of 3 alternating 40 s runs of `perfbench/run.py` (13.04-13.25 against
# 13.45-13.68; 2 cores, numpy 2.4.6 on OpenBLAS), `ortho-disk` the same
# within noise; the cut between 5 and 8 rests on the timing above alone
_BISECT_MIN_N = 8
# step cap of one peak search; on the benchmark pools a search takes 3-10
_ROOT_STEPS = 200
# a peak-search call of at most this many brackets runs one generator per
# bracket (`_peak_search`, in `_lockstep`), and at n = 2 its rounds of at
# most this many lanes are evaluated on Python floats; a call of more
# brackets steps them all as arrays (`_peak_lanes`). The same bits either way
_SCALAR_LANES = 16
# values within _TIE |f| of each other tie in a peak search: a computed
# lambda_max(H_theta) is within about n u ||T|| <= 2 n u omega(T) of exact
_TIE = 1e-13
# `boundary_points` shifts an extreme eigenvalue lambda of H_theta to
# lambda +- _SHIFT ||T||_F: one step of inverse iteration then gives its
# eigenvector to about _SHIFT ||T||_F / gap. At u / 4 the shift rounds onto
# lambda for eye(2), a singular solve; at the sweep's rho (8 n u) 98 of
# the 1280 directions of 20 generic n = 64 T fail `_AGREE`, none at 4 u
_SHIFT = 4.0 * _EPS
# two solutions of one direction agree when within this distance (unit
# vectors, phase-aligned)
_AGREE = 1e-10
# the two start vectors of that inverse iteration: fixed complex Gaussian
# draws, so no structure of T (a circulant's Fourier vectors, a diagonal
# T's unit vectors) makes a start orthogonal to its eigenvector
_STARTS = np.random.default_rng(20).standard_normal((MAX_DIM, 2, 2)) @ np.array([1.0, 1j])


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

    Both are filled lazily. ``sweep``, T's one sweep whatever the tol
    (`_shared`), solves the curves as far as a caller reads them, and
    ``sweep.full()`` gives the whole curves. ``peaks_above`` refines the
    grid runs a peak of a given value may come from; at -inf, every run
    within ``2 ||T|| h`` of the grid maximum.

    ``tol`` is the refinement tolerance on the radius of this unit-scaled
    T: peaks are located to brackets of tol / ||T|| rad; None, the
    scale-free profile that ``wderiv`` reads, refines to 1e-10 ||T||
    (brackets of 1e-10 rad)."""

    def __init__(self, T: np.ndarray, tol: float | None):
        self.T = T
        self.sweep, self.lip = sweep, lip = _shared(T)
        self._lock = threading.Lock()
        self._keep = self._cut = -math.inf
        if not T.any():
            self.omega = self.theta_star = self.width = 0.0
            e1 = np.zeros(T.shape[0], dtype=np.complex128)
            e1[0] = 1.0
            self.maximizer = _freeze(e1)
            self._peaks = [(0.0, 0.0)]
            return
        h = sweep.h
        self._bracket = 1e-10 if tol is None else tol / lip
        self.width = min(self._bracket, h)
        # the grid maximum is at least the samples' and the spread at least
        # theirs, so only a flat spread of samples needs the whole curve; a
        # spread within 2 rho is what two computed values of one constant
        # may differ by
        flat = 2.0 * sweep.rho
        c = sweep.samples
        hi = sweep.full()[1] if float(c.max()) - float(c.min()) <= flat else None
        omega_grid = sweep.top()
        if hi is not None and omega_grid - float(hi.min()) <= flat:
            # flat curve (a disk centred at 0): its local maxima are rounding
            # noise, and the grid already resolves it
            self._peaks = [(int(np.argmax(hi)) * h, omega_grid)]
        else:
            # grid values below a run that is refined may be unsolved (-inf):
            # they end every such run and start none
            self._keep = omega_grid - 2.0 * lip * h
            self._cut = math.inf
            self._done = np.zeros(sweep.grid, dtype=bool)
            self._peaks = []
        self.omega = max(v for _, v in self.peaks_above(omega_grid))
        tie = 1e-12 * self.omega
        self.theta_star = min(
            th for th, v in self.peaks_above(self.omega - tie) if v >= self.omega - tie
        )
        _, V = np.linalg.eigh(_hermitian_rot(T, cmath.exp(1j * self.theta_star)))
        self.maximizer = _freeze(np.ascontiguousarray(V[:, -1]))

    @functools.cached_property
    def floor(self) -> float:
        """``sweep.floor`` at T's Lipschitz constant ||T||."""
        return self.sweep.floor(self.lip)

    def peaks_above(self, level: float) -> list[tuple[float, float]]:
        """Sorted refined peaks (theta, value): every one of value at least
        ``level``, and maybe some below it.

        A grid run is refined when its value is within 2 ||T|| h of the grid
        maximum (``_keep``) and, for the bracket test, some step of its
        bracket has a bound (`_Sweep.steps`) that reaches ``level``:
        the search stays in the bracket, so it cannot end higher. The grid
        values of a run and of its two neighbours bound its steps, so a run
        of grid value gv has none above (gv + rho) sec(h / 2) + 2 rho; the
        runs that can pass are solved by ``sweep.above`` at
        min(level, level cos(h / 2)) - 4 rho, and a lower ``level`` extends
        the list. Each extension publishes a new list.
        """
        if level < self._cut:
            with self._lock:
                if level < self._cut:
                    self._extend(level)
        return self._peaks

    def _extend(self, level: float) -> None:
        sweep = self.sweep
        g = sweep.grid
        low = max(self._keep, min(level, level * math.cos(0.5 * sweep.h)) - 4.0 * sweep.rho)
        hi = sweep.above(low)
        _, s, e = _cyclic_runs(hi, low)
        pick = ~self._done[s % g]
        s, e = s[pick], e[pick]
        gv = hi[s % g]
        # the steps inside a run share its value, so its first step and the
        # two at its ends hold the largest bound of its bracket
        bound = sweep.steps(np.concatenate((s - 1, s, e)) % g).reshape(3, -1).max(axis=0)
        pick = ~(bound < level)
        if pick.any():
            s, e, gv = s[pick], e[pick], gv[pick]
            self._done[s % g] = True
            h = sweep.h
            refined = _refine_peaks(
                self.T[None],
                [0] * s.size,
                ((s - 1) * h).tolist(),
                ((e + 1) * h).tolist(),
                self._bracket,
                list(zip((0.5 * (s + e) * h).tolist(), gv.tolist())),
            )
            self._peaks = sorted(self._peaks + [(x % _TWO_PI, f) for x, f in refined])
        self._cut = level


def _extremes_at(M: np.ndarray, thetas) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_min, lambda_max) of H_theta(M) at the angles ``thetas``,
    broadcast against the stack axes of a matrix or (..., n, n) stack M.

    n = 2 and n = 3 read H_theta's entries off M by real products for the
    closed form `linalg._eig2_rot` or `linalg._eig3_rot`; any other n takes
    one batched LAPACK eigensolve. Either way each angle's bits are those
    of a call at that angle alone."""
    z = np.exp(1j * np.asarray(thetas))
    if M.shape[-1] == 2:
        return _eig2_rot(_rot2(M), z.real, z.imag)
    if M.shape[-1] == 3:
        return _eig3_rot(M, z.real, z.imag)
    return _extremes(_hermitian_rot(M, z))


def _slopes_at(Ms: np.ndarray, owner, thetas) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_max, its derivative in theta) of H_theta(Ms[owner[i]]) at
    ``thetas[i]``, for a (K, n, n) stack Ms.

    dH_theta / dtheta = H_{theta + pi/2}, so by Hellmann-Feynman the
    derivative is -Im(e^{i theta} <M x, x>) for a unit top eigenvector x:
    at a peak, <M x, x> e^{i theta} is real. n = 2 takes the closed form
    `linalg._eig2_slope`, any other n one batched ``eigh``; either way the
    values of one angle do not depend on the others of the call."""
    z = np.exp(1j * np.asarray(thetas))
    if Ms.shape[-1] == 2:
        return _eig2_slope([c[owner] for c in _rot2(Ms)], z.real, z.imag)
    A = Ms[owner]
    w, V = np.linalg.eigh(_hermitian_rot(A, z))
    x = V[..., -1]
    return w[..., -1], -(z * np.einsum("ki,kij,kj->k", x.conj(), A, x)).imag


def _sweep_extremes(T: np.ndarray, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_min, lambda_max) of H_theta(T) at theta_k = 2 pi k / grid.

    On an even grid with n != 2, angle k + grid/2 takes
    lambda_min = -lambda_max and lambda_max = -lambda_min of angle k
    (H_{theta+pi} = -H_theta), so `_extremes_at` has the sweep's bits at
    every angle at n = 2 and at the solved ones at n = 3. A (..., n, n)
    stack of matrices gives (..., grid) curves from one `_extremes_at` call.
    """
    m = grid // 2 if grid % 2 == 0 and T.shape[-1] != 2 else grid
    lo, hi = _extremes_at(T[..., None, :, :], np.arange(m) * (_TWO_PI / grid))
    if m == grid:
        return lo, hi
    return np.concatenate((lo, -hi), axis=-1), np.concatenate((hi, -lo), axis=-1)


def _grid_extremes(
    T: np.ndarray, grid: int, idx: np.ndarray, finer: _Sweep | None
) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_min, lambda_max) of H_theta(T) at the angles ``idx`` of a
    ``grid``-angle grid, as `_extremes_at` gives them. The angles that a
    ``finer`` sweep of T on a multiple of the grid has solved are copied
    from it (angle k is the same double as its angle (finer.grid / grid) k,
    so the values are the same bits), and the rest are solved in one call."""
    if finer is None:
        return _extremes_at(T, idx * (_TWO_PI / grid))
    with finer._lock:
        at = idx * (finer.grid // grid)
        wmin, wmax = finer.lo[at], finer.hi[at]
    new = wmax == -math.inf
    if new.any():
        wmin[new], wmax[new] = _extremes_at(T, idx[new] * (_TWO_PI / grid))
    return wmin, wmax


def _wedge(a, b, delta):
    """Largest support, over the directions of an arc delta wide
    (0 < delta < pi), of the wedge cut out by the supporting lines of
    support a and b at the arc's two ends.

    The wedge's support in a direction of the arc is attained at its
    corner P, with |P|^2 = (a^2 + b^2 - 2 a b cos delta) / sin^2 delta; it
    peaks at |P| when P points into the arc (b > a cos delta and
    a > b cos delta), and otherwise at an end of the arc, max(a, b). It is
    never above |P|.
    """
    c, s = np.cos(delta), np.sin(delta)
    corner = np.hypot(a - b * c, b * s) / s
    return np.where((b > a * c) & (a > b * c), corner, np.maximum(a, b))


def _interior(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The angles strictly inside the arcs (s, t), arc after arc."""
    count = t - s - 1
    first = np.repeat(s + 1 + count - np.cumsum(count), count)
    return first + np.arange(first.size)


class _Sweep:
    """`_sweep_extremes` of one matrix, solved only as far as callers read.

    The first solve takes every (grid // 32)-th angle; the angles between
    two solved ones form an open arc. W(T) lies in the wedge cut out by the
    supporting lines at the arc's ends, so every lambda_max(H_theta) on the
    arc is at most the wedge's largest support over the arc's directions
    (`_wedge`), taken with both ends raised by an allowance rho for the
    rounding of a solved value, plus 2 rho for the rounding of an unsolved
    value and of the bound itself. The bound holds at every angle of the
    arc, between grid angles too. On an even grid an arc and its antipode
    are solved together (H_{theta+pi} = -H_theta) and share the larger of
    their two bounds.

    - ``top()`` is the grid maximum, by best-first bisection: each round
      solves, in one batched call, the midpoint of every open arc whose
      bound reaches the best value solved so far, until none does. Below
      `_BISECT_MIN_N` rows a round solves those arcs whole instead.
    - ``above(level)`` solves, in one batched call, every open arc whose
      bound reaches ``level``; every value left unsolved then lies below it.
    - ``steps(k)`` bounds lambda_max on grid step [k, k + 1] h: the wedge
      bound of the step's ends once both are solved, else its arc's bound.

    With fewer than `_PRUNE_MIN_N` rows, or fewer than 64 grid angles, the
    first solve takes every angle. Given a ``finer`` sweep of the same T
    on a multiple of its grid, a pruned sweep copies the values that one
    has solved instead of solving them again: angle k of the grid is the
    same double as angle (finer.grid / grid) k of the finer one, so the
    values are the same bits. A call that solves publishes new
    read-only curves, so an array once handed out never changes; solves
    hold a lock, so threads may share a sweep.
    """

    def __init__(self, T: np.ndarray, grid: int, finer: _Sweep | None = None):
        self.T, self.grid, self._finer = T, grid, finer
        self.h = _TWO_PI / grid
        self._lock = threading.Lock()
        n = T.shape[0]
        # allowance for the rounding of one computed eigenvalue of H_theta
        self.rho = 8.0 * n * _EPS * math.sqrt(np.vdot(T, T).real)
        # solved angles; on an even grid angle m is the antipode of angle 0,
        # on an odd one it wraps to angle 0
        m = self._m = grid // 2 if grid % 2 == 0 else grid
        self._sides = np.array([0, m] if m < grid else [0])
        if n < _PRUNE_MIN_N or grid < 2 * _ARCS:
            lo, hi = _sweep_extremes(T, grid)
            self._best = float(hi.max())
            none = np.zeros(0, dtype=np.intp)
            self._publish(lo, hi, none, none, np.zeros((0, 1)))
            self.samples = self.hi
            self._mid = self._half = np.zeros(0)
            return
        ends = np.arange(0, m, grid // _ARCS)
        lo, hi = np.full(grid, math.inf), np.full(grid, -math.inf)
        self._best = -math.inf
        self._solve(ends, lo, hi)
        t = np.append(ends[1:], m)
        open_ = t - ends > 1
        self._publish(lo, hi, ends[open_], t[open_], self._bounds(hi, ends[open_], t[open_]))
        # lambda_max around the circle at the sample angles, and the arcs
        # between them that `floor` bounds
        at = np.concatenate((ends, ends + m)) if m < grid else ends
        c = self.samples = self.hi[at]
        inner = np.tile(open_, c.size // ends.size)
        self._mid = 0.5 * (c + np.roll(c, -1))[inner]
        self._half = 0.5 * (np.diff(np.append(at, grid)) * self.h)[inner]

    def _solve(self, idx: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        """Solve the angles ``idx`` of the solved half into the curves
        ``lo`` and ``hi`` (H_{theta+pi} = -H_theta gives their antipodes).
        Angles that the ``finer`` sweep has solved are copied from it."""
        wmin, wmax = _grid_extremes(self.T, self.grid, idx, self._finer)
        lo[idx], hi[idx] = wmin, wmax
        best = wmax.max()
        if self._m < self.grid:
            lo[idx + self._m], hi[idx + self._m] = -wmax, -wmin
            best = max(best, -wmin.min())
        self._best = max(self._best, float(best))

    def _publish(
        self, lo: np.ndarray, hi: np.ndarray, s: np.ndarray, t: np.ndarray, side: np.ndarray
    ) -> None:
        """Hand out the curves, then the open arcs (s, t) with their bounds
        ``side``."""
        self.lo, self.hi = _freeze(lo), _freeze(hi)
        self._s, self._t, self._side = s, t, side
        self._b = side.max(axis=1)
        # _reach, the highest bound of an open arc (None once every arc is
        # solved), is published last; a NaN bound is solved, never skipped
        self._reach = float(self._b.max()) if s.size else None

    def _bounds(self, hi: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Bounds of the open arcs (s, t) of the solved half: one column,
        and on an even grid a second one for their antipodal arcs."""
        rho = self.rho
        a = hi[s[:, None] + self._sides] + rho
        b = hi[(t[:, None] + self._sides) % self.grid] + rho
        return _wedge(a, b, ((t - s) * self.h)[:, None]) + 2.0 * rho

    def top(self) -> float:
        """The largest value of the lambda_max curve, bit for bit the full
        sweep's maximum."""
        with self._lock:
            s, t, side, b = self._s, self._t, self._side, self._b
            pick = ~(b < self._best)
            if not pick.any():
                return self._best
            lo, hi = self.lo.copy(), self.hi.copy()
            while pick.any():
                keep = ~pick
                s, t, side, b, ps, pt = s[keep], t[keep], side[keep], b[keep], s[pick], t[pick]
                if self.T.shape[0] < _BISECT_MIN_N:
                    self._solve(_interior(ps, pt), lo, hi)
                else:
                    mid = (ps + pt) // 2
                    self._solve(mid, lo, hi)
                    ps, pt = np.concatenate((ps, mid)), np.concatenate((mid, pt))
                    split = pt - ps > 1
                    ps, pt = ps[split], pt[split]
                    nside = self._bounds(hi, ps, pt)
                    s, t = np.concatenate((s, ps)), np.concatenate((t, pt))
                    side = np.concatenate((side, nside))
                    b = np.concatenate((b, nside.max(axis=1)))
                pick = ~(b < self._best)
            self._publish(lo, hi, s, t, side)
            return self._best

    def above(self, level: float) -> np.ndarray:
        """The lambda_max curve, exact wherever it reaches ``level``; a
        value that cannot reach it may read -inf."""
        reach = self._reach
        if reach is not None and not level > reach:
            with self._lock:
                need = ~(self._b < level)
                if need.any():
                    lo, hi = self.lo.copy(), self.hi.copy()
                    self._solve(_interior(self._s[need], self._t[need]), lo, hi)
                    keep = ~need
                    self._publish(lo, hi, self._s[keep], self._t[keep], self._side[keep])
        return self.hi

    def steps(self, k: np.ndarray) -> np.ndarray:
        """A bound on every computed lambda_max(H_theta) with theta in the
        grid step [k, k + 1] h, for each k of an int array (0 <= k < grid)."""
        rho = self.rho
        with self._lock:
            a, b = self.hi[k] + rho, self.hi[(k + 1) % self.grid] + rho
            open_ = (a == -math.inf) | (b == -math.inf)
            if not open_.any():
                return _wedge(a, b, self.h) + 2.0 * rho
            out = np.empty(k.shape)
            shut = ~open_
            out[shut] = _wedge(a[shut], b[shut], self.h) + 2.0 * rho
            # an open arc (s, t) holds the steps s .. t - 1, its antipode (on
            # an even grid) the steps s + m .. t + m - 1
            side, j = np.divmod(k[open_], self._m)
            order = np.argsort(self._s)
            arc = order[np.searchsorted(self._s[order], j, side="right") - 1]
            out[open_] = self._side[arc, side]
        return out

    def full(self) -> tuple[np.ndarray, np.ndarray]:
        """(lambda_min, lambda_max) curves with every arc solved."""
        self.above(-math.inf)
        return self.lo, self.hi

    def floor(self, lip: float) -> float:
        """A lower bound of the whole lambda_max curve: on an arc between
        first samples a and b, a Lipschitz constant lip >= ||T|| gives
        (a + b - lip delta) / 2, less 2 rho for rounding."""
        low = float(self.samples.min())
        if self._mid.size:
            arcs = self._mid - (lip + self.rho) * self._half - 2.0 * self.rho
            low = min(low, float(arcs.min()))
        return low


def _peak_search(
    a: float, b: float, width: float, seed: tuple[float, float], stop: float = math.inf
):
    """Refine the peak of one bracket [a, b], as a `_lockstep` search.

    It yields lists of abscissae, is sent back a (value, slope) pair for
    each, and returns (x, f, bracketed). When the slopes at a and b
    straddle zero (bracketed), Brent's zeroin finds the sign change of the
    slope: its bracket keeps a rising end left of a falling one, so it
    always holds a peak, and it stops once it is at most ``width`` wide
    (or a slope reads exactly 0, or after `_ROOT_STEPS` steps). f is the
    best of ``seed`` and the evaluated values. x is f's abscissa, or the
    last iterate, where the slope is nearest zero, when its value ties
    with f within `_TIE` |f|: near a peak the values tie to rounding over
    about sqrt(u) in x, while the slope places the peak within
    ``width``. The first evaluated value above ``stop`` ends the search
    at once with (its abscissa, it, True).
    """
    xb, fb = seed
    (fa, ga), (fz, gz) = yield [a, b]
    for x, f in ((a, fa), (b, fz)):
        if f > fb:
            xb, fb = x, f
        if f > stop:
            return x, f, True
    if not (ga >= 0.0 >= gz):
        return xb, fb, False
    # zeroin (Brent 1973) on the slope, with points (x, f, g): cur is the
    # current iterate, prev the one before, far the other end of the
    # bracket, where the slope has the other sign
    cur, prev = (b, fz, gz), (a, fa, ga)
    far = prev
    d = e = b - a
    for _ in range(_ROOT_STEPS):
        if abs(far[2]) < abs(cur[2]):
            prev, cur, far = cur, far, cur
        x, g = cur[0], cur[2]
        xm = 0.5 * (far[0] - x)
        if abs(far[0] - x) <= width or g == 0.0:
            break
        tol1 = 2.0 * _EPS * abs(x) + 0.5 * width
        if abs(e) >= tol1 and abs(prev[2]) > abs(g):
            # inverse quadratic interpolation, or the secant
            s = g / prev[2]
            if prev[0] == far[0]:
                p, q = 2.0 * xm * s, 1.0 - s
            else:
                q, r = prev[2] / far[2], g / far[2]
                p = s * (2.0 * xm * q * (q - r) - (x - prev[0]) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            s, e = e, d
            if 2.0 * p < 3.0 * xm * q - abs(tol1 * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                d = e = xm
        else:
            d = e = xm
        prev = cur
        x += d if abs(d) > tol1 else math.copysign(min(tol1, abs(xm)), xm)
        ((f, g),) = yield [x]
        cur = (x, f, g)
        if f > fb:
            xb, fb = x, f
        if f > stop:
            return x, f, True
        if (g > 0.0) == (far[2] > 0.0) and g != 0.0:
            far = prev
            d = e = x - prev[0]
    return (cur[0] if cur[1] >= fb - _TIE * abs(fb) else xb), fb, True


def _lockstep(searches: list, evaluate) -> list:
    """The return values of generator ``searches``, advanced in lockstep.

    A search yields a list of points and is sent back one value per point,
    in order, until it returns. Each round is one ``evaluate(owner,
    points)`` call over the points of every open search, ``owner[i]``
    being the index of the search that yielded ``points[i]``; it returns
    their values as a list. A search's result does not depend on the
    others as long as a point's value is its own alone. This is the only
    place where the package advances a generator."""
    out: list = [None] * len(searches)
    pending = {i: next(search) for i, search in enumerate(searches)}
    while pending:
        owner = [i for i, xs in pending.items() for _ in xs]
        values = evaluate(owner, [x for xs in pending.values() for x in xs])
        k = 0
        for i, xs in list(pending.items()):
            try:
                pending[i] = searches[i].send(values[k : k + len(xs)])
            except StopIteration as done:
                del pending[i]
                out[i] = done.value
            k += len(xs)
    return out


def _peak_lanes(Ms: np.ndarray, owner, a, b, seeds, width: float, sign: float):
    """`_peak_search` of every bracket at once, on arrays: lists (x, f,
    bracketed), each bracket's `_peak_search` result bit for bit.

    A round is one masked numpy step of zeroin over every open bracket,
    operation for operation the generator's, then one `_slopes_at` call;
    a bracket leaves the arrays once it stops. Every open bracket steps
    once a round, so the round count is each one's step count."""
    n = len(owner)
    fab, gab = _slopes_at(Ms, np.concatenate((owner, owner)), np.concatenate((a, b)))
    fab, gab = sign * fab, sign * gab
    fa, fz, ga, gz = fab[:n], fab[n:], gab[:n], gab[n:]
    xb, fb = seeds.T
    xb, fb = np.where(fa > fb, a, xb), np.where(fa > fb, fa, fb)
    xb, fb = np.where(fz > fb, b, xb), np.where(fz > fb, fz, fb)
    bracketed = (ga >= 0.0) & (0.0 >= gz)
    x_out, f_out = xb.copy(), fb.copy()
    ids = np.flatnonzero(bracketed)
    lane, xb, fb = owner[ids], xb[ids], fb[ids]
    # zeroin's points as (x, f, g) arrays: cur (c), prev (p) and far (r)
    cx, cf, cg = b[ids], fz[ids], gz[ids]
    px, pf, pg = a[ids], fa[ids], ga[ids]
    rx, rf, rg = px, pf, pg
    d = e = cx - px

    def settle(done):  # the results of the lanes ``done``
        x_out[ids[done]] = np.where(cf >= fb - _TIE * np.abs(fb), cx, xb)[done]
        f_out[ids[done]] = fb[done]

    for _ in range(_ROOT_STEPS):
        sw = np.abs(rg) < np.abs(cg)
        px, cx, rx = np.where(sw, cx, px), np.where(sw, rx, cx), np.where(sw, cx, rx)
        pf, cf, rf = np.where(sw, cf, pf), np.where(sw, rf, cf), np.where(sw, cf, rf)
        pg, cg, rg = np.where(sw, cg, pg), np.where(sw, rg, cg), np.where(sw, cg, rg)
        xm = 0.5 * (rx - cx)
        done = (np.abs(rx - cx) <= width) | (cg == 0.0)
        if done.any():
            settle(done)
            keep = ~done
            (ids, lane, xb, fb, cx, cf, cg, px, pf, pg, rx, rf, rg, xm, d, e) = (
                v[keep] for v in (ids, lane, xb, fb, cx, cf, cg, px, pf, pg, rx, rf, rg, xm, d, e)
            )
            if not ids.size:
                break
        tol1 = 2.0 * _EPS * np.abs(cx) + 0.5 * width
        nd, ne = xm.copy(), xm.copy()
        j = np.flatnonzero((np.abs(e) >= tol1) & (np.abs(pg) > np.abs(cg)))
        if j.size:
            # inverse quadratic interpolation, or the secant where prev is far
            g, s, xj = cg[j], cg[j] / pg[j], xm[j]
            p, q = 2.0 * xj * s, 1.0 - s
            k = np.flatnonzero(px[j] != rx[j])
            if k.size:
                q2, r2 = pg[j[k]] / rg[j[k]], g[k] / rg[j[k]]
                p[k] = s[k] * (2.0 * xj[k] * q2 * (q2 - r2) - (cx[j[k]] - px[j[k]]) * (r2 - 1.0))
                q[k] = (q2 - 1.0) * (r2 - 1.0) * (s[k] - 1.0)
            q = np.where(p > 0.0, -q, q)
            p = np.abs(p)
            ok = (2.0 * p < 3.0 * xj * q - np.abs(tol1[j] * q)) & (p < np.abs(0.5 * e[j] * q))
            nd[j[ok]] = p[ok] / q[ok]
            ne[j[ok]] = d[j[ok]]
        d, e = nd, ne
        px, pf, pg = cx, cf, cg
        cx = cx + np.where(np.abs(d) > tol1, d, np.copysign(np.minimum(tol1, np.abs(xm)), xm))
        cf, cg = _slopes_at(Ms, lane, cx)
        cf, cg = sign * cf, sign * cg
        xb, fb = np.where(cf > fb, cx, xb), np.where(cf > fb, cf, fb)
        flip = ((cg > 0.0) == (rg > 0.0)) & (cg != 0.0)
        rx, rf, rg = np.where(flip, px, rx), np.where(flip, pf, rf), np.where(flip, pg, rg)
        d, e = np.where(flip, cx - px, d), np.where(flip, cx - px, e)
    settle(np.ones(ids.size, dtype=bool))
    return x_out.tolist(), f_out.tolist(), bracketed.tolist()


def _refine_peaks(
    Ms: np.ndarray, owner, a, b, width: float, seeds, negate: bool = False
) -> list[tuple[float, float]]:
    """Refine the peak of bracket i of theta -> lambda_max(H_theta(Ms[owner[i]])).

    Returns (x, f) of every bracket, seeded with ``seeds[i]`` (an (x, f)
    pair): f the best value evaluated, x where the search located its
    peak (`_peak_search`); ``negate`` maximizes -lambda_max instead. Every
    bracket runs its own `_peak_search` on the slope of lambda_max to
    ``width``, all in one `_lockstep`: each round is one `_slopes_at` call
    over every bracket still open, whatever its matrix, and a bracket's
    result does not depend on the brackets that share its rounds. At
    n = 2 a round of at most `_SCALAR_LANES` lanes takes the closed form
    on Python floats instead, the same bits: most of those calls refine
    one or two brackets, where numpy's per-call cost exceeds the
    arithmetic. A call of more than `_SCALAR_LANES` brackets steps them
    all as arrays (`_peak_lanes`), the same bits as the generators, which
    cost a Python send per bracket and round. A bracket whose end slopes
    do not straddle zero is re-split on the grid's slopes (`_resplit`).
    """
    sign = -1.0 if negate else 1.0
    owner = np.asarray(owner)
    if owner.size > _SCALAR_LANES:
        arrays = (np.asarray(v, dtype=float) for v in (a, b, seeds))
        out = list(zip(*_peak_lanes(Ms, owner, *arrays, width, sign)))
    else:
        lanes = owner.tolist()
        rows: dict[int, list] = {}  # `_rot2` of the 2x2 matrices read on floats

        def evaluate(ids, x):
            ks = [lanes[i] for i in ids]
            if Ms.shape[-1] != 2 or len(x) > _SCALAR_LANES:
                f, g = _slopes_at(Ms, ks, x)
                return list(zip((sign * f).tolist(), (sign * g).tolist()))
            vals = []
            for k, t in zip(ks, x):
                c = rows.get(k)
                if c is None:
                    c = rows[k] = _rot2(Ms[k])
                z = cmath.exp(1j * t)
                f, g = _eig2_slope(c, z.real, z.imag)
                vals.append((sign * f, sign * g))
            return vals

        out = _lockstep(
            [_peak_search(lo, hi, width, seed) for lo, hi, seed in zip(a, b, seeds)], evaluate
        )
    miss = [i for i, (_, _, bracketed) in enumerate(out) if not bracketed]
    out = [(x, fx) for x, fx, _ in out]
    if miss:
        _resplit(Ms, owner, a, b, width, out, miss, sign)
    return out


def _resplit(Ms: np.ndarray, owner, a, b, width: float, out: list, miss: list, sign: float):
    """Refine again, into ``out``, the brackets ``miss`` of a
    `_refine_peaks` call, whose end slopes do not straddle zero: each is
    evaluated, in one `_slopes_at` call for all, at its ends and at the
    grid angles 2 pi k / 1024 inside it, and every rise-to-fall sign
    change of the slope there is refined as a bracket of its own, seeded
    with the best value evaluated. A bracket with none keeps that value.
    """
    h = _TWO_PI / GRID_DEFAULT
    pts = [[a[i], *(k * h for k in range(math.floor(a[i] / h), math.ceil(b[i] / h) + 1)
                    if a[i] < k * h < b[i]), b[i]] for i in miss]
    f, g = _slopes_at(Ms, np.repeat(owner[miss], [len(x) for x in pts]), [t for x in pts for t in x])
    f, g = (sign * f).tolist(), (sign * g).tolist()
    subs, at = [], 0  # (bracket, left end, right end) of each sign change
    for i, x in zip(miss, pts):
        fx, gx = f[at : at + len(x)], g[at : at + len(x)]
        at += len(x)
        j = max(range(len(x)), key=fx.__getitem__)
        if fx[j] > out[i][1]:
            out[i] = (x[j], fx[j])
        subs += [(i, x[p], x[p + 1]) for p in range(len(x) - 1) if gx[p] >= 0.0 >= gx[p + 1]]
    if subs:
        parent, lo, hi = zip(*subs)
        seeds = [out[i] for i in parent]
        got = _refine_peaks(Ms, owner[list(parent)], lo, hi, width, seeds, sign < 0.0)
        for i, r in zip(parent, got):
            if r[1] >= out[i][1]:
                out[i] = r


def _cyclic_runs(x: np.ndarray, low=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal cyclic runs along the last axis of a (K, g) stack, or of one
    (g,) row: of True in a mask, or, given ``low`` (one value for every
    row, or one per row), of grid values at least ``low`` that weakly
    dominate both neighbours (the values of such a run are equal).

    Returns int arrays (row, start, end inclusive), row by row in order of
    start. A run crossing the wrap point is merged into one with
    start < 0; an all-True row is the single run (0, g - 1).
    """
    x = np.atleast_2d(x)
    K, g = x.shape
    if low is not None:
        xw = np.concatenate((x[:, -1:], x, x[:, :1]), axis=1)
        x = (x >= np.reshape(low, (-1, 1))) & (x >= xw[:, :-2]) & (x >= xw[:, 2:])
    # each row between two False columns: in the flat padded mask, a run
    # starts after a rise and ends before the next fall
    f = np.zeros((K, g + 2), dtype=bool)
    f[:, 1:-1] = x
    f = f.ravel()
    row, col = np.divmod((f[1:] != f[:-1]).nonzero()[0], g + 2)
    row, s, e = row[0::2], col[0::2], col[1::2] - 1
    wrap = x[:, 0] & x[:, -1]
    if np.count_nonzero(wrap):
        # a row's run through the wrap point: its last run takes over its
        # first (unless one run fills the row)
        last = (e == g - 1) & (s > 0) & wrap[row]
        s[(s == 0) & (e < g - 1) & wrap[row]] = s[last] - g
        keep = ~last
        row, s, e = row[keep], s[keep], e[keep]
    return row, s, e


def _refine_runs(
    Ms: np.ndarray, curves: np.ndarray, cuts, width: float, negate: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """The largest value of each curve k, a grid sweep of
    theta -> lambda_max(H_theta(Ms[k])) (its negation with ``negate``),
    raised by refining to bracket ``width`` every cyclic run of its
    local maxima at or above ``cuts[k]``: every run of every curve in one
    `_refine_peaks` call. Returns those values and their angles."""
    g = curves.shape[-1]
    h = _TWO_PI / g
    row, s, e = _cyclic_runs(curves, cuts)
    seeds = list(zip((0.5 * (s + e) * h).tolist(), curves[row, s % g].tolist()))
    a, b = ((s - 1) * h).tolist(), ((e + 1) * h).tolist()
    refined = _refine_peaks(Ms, row, a, b, width, seeds, negate)
    best, at = curves.max(axis=-1), curves.argmax(axis=-1) * h
    for k, (x, fx) in zip(row.tolist(), refined):
        if fx > best[k]:
            best[k], at[k] = fx, x
    return best, at


def _radius_near(
    p: _Profile, Ms: np.ndarray, reach: float, lip: float, width: float
) -> tuple[np.ndarray, np.ndarray]:
    """omega(M) for every M of a stack Ms[k] = T + r e^{i theta_k} S, and
    the angle phi at which lambda_max(H_phi(M)) attains it.

    ``p`` is T's profile, ``reach`` is r omega(S) and ``lip`` is
    ||T|| + r ||S||. The support function of each M is within ``reach`` of
    T's, so its peak lies where T's own support function is within
    2 ``reach`` of omega(T). One search over two peaks can settle on the
    lower one. So when that window covers at most 1/8 of T's grid, each
    of its runs is cut at T's interior grid minima and each piece is
    searched whole. A wider window (a disk-like range, or a large r)
    takes one 256-angle sweep of the whole stack instead, whose
    temporaries grow with the stack (every caller passes at most 64
    matrices), and refines each grid peak within ``lip`` times its step
    of the top on its own (`_refine_runs`); a window level at or below
    the floor of T's curve (`_Sweep.floor`) holds every grid angle, so it
    is wide without solving T's sweep down to it. Every peak search runs
    to bracket ``width`` (`_refine_peaks`).
    """
    sweep = p.sweep
    g, h = sweep.grid, sweep.h
    level = p.omega - (2.0 * reach + 0.5 * p.lip * h + 1e-12 * p.omega)
    wide = level <= p.floor
    if not wide:
        hi = sweep.above(level)
        mask = hi >= level
        wide = np.count_nonzero(mask) > g // 8
    if wide:
        his = _sweep_extremes(Ms, 256)[1]
        return _refine_runs(Ms, his, his.max(axis=1) - lip * (_TWO_PI / 256), width)
    K = Ms.shape[0]
    pieces = []  # (a, b) grid indices of each bracket: a run, cut at its dips
    runs = _cyclic_runs(mask)
    for s, e in zip(runs[1].tolist(), runs[2].tolist()):
        v = hi[np.arange(s, e + 1) % g]
        dips = s + 1 + np.flatnonzero((v[1:-1] < v[:-2]) & (v[1:-1] <= v[2:]))
        ends = [s - 1, *dips.tolist(), e + 1]
        pieces += zip(ends[:-1], ends[1:])
    owner = np.repeat(np.arange(K), len(pieces))
    a = [s * h for s, _ in pieces] * K
    b = [e * h for _, e in pieces] * K
    seeds = [(x, -math.inf) for x in a]
    best, at = np.full(K, -math.inf), np.zeros(K)
    for k, (x, fx) in zip(owner.tolist(), _refine_peaks(Ms, owner, a, b, width, seeds)):
        if fx > best[k]:
            best[k], at[k] = fx, x
    return best, at


_PROFILE_CACHE = _LRU(1024)
_SWEEP_CACHE = _LRU(1024)


def _shared(T: np.ndarray) -> tuple[_Sweep, float]:
    """T's 1024-angle sweep and ||T||, memoized on the matrix bytes alone:
    the profiles of every tol, and `crawford_number`, read this one."""
    return _SWEEP_CACHE.get_or(
        (T.tobytes(), T.shape[0]),
        lambda: (_Sweep(T, GRID_DEFAULT), _spectral_norm(T) if T.any() else 0.0),
    )


def _cached_sweep(T: np.ndarray, grid: int) -> _Sweep | None:
    """T's cached 1024-angle sweep, when ``grid`` divides 1024 and it is
    cached: the values it has solved are those of the grid's angles."""
    if GRID_DEFAULT % grid:
        return None
    hit = _SWEEP_CACHE.get((T.tobytes(), T.shape[0]))
    return None if hit is None else hit[0]


def _profile(T: np.ndarray, tol: float | None = 1e-10) -> _Profile:
    """T's `_Profile` for ``tol``, memoized on (matrix bytes, tol)."""
    return _PROFILE_CACHE.get_or((T.tobytes(), T.shape[0], tol), lambda: _Profile(T, tol))


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
    grid with refinement of every competitive bracket on the slope of
    lambda_max (`_refine_peaks`).
    The grid solves every 32nd angle, then finds its maximum by best-first
    bisection (`_Sweep.top`): each round solves the midpoints of the arcs
    whose wedge bound reaches the best value found so far, so a generic
    n = 64 T solves about 30 of 512 eigenproblems. A bracket is refined
    only when a bound on one of its grid steps reaches the grid maximum
    (the bracket test of `_Profile.peaks_above`): one that cannot refine
    to it is left alone. The final bracket of a peak search holds a sign
    change of the slope, so a peak, and both its ends were evaluated; the
    enclosure is certified by the Lipschitz bound
    |lambda_max(H_a) - lambda_max(H_b)| <= ||T|| |a - b| applied to it.
    (A bracket whose end slopes do not change sign is re-split at the slope's
    sign changes on the grid inside it; one with none keeps its best value,
    which the bound covers unless the slope changes sign twice in a step.)

    The zero matrix returns omega = 0, theta_star = 0, maximizer = e1.
    """
    tol = _validate_tol(tol)
    T, scale = _as_unit(T)
    p = _profile(T, tol / scale)
    upper = p.omega + p.lip * p.width
    return RadiusResult(
        omega=scale * p.omega,
        theta_star=p.theta_star % _TWO_PI,
        maximizer=p.maximizer,
        enclosure=(scale * p.omega, scale * upper),
    )


def crawford_number(T, tol: float = 1e-10) -> float:
    """Crawford number c(T): the distance from 0 to the numerical range.

    Equals max(0, max over theta of lambda_min(H_theta)) by convexity of
    W(T); the inner maximization reads T's cached grid sweep (the one
    `numerical_radius` reads, whatever the tol) plus refinement of its
    near-top runs on the slope of lambda_min. When the samples of the pruned sweep already show,
    by the Lipschitz bound (a + b - ||T|| delta) / 2 on each arc, that
    every lambda_max(H_theta) exceeds 2 ||T|| times the grid step, 0 lies
    clearly inside W(T) and 0.0 returns before any arc is solved.
    """
    tol = _validate_tol(tol)
    T, scale = _as_unit(T)
    if not T.any():
        return 0.0
    sweep, lip = _shared(T)
    h = sweep.h
    # lambda_min(H_theta) = -lambda_max(H_{theta+pi}): once the whole
    # lambda_max curve is known to exceed 2 ||T|| h, so is -best_grid below
    if sweep.floor(lip) > 2.0 * lip * h:
        return 0.0
    lo = sweep.full()[0]
    best_grid = float(lo.max())
    if best_grid + 2.0 * lip * h < 0.0:
        # the whole sweep stays clearly below zero: 0 is interior
        return 0.0
    # lambda_min(H_theta(T)) = -lambda_max(H_theta(-T))
    cut = best_grid - 2.0 * lip * h
    best, _ = _refine_runs((-T)[None], lo[None], [cut], tol / scale / lip, negate=True)
    return scale * max(0.0, float(best[0]))


def boundary_points(T, count: int) -> list[complex]:
    """Support points of W(T) at `count` equispaced support angles.

    Each point is <T x_theta, x_theta> for a top eigenvector x_theta of
    H_theta; every returned p has |p| <= omega(T). For an even count,
    the top eigenvector at theta + pi is the bottom one at theta.

    The extreme eigenvalues lambda come from one `_extremes_at` call; when
    ``count`` divides 1024 and T's 1024-angle sweep is cached, the angles
    it has solved are copied from it, the same bits (`_grid_extremes`).
    Each eigenvector comes from one step of inverse iteration: H_theta -
    sigma, sigma just past lambda (by `_SHIFT` ||T||_F), is solved against
    two fixed start vectors (`_STARTS`), in one batched call for the tops
    and one for the bottoms. A direction keeps the first solution when the
    second, phase-aligned, lies within `_AGREE` of it; any other (lambda
    tied to rounding, or an unlucky start), and every direction when a
    solve is singular, takes its vector from ``eigh`` instead. With
    T = A + i B (A, B Hermitian), e^{i theta} <T x, x> is
    lambda + i <K x, x> for K = sin(theta) A + cos(theta) B, so the point
    is e^{-i theta} (lambda + i <K x, x>): lambda gives its support value
    and x only its tangential coordinate. The zero matrix gives ``count``
    zeros.
    """
    count = operator.index(count)
    if count < 3:
        raise ValueError("count must be at least 3")
    T, scale = _as_unit(T)
    if not T.any():
        return [0j] * count
    n = T.shape[0]
    m = count // 2 if count % 2 == 0 else count
    idx = np.arange(m)
    z = np.exp(1j * (idx * (_TWO_PI / count)))
    H = _hermitian_rot(T, z)
    lo, hi = _grid_extremes(T, count, idx, _cached_sweep(T, count))
    # row k < m is the top of angle k, row m + k (even count) its bottom
    pad = _SHIFT * math.sqrt(np.vdot(T, T).real)
    lam, sigma = hi, hi + pad
    if m < count:
        lam, sigma = np.concatenate((hi, lo)), np.concatenate((sigma, lo - pad))
        z = np.concatenate((z, z))
    # the shifts go onto H's diagonal in place, one half at a time
    d = np.arange(n)
    diag = H[:, d, d]
    Y = np.empty((count, n, 2), dtype=np.complex128)
    X, X2 = Y[:, :, 0], Y[:, :, 1]
    try:
        for k in range(0, count, m):
            H[:, d, d] = diag - sigma[k : k + m, None]
            Y[k : k + m] = np.linalg.solve(H, np.broadcast_to(_STARTS[:n], (m, n, 2)))
    except np.linalg.LinAlgError:
        bad = np.ones(count, dtype=bool)
    else:
        Y /= np.linalg.norm(Y, axis=1, keepdims=True)
        c = np.einsum("ki,ki->k", X2.conj(), X)
        phase = np.divide(c, np.abs(c), out=np.ones_like(c), where=c != 0.0)
        bad = ~(np.linalg.norm(X - phase[:, None] * X2, axis=1) <= _AGREE)
    H[:, d, d] = diag
    if bad.any():
        rows = np.flatnonzero(bad)
        ang, at = np.unique(rows % m, return_inverse=True)
        _, V = np.linalg.eigh(H[ang])
        X[rows] = V[at, :, np.where(rows < m, -1, 0)]
    # <A x, x> and <B x, x>, real by construction: H_0 and H_{-pi/2} of T
    qa, qb = ((X.conj() @ _hermitian_rot(T, np.array([1.0, -1j]))) * X).real.sum(axis=-1)
    p = z.conj() * (lam + 1j * (z.imag * qa + z.real * qb))
    return [scale * complex(v) for v in p]


def maximizers(T, tol: float = 1e-8) -> MaximizerSet:
    """All support angles attaining the radius within tol, with vectors.

    Returns one entry per grid-distinct angle whose lambda_max(H_theta)
    reaches omega(T) - tol, plus the refined optimum itself, read off the
    profile refined to tol / 100 (the default reads `numerical_radius`'s
    default profile). When the top eigenspace at an angle is degenerate a
    single basis vector is reported for it.

    Raises
    ------
    DegenerateMatrixError
        For the zero matrix (every vector trivially maximizes).
    """
    tol = _validate_tol(tol)
    T, scale = _as_unit(T)
    if not T.any():
        raise DegenerateMatrixError("zero matrix: every unit vector is a maximizer")
    p = _profile(T, tol / 100.0 / scale)
    cut = p.omega - tol / scale
    cand = [float(th) for th, v in p.peaks_above(cut) if v >= cut]
    cand.extend((np.flatnonzero(p.sweep.above(cut) >= cut) * p.sweep.h).tolist())
    cand.sort()
    angles: list[float] = []
    for th in cand:
        if angles and th - angles[-1] < 1e-7:
            continue
        angles.append(th)
    # wrap-around duplicate (theta ~ 0 vs theta ~ 2pi)
    if len(angles) > 1 and angles[0] + _TWO_PI - angles[-1] < 1e-7:
        angles.pop()
    _, V = np.linalg.eigh(_hermitian_rot(T, np.exp(1j * np.array(angles))))
    X = V[:, :, -1]
    pairs = tuple((th % _TWO_PI, _freeze(np.ascontiguousarray(x))) for th, x in zip(angles, X))
    return MaximizerSet(pairs=pairs, omega=scale * p.omega)


def radius_enclosure(T, grid: int) -> tuple[float, float]:
    """Certified interval containing omega(T) from a pure grid sweep.

    lower is the grid maximum of lambda_max(H_theta). If p in W(T) has
    |p| = omega(T), then lambda_max(H_theta) >= omega(T) cos(theta + arg p),
    and some grid angle lies within pi/grid of -arg p, so
    omega(T) <= lower / cos(pi/grid). upper adds an allowance of
    4 n eps ||T||_F for the rounding of the sweep. No unimodality
    assumption. The sweep solves every (grid // 32)-th angle, then
    bisects best first (`_Sweep.top`): only the midpoints of arcs whose
    wedge bound reaches the best value found so far, until none does, so
    lower is the full sweep's maximum bit for bit. When grid divides 1024
    and T's 1024-angle sweep is cached (by `numerical_radius`,
    `crawford_number` or any other call that read it), the angles it has
    solved are read from it, the same bits, and only the rest are solved
    (`_Sweep`).
    """
    grid = operator.index(grid)
    if grid < 8:
        raise ValueError("grid must be at least 8")
    T, scale = _as_unit(T)
    if not T.any():
        return (0.0, 0.0)
    sweep = _Sweep(T, grid, _cached_sweep(T, grid))
    lower = sweep.top()
    # 4 n eps ||T||_F is half the sweep's allowance rho
    upper = lower / math.cos(math.pi / grid) + 0.5 * sweep.rho
    return (scale * lower, scale * upper)
