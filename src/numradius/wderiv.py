"""One-sided derivatives of the squared numerical radius, and
approximate orthogonality deciders built on them.

For fixed matrices T, S and a direction angle theta, the map

    f(r) = omega(T + r e^{i theta} S)^2

is convex on r >= 0 (omega is a norm, so its square is convex along
every line through T). The forward difference quotients

    q(r) = (f(r) - f(0)) / (2 r)

are nonincreasing as r decreases and converge to the one-sided
derivative. ``omega_derivative`` drives r down a halving schedule until
successive quotients stabilize. The achievable resolution is limited by
the floating-point cancellation in f(r) - f(0), roughly
machine-eps * omega^2 / r, and the stopping logic accounts for that
noise floor explicitly rather than halving forever.

The derivative decides approximate orthogonality in the radius gauge:
T is eps-orthogonal to S exactly when

    omega^2(T + lam S) >= omega^2(T) - 2 eps omega(T) omega(lam S)

holds for every complex lam, which is equivalent to

    inf_theta D(theta) >= -eps omega(T) omega(S),

where D(theta) is the derivative above. ``is_omega_orthogonal``
implements both characterizations independently: the "derivative"
method locates the minimizing angle, the "direct" method minimizes the
margin of the defining inequality over the whole lam plane. The two
routes share no decision logic, so each validates the other.

The worst direction comes from the active-support identity

    D(theta) = omega(T) * max over active angles phi of
               lambda_max(hermitian part of e^{i(theta+phi)} V* S V),

where phi ranges over support angles attaining omega(T) and V spans the
top eigenspace of the rotated Hermitian part at phi: the standard
directional-derivative formula for a max-type function, exact in finite
dimension. D / omega(T) is thus the support function of the convex set
K = conv U_phi e^{i phi} W(V* S V). ``inf_derivative`` reports omega(T)
times its minimum, and the minimizing angle, both from exact support
points of K; ``derivative_via_maximizers`` evaluates it at one angle. The
difference-quotient limit at the worst angle, and a second one 2 rad
away, must agree with omega(T) times the support function there, or
ConvergenceError is raised, so the two routes cross-check on every call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import _eig, numrange
from .linalg import _LRU, DimensionError, _hermitian_rot, as_matrix

__all__ = [
    "DerivativeResult",
    "OrthoReport",
    "ConvergenceError",
    "diff_quotient",
    "omega_derivative",
    "semi_inner",
    "derivative_via_maximizers",
    "inf_derivative",
    "min_epsilon",
    "is_omega_orthogonal",
    "is_bj_orthogonal",
]

_TWO_PI = 2.0 * math.pi

#: absolute decision tolerance for the orthogonality verdicts
DECISION_TOL = 1e-9


class ConvergenceError(RuntimeError):
    """The difference-quotient schedule failed to stabilize."""


@dataclass(frozen=True)
class DerivativeResult:
    """Outcome of a difference-quotient limit.

    ``quotient_trace`` holds the evaluated (r, quotient) pairs in the
    order visited; the quotients are nonincreasing except possibly the
    last entry, which may tick up when the stop was triggered by the
    noise floor or by the confirming evaluation above the smallest
    informative radius. ``converged`` is True when the schedule stopped
    with successive quotients agreeing within tol, widened to the
    floating-point noise band of the quotient when that band exceeds
    tol (below the band no further agreement is resolvable).
    """

    value: float
    theta: float
    quotient_trace: tuple[tuple[float, float], ...]
    converged: bool


@dataclass(frozen=True)
class OrthoReport:
    """Verdict and diagnostics of an approximate-orthogonality test.

    ``margin`` is the distance to violation in the units of the test:
    for the derivative method, inf-derivative minus threshold; for the
    direct method, the worst value of
    omega^2(T+lam S) - omega^2(T) + 2 eps |lam| omega(T) omega(S)
    over the lam plane. Negative beyond the decision tolerance means
    not orthogonal.
    """

    orthogonal: bool
    epsilon: float
    inf_derivative: float
    worst_theta: float
    threshold: float
    epsilon_star: float
    method: str
    margin: float


# ---------------------------------------------------------------------------
# difference quotients


def _pair(T, S):
    T = as_matrix(T)
    S = as_matrix(S)
    if S.shape != T.shape:
        raise DimensionError(
            f"matrices must share a dimension, got {T.shape[0]} and {S.shape[0]}"
        )
    return T, S


def _validate_theta(theta: float) -> float:
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    return theta


def diff_quotient(T, S, theta: float, r: float) -> float:
    """Single forward quotient (omega^2(T + r e^{i theta} S) - omega^2(T)) / 2r."""
    T, S = _pair(T, S)
    theta = _validate_theta(theta)
    r = float(r)
    if not (r > 0.0) or not math.isfinite(r):
        raise ValueError("step r must be positive and finite")
    w0 = numrange._omega_of(T)
    wr = numrange._omega_of(T + (r * cmath.exp(1j * theta)) * S)
    return (wr * wr - w0 * w0) / (2.0 * r)


def _radius_near(
    pT, gS: float, lipS: float, Ms: np.ndarray, r: float, width: float
) -> np.ndarray:
    """omega(M) for every M of a stack Ms[k] = T + r e^{i theta_k} S.

    ``pT`` is T's profile; ``gS`` and ``lipS`` are omega(S) and ||S||.
    The support function of each M is within r omega(S) of T's, so its
    peak lies where T's own support function is within 2 r omega(S) of
    omega(T). When that window covers at most 1/8 of T's grid, each of
    its runs is searched whole, seeded at T's grid argmax in the run.
    A wider window (a disk-like range, or a large r) takes a 256-angle
    sweep of every M instead and refines each near-top grid peak on its
    own, since one search over a run holding two peaks can settle on the
    lower one. All golden searches run to bracket ``width`` in one
    `numrange._refine_peaks` call.
    """
    K = Ms.shape[0]
    g = pT.grid
    h = _TWO_PI / g
    margin = 2.0 * r * gS + 0.5 * pT.lip * h + 1e-12 * max(1.0, pT.omega)
    level = pT.omega - margin
    hi = pT.sweep.above(level)
    mask = hi >= level
    if int(mask.sum()) <= g // 8:
        runs = numrange._true_runs(mask)
        peaks = [s + int(np.argmax(hi[np.arange(s, e + 1) % g])) for s, e in runs]
        owner = np.repeat(np.arange(K), len(runs))
        a = [(s - 1) * h for s, _ in runs] * K
        b = [(e + 1) * h for _, e in runs] * K
        x0 = [(k % g) * h for k in peaks] * K
        seeds = list(zip(x0, numrange._lammax_at(Ms, owner, x0).tolist()))
        best = np.full(K, -math.inf)
    else:
        his = numrange._sweep_extremes(Ms, 256)[1]
        h = _TWO_PI / 256
        lbar = max(pT.lip + r * lipS, 1e-300)
        best = his.max(axis=1)
        owner, a, b, seeds = [], [], [], []
        for k, hi in enumerate(his):
            cut = float(best[k]) - lbar * h
            for s, e in numrange._cyclic_local_max_groups(hi):
                gv = float(hi[s % hi.size])
                if gv >= cut:
                    owner.append(k)
                    a.append((s - 1) * h)
                    b.append((e + 1) * h)
                    seeds.append((s * h, gv))
    for k, (_, fx) in zip(owner, numrange._refine_peaks(Ms, owner, a, b, width, seeds)):
        best[k] = max(best[k], fx)
    return best


def _quotient_limit(
    T: np.ndarray, S: np.ndarray, theta: float, tol: float
) -> DerivativeResult:
    """Quotient limit along a halving schedule with windowed re-maximization.

    Each omega(T + r e^{i theta} S) comes from `_radius_near`, with a
    golden width that shrinks with r. Once two quotients are in hand,
    their secant slope predicts how small r must get for the quotient to
    settle within tol, and the schedule jumps there instead of halving
    all the way.
    """
    pT = numrange._profile(T)
    pS = numrange._profile(S)
    wT, wS = pT.omega, pS.omega
    w2 = wT * wT
    if wT > 0.0:
        r0 = min(1.0, wT / (1.0 + wS))
    else:
        r0 = min(1.0, 1.0 / (1.0 + wS))
    if wS == 0.0:
        return DerivativeResult(0.0, float(theta), ((r0, 0.0),), True)
    U = cmath.exp(1j * theta) * S
    h = _TWO_PI / pT.grid
    scale = max(1.0, wT + r0 * wS)

    def omega_at(r: float) -> float:
        width = min(h, max(math.sqrt(max(r * tol, 0.0)) / (2.5 * scale), 1e-14))
        return float(_radius_near(pT, wS, pS.lip, (T + r * U)[None], r, width)[0])

    trace: list[tuple[float, float]] = []
    prev = None
    prev_r = None
    value = None
    converged = False
    r = r0
    # below r_wall the quotient noise floor exceeds ~10 tol, so evaluations
    # there carry no information at the tol scale and the schedule never
    # descends past it; a value first seen at the wall is confirmed by one
    # extra evaluation from just above (slow tails stop here, flagged honestly)
    r_wall = scale * scale * 2e-17 / tol
    bounced = False
    for _ in range(61):
        omg = omega_at(r)
        q = (omg * omg - w2) / (2.0 * r)
        nu = 2.0 * scale * scale * 1e-16 / r  # quotient noise-floor estimate
        if prev is not None:
            if q > prev:
                # impossible in exact arithmetic while r decreases (noise
                # floor reached); expected on the confirming wall bounce
                trace.append((r, q))
                value = prev
                converged = (q - prev) <= max(tol, 3.0 * nu)
                break
            delta = prev - q
            if delta <= max(0.5 * tol, 1.5 * nu):
                trace.append((r, q))
                value = q
                converged = delta <= max(tol, 3.0 * nu)
                break
        trace.append((r, q))
        r_next = 0.5 * r
        if prev is not None and prev_r is not None:
            slope = (prev - q) / (prev_r - r)  # >= 0 by convexity
            if slope > 0.0:
                r_jump = 0.4 * tol / slope
                r_next = min(r_next, max(r_jump, r * 2.0 ** -24))
        prev, prev_r = q, r
        if r_next > r_wall:
            r = r_next
        elif r > r_wall * 1.0000001:
            r = r_wall
        elif not bounced:
            bounced = True
            r = 2.0 * r_wall
        else:
            break
    if value is None:
        value = trace[-1][1]
    return DerivativeResult(float(value), float(theta), tuple(trace), converged)


def omega_derivative(T, S, theta: float, tol: float = 1e-8) -> DerivativeResult:
    """One-sided derivative of r -> omega^2(T + r e^{i theta} S) / 2 at r = 0+.

    The normalization by 2 makes the value equal to
    omega(T) * d/dr omega(T + r e^{i theta} S) whenever omega(T) > 0.
    """
    T, S = _pair(T, S)
    theta = _validate_theta(theta)
    tol = numrange._validate_tol(tol)
    return _quotient_limit(T, S, theta, tol)


def semi_inner(S, T) -> float:
    """Semi-inner product [S, T]: the derivative value at angle zero.

    Note the argument order: the first argument is the direction, the
    second the base point, matching the usual bracket convention.
    """
    return omega_derivative(T, S, 0.0).value


def derivative_via_maximizers(T, S, theta: float) -> float:
    """The derivative from the maximizing vectors of omega(T) alone.

    omega(T) times the largest Re(e^{i (theta + phi)} <S x, x>) over the
    maximizing vectors x of T, phi being the support angle at which x
    attains omega(T) (see `_ActiveSet`); no difference quotient is taken.
    """
    T, S = _pair(T, S)
    theta = _validate_theta(theta)
    wT = numrange._omega_of(T)
    return wT * _ActiveSet(T, S).settle(theta)[0] if wT > 0.0 else 0.0


# ---------------------------------------------------------------------------
# the worst direction angle: D(theta) = omega(T) sigma(theta), sigma the
# support function of K (module docstring). Points of K span a hull whose
# support never exceeds sigma; sampling 32 times finer around the points that
# touch it in the direction of interest makes it exact in a few rounds.


def _hull(P: np.ndarray) -> np.ndarray:
    """Indices of the vertices of conv(P), counter-clockwise (monotone chain)."""
    pts, idx = np.unique(P, return_index=True)  # sorted by real, then imag part
    x, y = pts.real.tolist(), pts.imag.tolist()

    def chain(order) -> list[int]:
        out: list[int] = []
        for i in order:
            while len(out) >= 2:
                a, b = out[-2], out[-1]
                if (x[b] - x[a]) * (y[i] - y[a]) - (y[b] - y[a]) * (x[i] - x[a]) > 0.0:
                    break
                out.pop()
            out.append(i)
        return out

    if len(x) <= 2:
        return idx
    return idx[chain(range(len(x)))[:-1] + chain(range(len(x) - 1, -1, -1))[:-1]]


def _min_support(V: np.ndarray) -> complex:
    """The unit u minimizing max_v Re(v conj(u)) over a convex polygon V
    (counter-clockwise): an edge's outer normal or, when 0 lies outside,
    maybe a vertex's antipode. Candidates are confirmed against every
    vertex in the order of their own offsets, which bound their support
    from below, so rounding on a short edge cannot fake a minimum."""
    r = np.abs(V)
    if V.size == 1:
        return -V[0] / r[0] if r[0] > 0.0 else 1.0 + 0j
    E = np.roll(V, -1) - V
    near = (r > 0.0) & ((E * V.conj()).real >= 0.0)
    near &= ((np.roll(V, 1) - V) * V.conj()).real >= 0.0
    U = np.concatenate((-1j * E / np.abs(E), -V[near] / r[near]))
    lower = np.concatenate(((V * U[: V.size].conj()).real, -r[near]))
    best, arg = math.inf, 0
    for i in np.argsort(lower).tolist():
        if lower[i] >= best - 1e-15 * r.max():
            break
        t = float((V * U[i].conj()).real.max())
        if t < best:
            best, arg = t, i
    return complex(U[arg])


# a point of K, its angle phi, and the spacing of the samples around it
_POINT = np.dtype([("p", complex), ("phi", float), ("h", float)])


class _ActiveSet:
    """Points of K and the blocks they come from.

    An active angle phi with a one-dimensional top eigenspace V gives the
    point e^{i phi} <S x, x>; a larger V gives a block C = V* S V, whose
    support in direction theta is lambda_max(H_{theta+phi}(C)), at the
    point e^{i phi} <C y, y> for a top eigenvector y. Isolated active
    angles are T's profile peaks; 8 or more active grid angles make an arc
    (as for a disk-shaped range), sampled at all of them and, later, at
    any active angle between them."""

    def __init__(self, T: np.ndarray, S: np.ndarray):
        pT = numrange._profile(T)
        self.T, self.S = T, S
        self.floor = pT.omega - 1e-9 * max(1.0, pT.lip)  # lambda_max of an active angle
        # a curve sampled at spacing h stays within curv h^2 of its samples
        # (the arcs of square-zero bases bend by at most 2.1 ||S|| per rad^2)
        self.curv = numrange._profile(S).lip
        # on an arc, eigenvalues share a top eigenspace only if they tie to
        # rounding, or a block active at one angle would turn with the arc
        self.tie = numrange._FLAT * pT.n * pT.lip
        self.blocks: dict[int, list[tuple]] = {}  # size: [(phi, C, spacing)]
        self.pts = np.empty(0, _POINT)
        gap = 1e-8 * max(1.0, pT.lip)
        peaks = pT.peaks_above(self.floor)
        self._arc(np.array([phi for phi, v in peaks if v >= self.floor]), 0.0, gap)
        idx = np.flatnonzero(pT.sweep.above(self.floor) >= self.floor)
        if idx.size >= 8:
            h = _TWO_PI / pT.grid
            phis = np.unique(idx % (pT.grid // 2)) * h
            w = self._arc(phis, h, self.tie, antipodes=True)
            # a block active at one angle alone can hide between grid angles
            # of the arc: search wherever a second eigenvalue comes close
            top, second = np.concatenate((w[:, -1:-3:-1], -w[:, :2])).T
            near = (second >= self.floor - pT.lip * h * h) & (second < top - self.tie)
            for phi in np.concatenate((phis, phis + math.pi))[near].tolist():
                seed = (phi, self._second(phi))
                x, _ = numrange._golden_max(self._second, phi - h, phi + h, 1e-9, seed)
                self._arc(np.array([x]), 0.0, gap)
        # about 1024 support points of blocks, at least 16 per block
        self.ring = max(16, 1024 // max(1, sum(map(len, self.blocks.values()))))
        self._blocks_at(np.arange(self.ring) * (_TWO_PI / self.ring))

    def _second(self, phi: float) -> float:
        return float(np.linalg.eigvalsh(_hermitian_rot(self.T, cmath.exp(1j * phi)))[-2])

    def _add(self, p, phi, h) -> None:
        new = np.empty(np.size(p), _POINT)
        new["p"], new["phi"], new["h"] = p, phi, h
        self.pts = np.concatenate((self.pts, new))

    def _arc(self, phis: np.ndarray, h: float, tie: float, antipodes: bool = False):
        """Sample the active angles among ``phis`` (and phis + pi with
        ``antipodes``: H_{phi+pi} = -H_phi); eigenvalues within ``tie`` of the
        top share its eigenspace. Returns the eigenvalues at ``phis``."""
        if phis.size == 0:
            return None
        w, V = np.linalg.eigh(_hermitian_rot(self.T, np.exp(1j * phis)))
        sides = [(phis, w[:, -1], (w >= w[:, -1:] - tie).sum(axis=1), -1)]
        if antipodes:
            sides.append((phis + math.pi, -w[:, 0], (w <= w[:, :1] + tie).sum(axis=1), 0))
        for ang, top, m, col in sides:
            one = np.flatnonzero((top >= self.floor) & (m == 1))
            x = V[one, :, col]
            c = np.einsum("ki,ij,kj->k", x.conj(), self.S, x)
            self._add(np.exp(1j * ang[one]) * c, ang[one], h)
            for k in np.flatnonzero((top >= self.floor) & (m > 1)).tolist():
                Vm = V[k][:, -m[k]:] if col == -1 else V[k][:, : m[k]]
                block = (float(ang[k]), Vm.conj().T @ self.S @ Vm, h)
                self.blocks.setdefault(int(m[k]), []).append(block)
        return w

    def _blocks_at(self, thetas: np.ndarray) -> np.ndarray:
        """Add every block's support point in each direction of ``thetas``;
        return the largest support in each direction."""
        best = np.full(thetas.size, -math.inf)
        for group in self.blocks.values():
            phis, Cs, hs = (np.array(v) for v in zip(*group))
            z = np.exp(1j * (np.reshape(thetas, (-1, 1)) + phis))
            w, Y = np.linalg.eigh(_hermitian_rot(Cs, z))
            y = Y[..., -1]
            p = np.exp(1j * phis) * np.einsum("tki,kij,tkj->tk", y.conj(), Cs, y)
            self._add(p.ravel(), np.tile(phis, len(p)), np.tile(hs, len(p)))
            best = np.maximum(best, w[..., -1].max(axis=1))
        return best

    def settle(self, theta: float | None = None) -> tuple[float, float]:
        """(sigma(theta), theta), or (min sigma, its theta) for theta None.

        Each round samples 32 times finer every block around theta, and the
        angles around each contact (at most 8): a point whose unsampled
        neighbourhood, within curv h^2, may reach past the value."""
        fixed = theta
        window = np.arange(-(self.ring // 32), self.ring // 32 + 1) * (_TWO_PI / self.ring)
        for r in range(1, 9):
            if fixed is None:
                self.pts = self.pts[_hull(self.pts["p"])]  # inner points never touch it
                theta = -cmath.phase(_min_support(self.pts["p"])) % _TWO_PI
            vals = (self.pts["p"] * cmath.exp(1j * theta)).real
            value = float(vals.max())
            tiny = 1e-10 * np.abs(self.pts["p"]).max()
            reach = self.curv * self.pts["h"] ** 2
            near = np.flatnonzero((vals >= value - reach) & (reach > tiny))
            grew = self._blocks_at(theta + window / 32**r)[self.ring // 32] > value + tiny
            if near.size == 0 and not grew:
                break
            near = near[np.argsort(-vals[near])[:8]]
            h = self.pts["h"][near] / 32
            self.pts["h"][near] = h
            for hh in np.unique(h).tolist():
                at = self.pts["phi"][near][h == hh]
                phis = np.unique(np.rint(at / hh)[:, None] + np.arange(-32, 33)) * hh
                self._arc(phis, hh, self.tie)
        return value, theta


_INF_CACHE = _LRU(512)


def inf_derivative(T, S, tol: float = 1e-8) -> tuple[float, float]:
    """Minimum of the derivative over all direction angles, and its angle,
    from the exact support function of T's active set (`_ActiveSet`).

    Quotient limits at the angle and 2 rad away must agree with it within
    max(1e-5 max(1, omega(T) omega(S)), 200 tol); there is no fallback, a
    disagreement raises ConvergenceError with both numbers."""
    T, S = _pair(T, S)
    tol = numrange._validate_tol(tol)
    key = (T.tobytes(), S.tobytes(), tol, T.shape[0])
    hit = _INF_CACHE.get(key)
    if hit is not None:
        return hit
    pT = numrange._profile(T)
    pS = numrange._profile(S)
    if pT.omega == 0.0 or pS.omega == 0.0:
        result = (0.0, 0.0)
        _INF_CACHE.put(key, result)
        return result
    ld = pT.omega * pS.omega  # Lipschitz bound for D over theta
    guard = max(1e-5 * max(1.0, ld), 200.0 * tol)
    active = _ActiveSet(T, S)
    low, worst = active.settle()
    off = (worst + 2.0) % _TWO_PI
    final = _quotient_limit(T, S, worst, tol)
    for dq, model in ((final, low), (_quotient_limit(T, S, off, tol), active.settle(off)[0])):
        if abs(dq.value - pT.omega * model) > guard:
            raise ConvergenceError(
                f"at theta = {dq.theta!r} the quotient limit {dq.value!r} and the "
                f"active-set support {pT.omega * model!r} disagree by more than {guard!r}"
            )
    if not final.converged:
        tr = final.quotient_trace
        wobble = abs(tr[-1][1] - tr[-2][1]) if len(tr) >= 2 else math.inf
        if wobble > 1e-4 * max(1.0, ld):
            raise ConvergenceError(
                "difference quotients failed to stabilize at the minimizing angle"
            )
    result = (pT.omega * low, float(worst))
    _INF_CACHE.put(key, result)
    return result


def min_epsilon(T, S) -> float:
    """Smallest eps in [0, 1] making T eps-orthogonal to S in the radius gauge.

    1.0 means no eps < 1 suffices (e.g. S = T, where lam = -1 collapses
    the radius entirely).
    """
    T, S = _pair(T, S)
    wT = numrange._omega_of(T)
    wS = numrange._omega_of(S)
    if wT == 0.0 or wS == 0.0:
        return 0.0
    value, _ = inf_derivative(T, S)
    return float(min(1.0, max(0.0, -value / (wT * wS))))


# ---------------------------------------------------------------------------
# direct decider
#
# F(theta, r) = g(T + r e^{i theta} S)^2 - g(T)^2 + 2 eps r g(T) g(S),
# gauge g = numerical radius or spectral norm. T is eps-orthogonal to S
# exactly when F >= 0 on the whole plane; the decider certifies
# F >= -tau or exhibits a point with F < -tau (accurately evaluated).
#
# Along each ray (fixed theta) F is convex in r with F(0) = 0, so the
# normalized margin F(theta, r) / (2r) is nondecreasing in r. One
# accurate sample at a micro radius rbar therefore bounds the whole
# tail: F(theta, r) >= (r / rbar) F(theta, rbar) for r >= rbar. The
# strip r < rbar is covered by a curvature bound: g(M)^2 is a max of
# squares of r-affine functions with slopes bounded by g(S), so
# d2F/dr2 <= 2 g(S)^2 wherever smooth, and the left-derivative secant
# F(r) >= F(rbar) - (rbar - r) * max(s, 0), s = (F(2 rbar) - F(rbar)) / rbar,
# loses at most ~4 g(S)^2 rbar^2 against the kinks; rbar is sized so
# that loss stays under half the decision tolerance. Across rays the
# normalized margin is Lipschitz in theta with constant
# (g(T) + r g(S)) g(S), which fills the gaps of an adaptively bisected
# angle grid. Radii below tau / (4 g(T) g(S)) are certified by the
# reverse triangle inequality alone, and radii beyond 2 g(T) / g(S)
# make F >= 0 automatically.
#
# Violation candidates (negative normalized margin or failed strip
# bound) are confirmed by ternary search of the convex ray before the
# verdict is allowed to say "not orthogonal"; certification never
# relies on the micro samples alone where they look suspicious. If the
# bisection hits its depth cap (possible only within ~tolerance of the
# exact orthogonality boundary, or for adversarial curvature kinks at
# micro radii), the verdict falls back to the best accurately evaluated
# minimum, which is also what the report carries as its margin.
#
# Every value of F, at the micro radii and along the ternary searches
# alike, comes from one evaluator, `_Gauge.micro_batch`: the radius
# gauge runs `_radius_near` (the kernel of the quotient limit too) with
# one fixed golden width, so the nodes and the confirmations agree.


class _Gauge:
    """Gauge-specific accurate evaluators of g(T + r e^{i theta} S)^2."""

    def __init__(self, T: np.ndarray, S: np.ndarray, kind: str):
        self.kind = kind
        self.T = T
        self.S = S
        if kind == "omega":
            self.profT = numrange._profile(T)
            profS = numrange._profile(S)
            self.gT = self.profT.omega
            self.gS = profS.omega
            self.lipS = profS.lip
        else:
            self.gT = _eig.spectral_norm_fast(T)
            self.gS = _eig.spectral_norm_fast(S)

    def micro_batch(self, thetas: np.ndarray, r: float) -> np.ndarray:
        """Accurate g^2 at every angle of ``thetas``, one radius r.

        The spectral norm comes from one batched Gram eigensolve; the
        radius from `_radius_near`, with golden searches down to 1e-7.
        """
        Ms = self.T + (r * np.exp(1j * thetas))[:, None, None] * self.S
        if self.kind == "sigma":
            G = np.matmul(np.conj(np.swapaxes(Ms, 1, 2)), Ms)
            return np.maximum(_eig.max_batch(G), 0.0)
        w = _radius_near(self.profT, self.gS, self.lipS, Ms, r, 1e-7)
        return np.maximum(w, 0.0) ** 2

    def acc_sq(self, theta: float, r: float) -> float:
        """Accurate g^2 at one point: micro_batch at a single angle."""
        return float(self.micro_batch(np.array([theta]), r)[0])


def _scan_minimum(
    T: np.ndarray, S: np.ndarray, eps: float, kind: str
) -> tuple[float, complex, float]:
    """Minimum orthogonality margin over the lam plane, with argmin.

    Returns (margin, lam, theta): the worst accurately evaluated value
    of F, a point attaining it, and its direction angle. The verdict
    quantity is margin >= -DECISION_TOL; the certificates described in
    the section comment guarantee no deeper violation hides between
    the evaluated points (up to the stated caps).
    """
    gauge = _Gauge(T, S, kind)
    gT, gS = gauge.gT, gauge.gS
    tau = DECISION_TOL
    prod = gT * gS
    if 8.0 * gT * gT <= tau:
        # reverse triangle: F >= -2 r gT gS >= -4 gT^2 >= -tau/2 everywhere
        return 0.0, 0j, 0.0
    off = 2.0 * eps * prod
    r_max = 2.0 * gT / gS * (1.0 + 1e-9)
    tau_m = tau / (2.0 * r_max)
    rbar = math.sqrt(tau) / (4.0 * gS)
    rbar = min(max(rbar, 1e-9 * gT / gS), 0.25 * r_max)
    r_lo = tau / (4.0 * prod)
    L_q = (gT + 2.0 * rbar * gS) * gS * (1.0 + 1e-9)

    best = [math.inf, 0.0, rbar]  # value, theta, r

    def note(v: float, th: float, r: float):
        if v < best[0]:
            best[0], best[1], best[2] = v, th, r

    def F(th: float, r: float, g2: float) -> float:
        v = g2 - gT * gT + off * r
        note(v, th, r)
        return v

    nodes: dict[float, tuple[float, float]] = {}  # theta -> (mt, B)

    def eval_nodes(ths: list[float]) -> None:
        g1 = gauge.micro_batch(np.array(ths), rbar)
        g2 = gauge.micro_batch(np.array(ths), 2.0 * rbar)
        for th, w1, w2 in zip(ths, g1.tolist(), g2.tolist()):
            f1 = F(th, rbar, w1)
            f2 = F(th, 2.0 * rbar, w2)
            s_plus = max((f2 - f1) / rbar, 0.0)
            nodes[th] = (f1 / (2.0 * rbar), f1 - rbar * s_plus)

    tern_done: set[float] = set()
    tern_count = [0]

    def lane_ternary(th: float):
        """Accurate convex minimization of F over [r_lo, r_max] at theta."""
        if th in tern_done or tern_count[0] >= 40:
            return None
        tern_done.add(th)
        tern_count[0] += 1
        a, b = r_lo, r_max
        fa_cache: dict[float, float] = {}

        def f(r: float) -> float:
            v = fa_cache.get(r)
            if v is None:
                v = F(th, r, gauge.acc_sq(th, r))
                fa_cache[r] = v
            return v

        for _ in range(52):
            if b - a <= 1e-9 * r_max:
                break
            m1 = a + (b - a) / 3.0
            m2 = b - (b - a) / 3.0
            f1, f2 = f(m1), f(m2)
            low = min(f1, f2)
            if low < -2.0 * tau:
                # a violation is confirmed; its exact depth is not needed
                rm = m1 if f1 <= f2 else m2
                return low, rm
            if f1 <= f2:
                b = m2
            else:
                a = m1
        rm = 0.5 * (a + b)
        return f(rm), rm

    def candidate(th: float) -> bool:
        mt, bb = nodes[th]
        return mt < -0.5 * tau_m or bb < -0.5 * tau

    base = (np.arange(64) * (_TWO_PI / 64.0)).tolist()
    eval_nodes(base)
    for th in sorted(base, key=lambda t: nodes[t][0]):
        if not candidate(th):
            break
        got = lane_ternary(th)
        if got is not None and got[0] < -tau:
            v, rm = got
            return v, rm * cmath.exp(1j * th), th

    gaps: list[tuple[float, float, int]] = [
        (base[j], base[j + 1] if j + 1 < 64 else _TWO_PI, 0) for j in range(64)
    ]
    nodes[_TWO_PI] = nodes[0.0]
    while gaps:
        a, b, d = gaps.pop()
        mt_a, b_a = nodes[a]
        mt_b, b_b = nodes[b]
        delta = b - a
        if (
            min(mt_a, mt_b) - 0.5 * L_q * delta >= -0.5 * tau_m
            and b_a >= -0.5 * tau
            and b_b >= -0.5 * tau
        ):
            continue
        if d >= 44 or len(nodes) >= 1600:
            continue  # cap: verdict falls back to the evaluated minimum
        m = 0.5 * (a + b)
        eval_nodes([m])
        if candidate(m):
            got = lane_ternary(m)
            if got is not None and got[0] < -tau:
                v, rm = got
                return v, rm * cmath.exp(1j * m), m
        gaps.append((a, m, d + 1))
        gaps.append((m, b, d + 1))

    v, th, r = best
    return v, r * cmath.exp(1j * th), th



def _validate_eps(epsilon: float) -> float:
    eps = float(epsilon)
    if not (0.0 <= eps < 1.0) or not math.isfinite(eps):
        raise ValueError("epsilon must lie in [0, 1)")
    return eps


def is_omega_orthogonal(
    T, S, epsilon: float, method: str = "derivative"
) -> OrthoReport:
    """Decide approximate orthogonality of T to S in the radius gauge.

    method="derivative" compares the worst-direction derivative with
    -eps omega(T) omega(S); method="direct" minimizes the margin of the
    defining inequality over the whole perturbation plane (per-ray
    convex minimization, certified pruning between rays). Decisions use
    an absolute tolerance of 1e-9, so verdicts within that band of the
    exact boundary may go either way.
    """
    eps = _validate_eps(epsilon)
    if method not in ("derivative", "direct"):
        raise ValueError("method must be 'derivative' or 'direct'")
    T, S = _pair(T, S)
    wT = numrange._omega_of(T)
    wS = numrange._omega_of(S)
    if wT == 0.0 or wS == 0.0:
        return OrthoReport(True, eps, 0.0, 0.0, 0.0, 0.0, method, 0.0)
    threshold = -eps * wT * wS
    value, worst = inf_derivative(T, S)
    estar = float(min(1.0, max(0.0, -value / (wT * wS))))
    if method == "derivative":
        margin = value - threshold
        return OrthoReport(
            bool(margin >= -DECISION_TOL),
            eps, value, worst, threshold, estar, method, margin,
        )
    margin, _, lam_theta = _scan_minimum(T, S, eps, "omega")
    return OrthoReport(
        bool(margin >= -DECISION_TOL),
        eps, value, lam_theta, threshold, estar, method, margin,
    )


def is_bj_orthogonal(T, S, epsilon: float) -> bool:
    """Approximate orthogonality in the spectral-norm gauge.

    True when ||T + lam S||^2 >= ||T||^2 - 2 eps ||T|| ||lam S|| for
    every complex lam, decided by the same certified scan as the direct
    radius method but with the spectral norm (and r capped at
    2 ||T|| / ||S||, beyond which the inequality is automatic).
    """
    eps = _validate_eps(epsilon)
    T, S = _pair(T, S)
    nT = _eig.spectral_norm_fast(T)
    nS = _eig.spectral_norm_fast(S)
    if nT == 0.0 or nS == 0.0:
        return True
    margin, _, _ = _scan_minimum(T, S, eps, "sigma")
    return bool(margin >= -DECISION_TOL)
