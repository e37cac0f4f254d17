"""One-sided derivatives of the squared numerical radius, and
approximate orthogonality deciders built on them.

For fixed matrices T, S and a direction angle theta, the map

    f(r) = omega(T + r e^{i theta} S)^2

is convex on r >= 0 (omega is a norm, so its square is convex along
every line through T). The forward difference quotients

    q(r) = (f(r) - f(0)) / (2 r)

are nonincreasing as r decreases and converge to the one-sided
derivative. ``omega_derivative`` drives r down a halving schedule from
r0 2^-24, r0 = omega(T) / 2 omega(S), where the support window is narrow,
until successive quotients stabilize. Each schedule is a generator
search, and ``inf_derivative`` runs its two in one `numrange._lockstep`
(the driver of every search of the package), one
`numrange._radius_near` call a round; most pairs settle in one. The
achievable resolution is limited by the floating-point cancellation in
f(r) - f(0), roughly machine-eps * omega^2 / r, and the stopping logic
accounts for that noise floor explicitly rather than halving forever. Every
omega(T + r e^{i theta} S) is read through T's cached profile by
``numrange._radius_near`` (see the ``numrange`` docstring).

The derivative decides approximate orthogonality in the radius gauge:
T is eps-orthogonal to S exactly when

    omega^2(T + lam S) >= omega^2(T) - 2 eps omega(T) omega(lam S)

holds for every complex lam, which is equivalent to

    inf_theta D(theta) >= -eps omega(T) omega(S),

where D(theta) is the derivative above. ``is_omega_orthogonal``
implements both characterizations independently: the "derivative"
method locates the minimizing angle, the "direct" method minimizes the
margin of the defining inequality over the whole lam plane, by zeroin
on its slope along rays. The two routes share no decision logic, so each
validates the other. Every public call divides T and S by powers of two
a and b on entry (`_unit_pair`) and multiplies its answers back: by a b
for a derivative or its tolerance, by a / b for a step r.

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

In the spectral-norm gauge the same derivative is lambda_max of the
rotated Hermitian part of B = V* T* S V, V spanning T's top
right-singular space, so the threshold is closed: ``min_epsilon_bj`` is
c(B) / (||T|| ||S||), c the Crawford number (Bhatia-Semrl at eps = 0).
``is_bj_orthogonal`` decides from it by default, and by the certified
scan of the direct method with method="direct", the independent check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import numrange
from .linalg import _LRU, DimensionError, _as_unit, _hermitian_rot, _spectral_norm

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
    "min_epsilon_bj",
    "is_bj_orthogonal",
]

_TWO_PI = 2.0 * math.pi

#: relative decision tolerance of the orthogonality verdicts: a margin
#: counts as a violation below -DECISION_TOL ||T|| ||S|| (derivative, and
#: the closed form of the spectral-norm gauge) or -DECISION_TOL ||T||^2
#: (direct scan, both gauges)
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
    over the lam plane. Below -DECISION_TOL ||T|| ||S|| (derivative) or
    -DECISION_TOL ||T||^2 (direct) means not orthogonal; the margin
    scales as omega(T) omega(S), resp. omega(T)^2, with T and S.
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


def _unit_pair(T, S):
    """(T / a, S / b, a, b), each matrix through `linalg._as_unit`."""
    (T, a), (S, b) = _as_unit(T), _as_unit(S)
    if S.shape != T.shape:
        raise DimensionError(
            f"matrices must share a dimension, got {T.shape[0]} and {S.shape[0]}"
        )
    return T, S, a, b


def _validate_theta(theta: float) -> float:
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    return theta


def diff_quotient(T, S, theta: float, r: float) -> float:
    """Single forward quotient (omega^2(T + r e^{i theta} S) - omega^2(T)) / 2r."""
    T, S, a, b = _unit_pair(T, S)
    theta = _validate_theta(theta)
    r = float(r) / a * b  # in the units of the unit pair
    if not (r > 0.0) or not math.isfinite(r):
        raise ValueError("step r must be positive and finite at the scale of T and S")
    w0 = numrange._profile(T, None).omega
    M, c = _as_unit(T + (r * cmath.exp(1j * theta)) * S)
    wr = c * numrange._profile(M, None).omega
    return a * (b * ((wr * wr - w0 * w0) / (2.0 * r)))


def _quotient_limits(
    T: np.ndarray, S: np.ndarray, thetas, tol: float
) -> list[DerivativeResult]:
    """The quotient limits at the angles ``thetas``, one `_schedule` each,
    in one `numrange._lockstep`: each round is one `numrange._radius_near`
    call over the next radii of every open schedule, with the window of
    its largest r and the peak-search width of its smallest.

    Every schedule starts at r_s = min(r0, max(r0 2^-24, r_wall)),
    r0 = omega(T) / 2 omega(S): the window at r0 is wide and costs a
    256-angle sweep only to feed a secant slope; near r_s it is narrow. No
    lower: near r_wall one ulp of omega^2 moves a quotient by about 3e-8,
    and a start at r0 2^-25 puts the limit of a square-zero pair 1.02e-7
    ||T|| ||S|| below the exact minimum, past the 1e-7 the tests allow.
    """
    pT, pS = numrange._profile(T, None), numrange._profile(S, None)
    wT, wS = pT.omega, pS.omega
    if wT == 0.0 or wS == 0.0:
        return [DerivativeResult(0.0, float(t), (), True) for t in thetas]
    w2 = wT * wT
    r0 = 0.5 * wT / wS
    scale = pT.lip + r0 * pS.lip
    r_wall = scale * scale * 2e-17 / tol
    r_s = min(r0, max(r0 * 2.0**-24, r_wall))
    Us = [cmath.exp(1j * t) * S for t in thetas]

    def evaluate(owner, rs):
        Ms = np.stack([T + r * Us[i] for i, r in zip(owner, rs)])
        top = max(rs)
        width = min(pT.sweep.h, max(math.sqrt(min(rs) * tol) / (2.5 * scale), 1e-14))
        w = numrange._radius_near(pT, Ms, top * wS, pT.lip + top * pS.lip, width)[0].tolist()
        return [(o * o - w2) / (2.0 * r) for o, r in zip(w, rs)]

    runs = [_schedule(float(t), r_s, r_wall, tol, scale) for t in thetas]
    return numrange._lockstep(runs, evaluate)


def _schedule(theta: float, r: float, r_wall: float, tol: float, scale: float):
    """One angle's halving schedule from r, as a generator: it yields lists
    of radii, is sent their quotients and returns its `DerivativeResult`.
    The first round takes r and the radius after it, fixed while there is
    no secant, so two agreeing quotients settle in one round. From there
    the secant slope of the last two quotients predicts how small r must
    get to settle within tol, and the schedule jumps there. Below r_wall
    the quotient noise floor exceeds ~10 tol: the schedule never descends
    past it, and a value first seen at the wall is confirmed by one
    evaluation from just above (slow tails stop here, flagged honestly)."""

    def wall(r: float, r_next: float, bounced: bool):  # (next r or None, bounced)
        if r_next > r_wall:
            return r_next, bounced
        if r > r_wall * 1.0000001:
            return r_wall, bounced
        return (None, True) if bounced else (2.0 * r_wall, True)

    trace: list[tuple[float, float]] = []
    prev = prev_r = value = None
    converged = bounced = False
    first = [r, wall(r, 0.5 * r, bounced)[0]]
    known = dict(zip(first, (yield first)))
    for _ in range(61):
        q = known.pop(r) if r in known else (yield [r])[0]
        nu = 2.0 * scale * scale * 1e-16 / r  # quotient noise-floor estimate
        trace.append((r, q))
        # q > prev is impossible in exact arithmetic while r decreases (noise
        # floor reached); expected on the confirming wall bounce
        if prev is not None and (q > prev or prev - q <= max(0.5 * tol, 1.5 * nu)):
            value = prev if q > prev else q
            converged = abs(prev - q) <= max(tol, 3.0 * nu)
            break
        r_next = 0.5 * r
        if prev is not None:
            slope = (prev - q) / (prev_r - r)  # >= 0 by convexity
            if slope > 0.0:
                r_next = min(r_next, max(0.4 * tol / slope, r * 2.0**-24))
        prev, prev_r = q, r
        r, bounced = wall(r, r_next, bounced)
        if r is None:
            break
    if value is None:
        value = trace[-1][1]
    return DerivativeResult(float(value), theta, tuple(trace), converged)


def omega_derivative(T, S, theta: float, tol: float = 1e-8) -> DerivativeResult:
    """One-sided derivative of r -> omega^2(T + r e^{i theta} S) / 2 at r = 0+.

    The normalization by 2 makes the value equal to
    omega(T) * d/dr omega(T + r e^{i theta} S) whenever omega(T) > 0.
    """
    T, S, a, b = _unit_pair(T, S)
    theta = _validate_theta(theta)
    tol = numrange._validate_tol(tol)
    (d,) = _quotient_limits(T, S, (theta,), tol / a / b)
    trace = tuple((r / b * a, a * (b * q)) for r, q in d.quotient_trace)
    return DerivativeResult(a * (b * d.value), d.theta, trace, d.converged)


def semi_inner(S, T) -> float:
    """Semi-inner product [S, T]: the derivative value at angle zero, to
    the tolerance 1e-8 ||T|| ||S||.

    Note the argument order: the first argument is the direction, the
    second the base point, matching the usual bracket convention.
    """
    T, S, a, b = _unit_pair(T, S)
    unit = numrange._profile(T, None).lip * numrange._profile(S, None).lip
    return a * (b * _quotient_limits(T, S, (0.0,), 1e-8 * unit)[0].value)


def derivative_via_maximizers(T, S, theta: float) -> float:
    """The derivative from the maximizing vectors of omega(T) alone.

    omega(T) times the largest Re(e^{i (theta + phi)} <S x, x>) over the
    maximizing vectors x of T, phi being the support angle at which x
    attains omega(T) (see `_ActiveSet`); no difference quotient is taken.
    """
    T, S, a, b = _unit_pair(T, S)
    theta = _validate_theta(theta)
    wT = numrange._profile(T, None).omega
    return a * (b * (wT * _ActiveSet(T, S).settle(theta)[0])) if wT > 0.0 else 0.0


# ---------------------------------------------------------------------------
# the worst direction angle: D(theta) = omega(T) sigma(theta), sigma the
# support function of K (module docstring). Points of K span a hull whose
# support never exceeds sigma; sampling 32 times finer around the points that
# touch it in the direction of interest makes it exact in a few rounds.


def _hull(P: np.ndarray) -> np.ndarray:
    """Indices of the vertices of conv(P), counter-clockwise: the lower and
    upper chains of the points sorted by real, then imaginary part. Each
    numpy pass drops, on both chains, every point that makes no left turn
    with its current neighbours, until none does; these are exactly the
    points a monotone chain pops."""
    pts, idx = np.unique(P, return_index=True)  # sorted by real, then imag part
    if pts.size <= 2:
        return idx
    x, y = pts.real, pts.imag
    m = pts.size
    # the lower chain walks 0 .. m - 1, the upper one back again; the two
    # share their ends, which never drop
    order = np.concatenate((np.arange(m), np.arange(m - 2, -1, -1)))
    while True:
        a, b, c = order[:-2], order[1:-1], order[2:]
        keep = (x[b] - x[a]) * (y[c] - y[a]) - (y[b] - y[a]) * (x[c] - x[a]) > 0.0
        keep |= b == m - 1  # the rightmost point turns the walk; it stays too
        if keep.all():
            return idx[order[:-1]]
        order = np.concatenate((order[:1], b[keep], order[-1:]))


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
        pT = numrange._profile(T, None)
        self.T, self.S = T, S
        self.floor = pT.omega - 1e-9 * pT.lip  # lambda_max of an active angle
        # a curve sampled at spacing h stays within curv h^2 of its samples
        # (the arcs of square-zero bases bend by at most 2.1 ||S|| per rad^2)
        self.curv = numrange._profile(S, None).lip
        # on an arc, eigenvalues share a top eigenspace only if they tie to
        # rounding, or a block active at one angle would turn with the arc
        self.tie = 4.0 * numrange._EPS * T.shape[0] * pT.lip
        self.blocks: dict[int, list[tuple]] = {}  # size: [(phi, C, spacing)]
        self.pts = np.empty(0, _POINT)
        gap = 1e-8 * pT.lip
        peaks = pT.peaks_above(self.floor)
        self._arc(np.array([phi for phi, v in peaks if v >= self.floor]), 0.0, gap)
        idx = np.flatnonzero(pT.sweep.above(self.floor) >= self.floor)
        if idx.size >= 8:
            h = pT.sweep.h
            phis = np.unique(idx % (pT.sweep.grid // 2)) * h
            w = self._arc(phis, h, self.tie, antipodes=True)
            # a block active at one angle alone can hide between grid angles
            # of the arc: search wherever a second eigenvalue comes close
            top, second = np.concatenate((w[:, -1:-3:-1], -w[:, :2])).T
            near = (second >= self.floor - pT.lip * h * h) & (second < top - self.tie)
            searches = [
                numrange._peak_search(phi - h, phi + h, 1e-9, (phi - h, -math.inf))
                for phi in np.concatenate((phis, phis + math.pi))[near].tolist()
            ]
            for x, _, _ in numrange._lockstep(searches, self._second):
                self._arc(np.array([x]), 0.0, gap)
        # about 1024 support points of blocks, at least 16 per block
        self.ring = max(16, 1024 // max(1, sum(map(len, self.blocks.values()))))
        self._blocks_at(np.arange(self.ring) * (_TWO_PI / self.ring))

    def _second(self, _, phis: list) -> list[tuple[float, float]]:
        """(lambda_2(H_phi(T)), its slope -Im(e^{i phi} <T y, y>) at its
        eigenvector y) at each angle of ``phis``, one ``eigh`` each: the
        `numrange._lockstep` evaluation of the hidden-block searches."""
        out = []
        for phi in phis:
            z = cmath.exp(1j * phi)
            w, V = np.linalg.eigh(_hermitian_rot(self.T, z))
            y = V[:, -2]
            out.append((float(w[-2]), float(-(z * np.vdot(y, self.T @ y)).imag)))
        return out

    def _add(self, p, phi, h) -> None:
        new = np.empty(np.size(p), _POINT)
        new["p"], new["phi"], new["h"] = p, phi, h
        self.pts = np.concatenate((self.pts, new))

    def _arc(self, phis: np.ndarray, h: float, tie: float, antipodes: bool = False):
        """Sample the active angles among ``phis`` (and phis + pi with
        ``antipodes``: H_{phi+pi} = -H_phi); eigenvalues within ``tie`` of the
        top share its eigenspace. Returns the eigenvalues at ``phis``."""
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

    Quotient limits at the angle and 2 rad away, to the absolute tolerance
    ``tol`` of `omega_derivative`, must agree with it within
    max(1e-5 ||T|| ||S||, 200 tol); there is no fallback, a disagreement
    raises ConvergenceError with both numbers."""
    T, S, a, b = _unit_pair(T, S)
    tol = numrange._validate_tol(tol) / a / b
    key = (T.tobytes(), S.tobytes(), tol, T.shape[0])
    hit = _INF_CACHE.get_or(key, lambda: _inf_unit(T, S, tol))
    return a * (b * hit[0]), hit[1]


def _inf_unit(T: np.ndarray, S: np.ndarray, tol: float) -> tuple[float, float]:
    """`inf_derivative` of a pair from `_unit_pair`, to its tol."""
    pT = numrange._profile(T, None)
    pS = numrange._profile(S, None)
    if pT.omega == 0.0 or pS.omega == 0.0:
        return (0.0, 0.0)
    ld = pT.lip * pS.lip  # the unit of D
    guard = max(1e-5 * ld, 200.0 * tol)
    active = _ActiveSet(T, S)
    low, worst = active.settle()
    off = (worst + 2.0) % _TWO_PI
    final, second = _quotient_limits(T, S, (worst, off), tol)
    for dq, model in ((final, low), (second, active.settle(off)[0])):
        if abs(dq.value - pT.omega * model) > guard:
            raise ConvergenceError(
                f"at theta = {dq.theta!r} the quotient limit {dq.value!r} and the "
                f"active-set support {pT.omega * model!r} disagree by more than {guard!r}"
            )
    if not final.converged:
        tr = final.quotient_trace
        wobble = abs(tr[-1][1] - tr[-2][1]) if len(tr) >= 2 else math.inf
        if wobble > 1e-4 * ld:
            raise ConvergenceError(
                "difference quotients failed to stabilize at the minimizing angle"
            )
    return (pT.omega * low, float(worst))


def min_epsilon(T, S) -> float:
    """Smallest eps in [0, 1] making T eps-orthogonal to S in the radius gauge.

    1.0 means no eps < 1 suffices (e.g. S = T, where lam = -1 collapses
    the radius entirely).
    """
    T, S, _, _ = _unit_pair(T, S)
    pT, pS = numrange._profile(T, None), numrange._profile(S, None)
    wT, wS = pT.omega, pS.omega
    if wT == 0.0 or wS == 0.0:
        return 0.0
    unit = pT.lip * pS.lip  # as in is_omega_orthogonal: one cache entry
    value, _ = inf_derivative(T, S, 1e-8 * unit)
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
# strip r < rbar is bounded by F's tangent at rbar, from the same
# evaluation and with no curvature assumption. On M_r = T + r e^{i theta} S
# take the top vector of g(M_rbar). In the radius gauge, for x a top
# eigenvector of H_phi(M_rbar) at its peak angle phi, a(r) =
# <H_phi(M_r) x, x> is affine in r and |a(r)| <= omega(M_r), so
# omega(M_r)^2 >= a(r)^2 >= a(rbar)^2 + 2 a(rbar) a' (r - rbar). In the
# spectral-norm gauge ||M_r v||^2, v a top eigenvector of M_rbar* M_rbar,
# is a convex quadratic in r below ||M_r||^2. So with s the slope of g^2
# at rbar that `micro_batch` returns,
#     F(r) >= F(rbar) - rbar max(s + 2 eps g(T) g(S), 0)  on [0, rbar]
# (the strip bound), up to the rounding between the evaluated g^2 and the
# vector's quotient: the peak search's tie (1e-13 omega^2) plus about
# n u ||M||, under 1e-3 tau. At r = 0 the tangent loses g(S)^2 rbar^2 =
# tau / 16 where d2F/dr2 = 2 g(S)^2, well under the tau / 2 that flags a
# node.
# Across rays the normalized margin is Lipschitz in theta with constant
# (g(T) + r g(S)) g(S), which certifies the gap between two angle nodes.
# The scan runs level by level: level 0 is 64 equally spaced nodes, and
# each further level holds the midpoints of the gaps the level before
# left uncertified, in angle order, evaluated in `micro_batch` calls of
# at most 64 nodes, one point each. Radii below tau / (4 g(T) g(S)) are
# certified by the reverse triangle inequality alone, and radii beyond
# 2 g(T) / g(S) make F >= 0 automatically.
#
# Violation candidates (negative normalized margin or failed strip
# bound) are confirmed by zeroin on the slope of F along the convex ray,
# ended by the first F < -2 tau, before the verdict is allowed to say
# "not orthogonal". Each level searches its nodes in order of normalized
# margin, up to the first that is no candidate. F(r_max) >= 0 = F(0), so
# F'(r_max) >= 0: a ray with F'(r_lo) > 0 has its minimum at r_lo, an
# end the search evaluates first. Certification never relies on the
# micro samples alone where they look suspicious. The scan stops after
# 44 levels past the base or 1,600 nodes (the last level is cut in angle
# order), and searches at most 40 rays; these caps are reached only
# within ~tolerance of the exact orthogonality boundary, or for
# adversarial curvature kinks at micro radii. At a cap the verdict falls
# back to the best accurately evaluated minimum, which is also what the
# report carries as its margin.
#
# Every value of F and its slope, at the nodes and along the ray searches
# alike, comes from one evaluator, `_Gauge.micro_batch`: the radius
# gauge runs `numrange._radius_near` (the kernel of the quotient limit
# too) with one fixed peak-search width, so the nodes and the
# confirmations agree.


class _Gauge:
    """Gauge-specific accurate evaluators of g(T + r e^{i theta} S)^2."""

    def __init__(self, T: np.ndarray, S: np.ndarray, kind: str):
        self.kind = kind
        self.T = T
        self.S = S
        if kind == "omega":
            self.profT = numrange._profile(T, None)
            profS = numrange._profile(S, None)
            self.gT = self.profT.omega
            self.gS = profS.omega
            self.lipS = profS.lip
            self.norm = self.profT.lip
        else:
            self.gT = self.norm = _spectral_norm(T)
            self.gS = _spectral_norm(S)

    def micro_batch(self, thetas: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
        """(g^2, its derivative in r) at every point (thetas[k], r).

        The derivative is 2 omega(M) Re(e^{i (phi + theta)} <S x, x>) for a
        top eigenvector x of H_phi(M) at M's peak angle phi (radius gauge;
        the radius from one `numrange._radius_near` call with peak searches
        down to brackets of 1e-7), or 2 Re(e^{i theta} <S v, M v>) for a top
        eigenvector v of M* M (one batched Gram ``eigh``). A point's values
        are its values alone, bit for bit.
        """
        z = np.exp(1j * thetas)
        Ms = self.T + (r * z)[:, None, None] * self.S
        if self.kind == "sigma":
            w, V = np.linalg.eigh(np.matmul(np.conj(np.swapaxes(Ms, 1, 2)), Ms))
            y = V[..., -1]
            g2, g, c, x = np.maximum(w[:, -1], 0.0), 1.0, z, (Ms * y[:, None, :]).sum(-1)
        else:
            g, phi = numrange._radius_near(self.profT, Ms, r * self.gS, self.norm + r * self.lipS, 1e-7)
            g = np.maximum(g, 0.0)
            y = x = np.linalg.eigh(_hermitian_rot(Ms, np.exp(1j * phi)))[1][..., -1]
            g2, c = g * g, np.exp(1j * (thetas + phi))
        # both slopes are 2 g Re(c <S y, x>), summed along rows: einsum's
        # sums would change with the number of points
        return g2, 2.0 * g * (c * (x.conj() * (self.S * y[:, None, :]).sum(-1)).sum(-1)).real


def _scan_minimum(
    T: np.ndarray, S: np.ndarray, eps: float, kind: str
) -> tuple[bool, float, float]:
    """Minimum orthogonality margin over the lam plane.

    Returns (verdict, margin, theta): margin is the worst accurately
    evaluated value of F, theta the direction angle of a point attaining
    it, and the verdict is margin >= -tau, tau = DECISION_TOL ||T||^2.
    The angle nodes are bisected level by level, each level in
    `micro_batch` calls of at most 64 nodes, until every gap is certified
    (section comment). A node is one evaluation at rbar: its value gives
    the normalized margin, its slope the tangent strip bound. The
    certificates guarantee no deeper violation hides between the
    evaluated points (up to the stated caps).
    """
    gauge = _Gauge(T, S, kind)
    gT, gS = gauge.gT, gauge.gS
    tau = DECISION_TOL * gauge.norm**2
    prod = gT * gS
    off = 2.0 * eps * prod
    r_max = 2.0 * gT / gS * (1.0 + 1e-9)
    tau_m = tau / (2.0 * r_max)
    rbar = math.sqrt(tau) / (4.0 * gS)  # at most 0.25 r_max, as gT >= ||T|| / 2
    r_lo = tau / (4.0 * prod)
    L_q = (gT + 2.0 * rbar * gS) * gS * (1.0 + 1e-9)

    best = [math.inf, 0.0]  # value, theta

    def F(th: float, r: float, g2: float) -> float:
        v = g2 - gT * gT + off * r
        if v < best[0]:
            best[0], best[1] = v, th
        return v

    def ray_search(th: float) -> float:
        """Accurate convex minimization of F over [r_lo, r_max] at theta:
        zeroin on the slope of F, ended by the first F < -2 tau (a
        confirmed violation)."""

        def fg(r: float) -> tuple[float, float]:
            (g2,), (slope,) = gauge.micro_batch(np.array([th]), r)
            return -F(th, r, float(g2)), -(float(slope) + off)

        search = numrange._peak_search(r_lo, r_max, 1e-9 * r_max, (r_lo, -math.inf), 2.0 * tau)
        return -numrange._lockstep([search], lambda _, rs: [fg(r) for r in rs])[0][1]

    nodes: dict[float, tuple[float, float]] = {}  # theta -> (mt, B)
    ths = (np.arange(64) * (_TWO_PI / 64.0)).tolist()
    gaps: list[tuple[float, float]] = []  # the gaps that ths bisect
    rays = 0
    for level in range(45):  # the base, then at most 44 bisections
        for i in range(0, len(ths), 64):
            part = ths[i : i + 64]
            g2, slope = gauge.micro_batch(np.array(part), rbar)
            for th, w, s in zip(part, g2.tolist(), slope.tolist()):
                f1 = F(th, rbar, w)
                nodes[th] = (f1 / (2.0 * rbar), f1 - rbar * max(s + off, 0.0))
        for th in sorted(ths, key=lambda t: nodes[t][0]):
            mt, bb = nodes[th]
            if rays == 40 or not (mt < -0.5 * tau_m or bb < -0.5 * tau):
                break
            rays += 1
            got = ray_search(th)
            if got < -tau:
                return False, got, th
        if level == 0:
            nodes[_TWO_PI] = nodes[0.0]
            spans = list(zip(ths, ths[1:] + [_TWO_PI]))
        else:
            spans = [s for (a, b), m in zip(gaps, ths) for s in ((a, m), (m, b))]
        gaps = [
            (a, b)
            for a, b in spans
            if not (
                min(nodes[a][0], nodes[b][0]) - 0.5 * L_q * (b - a) >= -0.5 * tau_m
                and nodes[a][1] >= -0.5 * tau
                and nodes[b][1] >= -0.5 * tau
            )
        ][: 1600 - len(nodes)]
        ths = [0.5 * (a + b) for a, b in gaps]
        if not ths:
            break
    # no gap left, or a cap: the verdict falls back to the evaluated minimum
    v, th = best
    return v >= -tau, v, th


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
    the tolerance DECISION_TOL in the units of each margin (see
    `OrthoReport`), so verdicts within that band of the exact boundary may
    go either way, and a verdict does not change when T and S are
    multiplied by positive reals (see `_unit_pair`).
    """
    eps = _validate_eps(epsilon)
    if method not in ("derivative", "direct"):
        raise ValueError("method must be 'derivative' or 'direct'")
    T, S, a, b = _unit_pair(T, S)
    pT, pS = numrange._profile(T, None), numrange._profile(S, None)
    wT, wS = pT.omega, pS.omega
    if wT == 0.0 or wS == 0.0:
        return OrthoReport(True, eps, 0.0, 0.0, 0.0, 0.0, method, 0.0)
    threshold = -eps * wT * wS
    unit = pT.lip * pS.lip
    value, worst = inf_derivative(T, S, 1e-8 * unit)
    estar = float(min(1.0, max(0.0, -value / (wT * wS))))
    # scaled one factor at a time, so that an overflowing a b never meets a 0
    value_ab, threshold_ab = a * (b * value), a * (b * threshold)
    if method == "derivative":
        margin = value - threshold
        return OrthoReport(
            bool(margin >= -DECISION_TOL * unit),
            eps, value_ab, worst, threshold_ab, estar, method, a * (b * margin),
        )
    orthogonal, margin, lam_theta = _scan_minimum(T, S, eps, "omega")
    return OrthoReport(
        orthogonal, eps, value_ab, lam_theta, threshold_ab, estar, method, a * (a * margin)
    )


# ---------------------------------------------------------------------------
# spectral-norm gauge
#
# Let V be an orthonormal basis of T's top right-singular space. The top
# eigenvalue of (T + r E)*(T + r E) = T*T + r (T*E + E*T) + r^2 E*E moves
# at first order by the top eigenvalue of the compression of T*E + E*T to
# V, so with E = e^{i theta} S the derivative of ||T + r E||^2 / 2 at
# r = 0+ is lambda_max(H_theta(B)), B = V* T* S V. Its minimum over theta
# is -c(B), c the Crawford number (the distance from 0 to W(B)), or is
# nonnegative when 0 lies in W(B); along each ray the square of the norm
# is convex, so T is eps-orthogonal to S exactly when
# eps ||T|| ||S|| >= c(B) (Bhatia-Semrl at eps = 0; Chmielinski, Stypula
# and Wojcik for eps > 0).
#
# Singular values sigma >= (1 - _BJ_TIE) ||T|| count as top. Merging a
# lower one, sigma_m, into V can only lower c(B), and the violations the
# merge overlooks are shallow: compressing to V gives
# F(theta, r) >= sigma_m^2 - ||T||^2 + 2 r (eps ||T|| ||S|| - c(B)).
# Wherever the closed form says orthogonal, the last term is at least
# -2 r DECISION_TOL ||T|| ||S|| (its own band), so
# F >= -DECISION_TOL ||T||^2 - 2 r DECISION_TOL ||T|| ||S||: the tie adds
# at most 2 _BJ_TIE ||T||^2 = DECISION_TOL ||T||^2, the band of the
# direct route, to the closed form's band. LAPACK resolves the singular
# values through T*T to about n u ||T||, far inside the tie.
_BJ_TIE = 0.5 * DECISION_TOL


def _bj_crawford(T: np.ndarray, S: np.ndarray) -> tuple[float, float]:
    """(c(B), ||T|| ||S||) for nonzero T and S divided by `_unit_pair`."""
    w, X = np.linalg.eigh(T.conj().T @ T)
    V = X[:, w >= w[-1] * (1.0 - _BJ_TIE) ** 2]
    B = (T @ V).conj().T @ (S @ V)
    unit = math.sqrt(w[-1]) * _spectral_norm(S)
    if B.shape[0] == 1:
        return abs(complex(B[0, 0])), unit
    # to 1e-10 of the verdict's unit (||B|| <= ||T|| ||S||)
    return numrange.crawford_number(B, 1e-10 * unit), unit


def min_epsilon_bj(T, S) -> float:
    """Smallest eps in [0, 1] making T eps-orthogonal to S in the
    spectral-norm gauge: c(V* T* S V) / (||T|| ||S||), V spanning the top
    right-singular space of T (section comment above; it states the tie
    rule). For a simple top singular value, T v = ||T|| u, this is
    |u* S v| / ||S||. 0.0 when T or S is zero; 1.0 for S = T."""
    T, S, _, _ = _unit_pair(T, S)
    if not (T.any() and S.any()):
        return 0.0
    c, unit = _bj_crawford(T, S)
    return float(min(1.0, c / unit))


def is_bj_orthogonal(T, S, epsilon: float, method: str = "closed-form") -> bool:
    """Approximate orthogonality in the spectral-norm gauge.

    True when ||T + lam S||^2 >= ||T||^2 - 2 eps ||T|| ||lam S|| for
    every complex lam. method="closed-form" compares eps ||T|| ||S|| with
    c(V* T* S V) (see `min_epsilon_bj`) and says "not orthogonal" below
    -DECISION_TOL ||T|| ||S||. method="direct" runs the certified scan of
    the direct radius method with the spectral norm (r capped at
    2 ||T|| / ||S||, beyond which the inequality is automatic) and says
    "not orthogonal" below -DECISION_TOL ||T||^2; it shares no decision
    logic with the closed form. Verdicts within those bands of the exact
    threshold may go either way, and so may a near-tie of the top two
    singular values within the tie rule of the closed form.
    """
    eps = _validate_eps(epsilon)
    if method not in ("closed-form", "direct"):
        raise ValueError("method must be 'closed-form' or 'direct'")
    T, S, _, _ = _unit_pair(T, S)
    if not (T.any() and S.any()):
        return True
    if method == "direct":
        return _scan_minimum(T, S, eps, "sigma")[0]
    c, unit = _bj_crawford(T, S)
    return bool(eps * unit - c >= -DECISION_TOL * unit)
