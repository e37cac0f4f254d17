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

Internal angle-locating machinery uses the active-support identity

    D(theta) = omega(T) * max over active angles phi of
               lambda_max(hermitian part of e^{i(theta+phi)} V* S V),

where phi ranges over support angles attaining omega(T) and V spans the
top eigenspace of the rotated Hermitian part at phi. This is the
standard directional-derivative formula for a max-type function (exact
in finite dimension); it is used only to find candidate angles quickly,
and every reported value is re-derived from the difference quotients so
the two routes cross-check on every call.
"""

from __future__ import annotations

import cmath
import heapq
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
    mask = pT.hi >= pT.omega - margin
    if int(mask.sum()) <= g // 8:
        runs = numrange._true_runs(mask)
        peaks = [s + int(np.argmax(pT.hi[np.arange(s, e + 1) % g])) for s, e in runs]
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
    tol = float(tol)
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    return _quotient_limit(T, S, theta, tol)


def semi_inner(S, T) -> float:
    """Semi-inner product [S, T]: the derivative value at angle zero.

    Note the argument order: the first argument is the direction, the
    second the base point, matching the usual bracket convention.
    """
    return omega_derivative(T, S, 0.0).value


def derivative_via_maximizers(T, S, theta: float) -> float:
    """Estimate the derivative from the maximizer set of T alone.

    Returns max over maximizing vectors x of
    Re( e^{-i theta} <T x, x> * conj(<S x, x>) ). Exact when the
    maximizing angles and vectors are unique; with degenerate top
    eigenspaces it may under-report, so it serves as a cheap estimate
    and a cross-check, never as the decision path.
    """
    T, S = _pair(T, S)
    theta = float(theta)
    ms = numrange.maximizers(T)
    ph = cmath.exp(-1j * theta)
    best = -math.inf
    for _, x in ms.pairs:
        tq = complex(np.vdot(x, T @ x))
        sq = complex(np.vdot(x, S @ x))
        best = max(best, (ph * tq * sq.conjugate()).real)
    return float(best)


# ---------------------------------------------------------------------------
# locating the worst direction angle (active-support model)


class _ActiveModel:
    __slots__ = ("omega", "nodes", "plateau_amp", "plateau_psi", "runs", "gap_tol")

    omega: float
    nodes: list[tuple[float, np.ndarray]]
    plateau_amp: np.ndarray | None
    plateau_psi: np.ndarray | None
    runs: list[tuple[float, float]]
    gap_tol: float


def _compression(T: np.ndarray, S: np.ndarray, phi: float, gap_tol: float):
    """Top-eigenspace compression V* S V of S at support angle phi of T."""
    w, vec = np.linalg.eigh(_hermitian_rot(T, cmath.exp(1j * phi)))
    m = int(np.count_nonzero(w >= w[-1] - gap_tol))
    V = vec[:, -m:]
    return V.conj().T @ S @ V


def _hp_lammax(z: complex, C: np.ndarray) -> float:
    """lambda_max of the Hermitian part of z C for a small compression C."""
    if C.shape[0] == 1:
        # Re(z c), rounded exactly as the general path rounds it
        return float((z * C)[0, 0].real)
    return _eig.lammax_single(_hermitian_rot(C, z))


_MODEL_CACHE = _LRU(512)


def _active_model(T: np.ndarray, S: np.ndarray) -> _ActiveModel:
    key = (T.tobytes(), S.tobytes(), T.shape[0])
    hit = _MODEL_CACHE.get(key)
    if hit is not None:
        return hit
    pT = numrange._profile(T)
    act_tol = 1e-9 * max(1.0, pT.lip)
    gap_tol = 1e-8 * max(1.0, pT.lip)
    model = _ActiveModel()
    model.omega = pT.omega
    model.gap_tol = gap_tol
    model.nodes = [
        (phi, _compression(T, S, phi, gap_tol))
        for phi, v in pT.peaks
        if v >= pT.omega - act_tol
    ]
    model.plateau_amp = None
    model.plateau_psi = None
    model.runs = []
    mask = pT.hi >= pT.omega - act_tol
    if int(mask.sum()) >= 8:
        # a whole arc of support angles is active (disk-like range):
        # carry per-angle slopes and refine inside the arcs on demand
        idx = np.flatnonzero(mask)
        phis = pT.thetas[idx]
        _, vec = np.linalg.eigh(_hermitian_rot(T, np.exp(1j * phis)))
        x = vec[:, :, -1]
        c = np.einsum("ki,ij,kj->k", x.conj(), S, x)
        model.plateau_amp = np.abs(c)
        model.plateau_psi = phis + np.angle(c)
        h = _TWO_PI / pT.thetas.size
        model.runs = [
            (float(s * h - h), float(e * h + h)) for s, e in numrange._true_runs(mask)
        ]
    _MODEL_CACHE.put(key, model)
    return model


def _model_vals(model: _ActiveModel, thetas: np.ndarray) -> np.ndarray:
    """Vectorized model evaluation of D(theta) on a grid."""
    parts = []
    for phi, C in model.nodes:
        if C.shape[0] == 1:
            c = complex(C[0, 0])
            parts.append(abs(c) * np.cos(thetas + (phi + cmath.phase(c))))
        else:
            parts.append(_eig.max_batch(_hermitian_rot(C, np.exp(1j * (thetas + phi)))))
    if model.plateau_amp is not None:
        grid = np.cos(thetas[:, None] + model.plateau_psi[None, :])
        parts.append((grid * model.plateau_amp[None, :]).max(axis=1))
    out = parts[0]
    for p in parts[1:]:
        out = np.maximum(out, p)
    return model.omega * out


def _model_refined(
    model: _ActiveModel, T: np.ndarray, S: np.ndarray, theta: float
) -> float:
    """Exact (non-grid) model evaluation of D(theta) at a single angle."""
    best = -math.inf
    for phi, C in model.nodes:
        z = cmath.exp(1j * (theta + phi))
        best = max(best, _hp_lammax(z, C))
    if model.runs:

        def slope(phi: float) -> float:
            C = _compression(T, S, phi, model.gap_tol)
            return _hp_lammax(cmath.exp(1j * (theta + phi)), C)

        for a, b in model.runs:
            probes = np.linspace(a, b, 9)
            vals = [slope(float(p)) for p in probes]
            k = int(np.argmax(vals))
            lo = float(probes[max(k - 1, 0)])
            hi = float(probes[min(k + 1, 8)])
            _, fx = numrange._golden_max(
                slope, lo, hi, 1e-6, (float(probes[k]), float(vals[k]))
            )
            best = max(best, fx)
    return model.omega * best


_INF_CACHE = _LRU(512)


def inf_derivative(T, S, tol: float = 1e-8) -> tuple[float, float]:
    """Minimum of the derivative over all direction angles.

    Locates candidate minimizing angles with the active-support model,
    refines them, then grounds the reported value in the difference
    quotients at the winning angle. A quotient probe at an unrelated
    angle guards the model; on disagreement the minimization falls back
    to difference quotients alone.
    """
    T, S = _pair(T, S)
    tol = float(tol)
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
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

    model = _active_model(T, S)
    thetas = pT.thetas
    h = _TWO_PI / thetas.size
    vals = _model_vals(model, thetas)
    vmin = float(vals.min())
    keep = 2.0 * ld * h + 1e-12 * max(1.0, ld)
    groups = numrange._cyclic_local_max_groups(-vals)

    def neg_ref(x: float) -> float:
        return -_model_refined(model, T, S, x)

    best_th, best_v = 0.0, math.inf
    for s, e in groups:
        node = int(np.arange(s, e + 1)[0])  # group values are equal; take first
        if float(vals[node % thetas.size]) > vmin + keep:
            continue
        a = (s - 1) * h
        b = (e + 1) * h
        x0 = node * h
        x, fx = numrange._golden_max(neg_ref, a, b, 1e-7, (x0, neg_ref(x0)))
        v = -fx
        if v < best_v - 1e-12 * max(1.0, ld) or (
            abs(v - best_v) <= 1e-12 * max(1.0, ld) and x % _TWO_PI < best_th
        ):
            best_v, best_th = v, x % _TWO_PI

    dq = _quotient_limit(T, S, best_th, tol)
    sp_th = (best_th + 2.0) % _TWO_PI
    dsp = _quotient_limit(T, S, sp_th, tol)
    model_ok = (
        abs(dq.value - best_v) <= guard
        and dsp.value >= best_v - guard
        and abs(dsp.value - _model_refined(model, T, S, sp_th)) <= guard
    )
    if model_ok:
        value, worst = dq.value, best_th
        final = dq
    else:
        # model distrusted: minimize the quotient limit directly
        coarse_tol = max(tol, 1e-6)
        sub = thetas[::16]
        qv = [_quotient_limit(T, S, float(t), coarse_tol).value for t in sub]
        k = int(np.argmin(qv))
        span = _TWO_PI / sub.size

        def neg_q(x: float) -> float:
            return -_quotient_limit(T, S, x, coarse_tol).value

        x, _ = numrange._golden_max(
            neg_q,
            float(sub[k]) - span,
            float(sub[k]) + span,
            1e-5,
            (float(sub[k]), -qv[k]),
        )
        final = _quotient_limit(T, S, x, tol)
        value, worst = final.value, x % _TWO_PI
    if not final.converged:
        tr = final.quotient_trace
        wobble = abs(tr[-1][1] - tr[-2][1]) if len(tr) >= 2 else math.inf
        if wobble > 1e-4 * max(1.0, ld):
            raise ConvergenceError(
                "difference quotients failed to stabilize at the minimizing angle"
            )
    result = (float(value), float(worst))
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
