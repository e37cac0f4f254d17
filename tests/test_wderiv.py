"""One-sided derivatives of omega^2, the semi-inner product, and the deciders."""

import dataclasses
import math

import numpy as np
import pytest

from numradius import linalg, numrange, oracle, wderiv
from numradius.wderiv import (
    DECISION_TOL,
    ConvergenceError,
    diff_quotient,
    inf_derivative,
    is_bj_orthogonal,
    is_omega_orthogonal,
    min_epsilon,
    min_epsilon_bj,
    omega_derivative,
    semi_inner,
)
from numradius.wderiv import _Gauge, derivative_via_maximizers

SQ2 = math.sqrt(2.0)
SQ5 = math.sqrt(5.0)

T22 = np.array([[1j, 0], [0, 0]], dtype=complex)
S22 = np.array([[0, 1], [0, -1]], dtype=complex)
T24 = np.array([[0, 1], [0, -1]], dtype=complex)
S24 = np.array([[1, 0], [0, 0]], dtype=complex)
T25 = np.array([[2, 0], [0, 0]], dtype=complex)
S25 = np.array([[1, 1], [0, 1]], dtype=complex)


def _omega(M):
    return numrange.numerical_radius(M).omega


# --- difference quotients ----------------------------------------------------


def test_diff_quotient_self_direction_closed_form():
    # omega^2(T + rT) = (1+r)^2 omega^2, so the quotient is omega^2 (1 + r/2)
    for M in (T24, S25):
        w2 = _omega(M) ** 2
        for r in (0.5, 0.1, 0.01):
            q = diff_quotient(M, M, 0.0, r)
            assert abs(q - w2 * (1 + 0.5 * r)) < 1e-9 * max(1.0, w2)


def test_diff_quotient_monotone_in_r():
    gen = oracle.generators(31)
    for k in range(30):
        n = 2 + k % 4
        T = gen.matrix(n)
        S = gen.matrix(n)
        theta = float(gen._rng.uniform(0, 2 * math.pi))
        scale = (_omega(T) + _omega(S)) ** 2
        q1 = diff_quotient(T, S, theta, 0.05)
        q2 = diff_quotient(T, S, theta, 0.4)
        q3 = diff_quotient(T, S, theta, 1.5)
        assert q1 <= q2 + 1e-9 * scale
        assert q2 <= q3 + 1e-9 * scale


def test_diff_quotient_rejects_bad_r():
    with pytest.raises(ValueError):
        diff_quotient(T24, S24, 0.0, 0.0)
    with pytest.raises(ValueError):
        diff_quotient(T24, S24, 0.0, -0.5)


def test_pair_calls_reject_mismatched_sizes():
    with pytest.raises(linalg.DimensionError, match="share a dimension"):
        min_epsilon(np.eye(2), np.eye(3))
    with pytest.raises(linalg.DimensionError, match="share a dimension"):
        diff_quotient(np.eye(3), np.eye(2), 0.0, 0.1)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n", [2, 3])
def test_diff_quotient_rejects_non_finite_theta(theta, n):
    gen = oracle.generators(40 + n)
    with pytest.raises(ValueError):
        diff_quotient(gen.matrix(n), gen.matrix(n), theta, 0.1)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n", [2, 3])
def test_omega_derivative_rejects_non_finite_theta(theta, n):
    gen = oracle.generators(40 + n)
    with pytest.raises(ValueError):
        omega_derivative(gen.matrix(n), gen.matrix(n), theta)


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-8])
def test_derivative_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tol"):
        omega_derivative(T24, S24, 0.5, tol)
    with pytest.raises(ValueError, match="tol"):
        inf_derivative(T24, S24, tol)


# --- derivative anchors -------------------------------------------------------


def test_derivative_self_direction_is_cosine():
    # along its own ray: D = omega^2 cos(theta)
    for M in (T24, S25, T22):
        w2 = _omega(M) ** 2
        for theta in (0.0, 0.5 * math.pi, 2.2, math.pi):
            d = omega_derivative(M, M, theta)
            assert d.converged
            assert abs(d.value - w2 * math.cos(theta)) < 2e-6 * max(1.0, w2)


def test_derivative_from_identity_matches_support_value():
    # base I: the derivative along T equals lambda_max(H_theta(T))
    gen = oracle.generators(32)
    for k in range(25):
        n = 2 + k % 4
        T = gen.matrix(n)
        T = T / _omega(T)
        theta = float(gen._rng.uniform(0, 2 * math.pi))
        d = omega_derivative(np.eye(n), T, theta)
        H = linalg.hermitian_part(T, theta)
        lam = float(np.linalg.eigvalsh(H)[-1])
        assert abs(d.value - lam) <= 1e-7


def test_derivative_trace_is_nonincreasing():
    d = omega_derivative(T25, S25, 1.0)
    qs = [q for _, q in d.quotient_trace]
    assert all(a >= b - 1e-12 for a, b in zip(qs, qs[1:]))


def test_derivative_zero_direction():
    d = omega_derivative(T24, np.zeros((2, 2)), 0.7)
    assert d.value == 0.0
    assert d.converged


def test_derivative_positive_homogeneity_in_direction():
    gen = oracle.generators(33)
    for _ in range(10):
        T = gen.matrix(3)
        S = gen.matrix(3)
        c = 2.5
        d1 = omega_derivative(T, S, 0.9).value
        d2 = omega_derivative(T, c * S, 0.9).value
        assert abs(d2 - c * d1) < 1e-5 * max(1.0, abs(c * d1))


# --- semi-inner product -------------------------------------------------------


def test_semi_inner_self_is_radius_squared():
    for M in (T22, T24, S25):
        w2 = _omega(M) ** 2
        assert abs(semi_inner(M, M) - w2) < 2e-6 * max(1.0, w2)


def test_semi_inner_rotated_self_vanishes():
    # [iT, T] = 0: the squared radius is flat along the imaginary rotation
    for M in (T24, S25):
        w2 = _omega(M) ** 2
        assert abs(semi_inner(1j * M, M)) < 2e-6 * max(1.0, w2)


def test_semi_inner_zero_slots():
    Z = np.zeros((2, 2))
    assert semi_inner(Z, T24) == 0.0
    # zero base point: omega^2(r S) / 2r -> 0, and the derivative is exactly 0
    assert semi_inner(T24, Z) == 0.0


def test_semi_inner_schwarz_inequality():
    gen = oracle.generators(34)
    for k in range(30):
        n = 2 + k % 4
        T = gen.matrix(n)
        S = gen.matrix(n)
        bound = _omega(T) * _omega(S)
        assert abs(semi_inner(S, T)) <= bound + 1e-6 * max(1.0, bound)


def test_semi_inner_subadditive_first_argument():
    gen = oracle.generators(35)
    for k in range(30):
        n = 2 + k % 3
        T = gen.matrix(n)
        S = gen.matrix(n)
        R = gen.matrix(n)
        scale = max(1.0, (_omega(T) + _omega(S) + _omega(R)) ** 2)
        lhs = semi_inner(S + R, T)
        rhs = semi_inner(S, T) + semi_inner(R, T)
        assert lhs <= rhs + 1e-5 * scale


def test_maximizer_estimate_agrees_on_clean_spectrum():
    # Hermitian base with a simple, strictly dominant top eigenvalue: the
    # maximizer formula and the quotient limit must agree.
    gen = oracle.generators(36)
    for _ in range(5):
        n = 3
        T = np.diag([3.0, 1.0, -0.5]) + 0j
        S = gen.matrix(n)
        est = derivative_via_maximizers(T, S, 0.0)
        ref = omega_derivative(T, S, 0.0).value
        assert abs(est - ref) < 1e-5 * max(1.0, abs(ref))


def _scale(T, S):
    return max(1.0, _omega(T) * _omega(S))


J2 = np.array([[0, 1], [0, 0]], dtype=complex)


def test_derivative_via_maximizers_is_the_derivative():
    # generic, repeated-top-eigenvalue Hermitian and square-zero bases
    gen = oracle.generators(64)
    U = gen.unitary(3)
    bases = [
        gen.matrix(2),
        gen.matrix(3),
        U @ np.diag([3.0, 3.0, -1.0]) @ U.conj().T,
        gen.nilpotent_rank_one(2),
        gen.nilpotent_rank_one(3),
    ]
    for T in bases:
        S = gen.matrix(T.shape[0])
        for theta in (0.0, 0.3, 1.7, 3.1, 4.4, 5.9):
            got = derivative_via_maximizers(T, S, theta)
            ref = omega_derivative(T, S, theta).value
            assert abs(got - ref) <= 1e-7 * _scale(T, S), (theta, got, ref)
    # one maximizing vector per angle read -2.650 here, against 1.534
    T = np.diag([3.0, 3.0, -1.0]) + 0j
    S = oracle.generators(5).matrix(3)
    ref = omega_derivative(T, S, 0.3).value
    assert abs(derivative_via_maximizers(T, S, 0.3) - ref) <= 1e-7 * _scale(T, S)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n", [2, 3])
def test_derivative_via_maximizers_rejects_non_finite_theta(theta, n):
    gen = oracle.generators(40 + n)
    with pytest.raises(ValueError):
        derivative_via_maximizers(gen.matrix(n), gen.matrix(n), theta)


# --- worst-direction derivative and epsilon-star ------------------------------


def test_inf_derivative_lower_envelope():
    gen = oracle.generators(37)
    for k in range(10):
        n = 2 + k % 3
        T = gen.matrix(n)
        S = gen.matrix(n)
        value, worst = inf_derivative(T, S)
        scale = max(1.0, _omega(T) * _omega(S))
        for j in range(16):
            theta = 2 * math.pi * j / 16
            assert value <= omega_derivative(T, S, theta).value + 1e-6 * scale
        d_at_worst = omega_derivative(T, S, worst).value
        assert abs(d_at_worst - value) < 1e-5 * scale


def _golden_min(f, a, b, width, seed):
    """Golden-section minimization of f on [a, b] down to bracket
    ``width``: the least of ``seed`` (a known value) and the evaluated
    values."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    best = seed
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while True:
        best = min(best, fc, fd)
        if b - a <= width:
            return best
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)


def _golden_min_derivative(T, S) -> float:
    """min over theta of omega_derivative: a 64-angle scan, then golden
    section over the best scan cell."""
    h = 2.0 * math.pi / 64
    thetas = [k * h for k in range(64)]
    vals = [omega_derivative(T, S, t).value for t in thetas]
    k = int(np.argmin(vals))
    return _golden_min(
        lambda t: omega_derivative(T, S, t).value, thetas[k] - h, thetas[k] + h, 1e-7, vals[k]
    )


def test_inf_derivative_is_exact_on_square_zero_bases():
    # the first 12 pairs of the ortho-disk benchmark workload on seed 4242,
    # in its draw order; instances 0 and 11 read 2.3e-6 and 4.4e-6 above
    # the minimum when the worst angle came from a golden search of a
    # sampled model
    gen = oracle.generators(4242)
    for i in range(12):
        n = 3 if i % 3 == 0 else 2
        T = gen.nilpotent_rank_one(n)
        S = gen.matrix(n)
        scale = _scale(T, S)
        value, worst = inf_derivative(T, S)
        assert abs(value - omega_derivative(T, S, worst).value) <= 1e-7 * scale
        assert value <= _golden_min_derivative(T, S) + 1e-7 * scale, i


def _edge_pair(name):
    gen = oracle.generators(61)
    S3, S4 = gen.matrix(3), gen.matrix(4)
    H = gen.hermitian(3)
    node = np.zeros((3, 3), dtype=complex)
    node[:2, :2] = 2.0 * J2
    node[2, 2] = 1.0
    return {
        "identity": (np.eye(3), S3),  # K = W(S)
        "hermitian": (gen.hermitian(3), H),  # K is a segment
        "self": (S3, S3),  # eps* = 1
        "diag(3,3,-1)": (np.diag([3.0, 3.0, -1.0]) + 0j, S3),  # a 2-dim node
        "J+J": (np.kron(np.eye(2), J2), S4),  # 2-dim top spaces on a whole circle
        "2J+[1]": (node, S3),  # an arc, and a 2-dim node on it at angle 0
    }[name]


@pytest.mark.parametrize(
    "name", ["identity", "hermitian", "self", "diag(3,3,-1)", "J+J", "2J+[1]"]
)
def test_active_set_edge_shapes(name):
    T, S = _edge_pair(name)
    scale = _scale(T, S)
    value, worst = inf_derivative(T, S)
    assert abs(value - omega_derivative(T, S, worst).value) <= 1e-7 * scale
    assert value <= _golden_min_derivative(T, S) + 1e-7 * scale
    for theta in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        got = derivative_via_maximizers(T, S, theta)
        ref = omega_derivative(T, S, theta).value
        assert abs(got - ref) <= 1e-7 * scale, (theta, got, ref)
    if name == "self":
        assert abs(min_epsilon(T, S) - 1.0) <= 1e-6


def test_block_between_arc_grid_angles_is_found():
    # 2J + [e^{0.3i}]: a whole circle of active angles, and at phi0 = -0.3,
    # off the 1024-angle grid, a 2-dim top eigenspace; D / omega(T) is the
    # larger of the arc curve's support and that block's exact support
    T = np.zeros((3, 3), dtype=complex)
    T[:2, :2] = 2.0 * J2
    T[2, 2] = np.exp(0.3j)
    S = linalg.as_matrix(oracle.generators(61).matrix(3))
    phis = np.arange(65536) * (2.0 * math.pi / 65536)
    _, V = np.linalg.eigh(linalg._hermitian_rot(T, np.exp(1j * phis)))
    x = V[:, :, -1]
    curve = np.exp(1j * phis) * np.einsum("ki,ij,kj->k", x.conj(), S, x)
    _, V0 = np.linalg.eigh(linalg.hermitian_part(T, -0.3))
    C = V0[:, -2:].conj().T @ S @ V0[:, -2:]
    for theta in (1.0, 3.0, 4.5, 6.0):
        block = np.linalg.eigvalsh(linalg.hermitian_part(C, theta - 0.3))[-1]
        ref = max((curve * np.exp(1j * theta)).real.max(), block)
        assert abs(derivative_via_maximizers(T, S, theta) - ref) <= 1e-7


def test_lockstep_hidden_block_searches_are_the_one_search_results(monkeypatch):
    # the pair above: several grid angles of T's arc lie near the block at
    # -0.3, and their hidden-block searches run in one lockstep. The points
    # and blocks are those of running each search alone
    T = np.zeros((3, 3), dtype=complex)
    T[:2, :2] = 2.0 * J2
    T[2, 2] = np.exp(0.3j)
    T, S, _, _ = wderiv._unit_pair(T, oracle.generators(61).matrix(3))
    joint = wderiv._ActiveSet(T, S)
    real, sizes = numrange._lockstep, []

    def alone(searches, evaluate):
        if evaluate.__name__ == "_second":
            sizes.append(len(searches))
        return [real([search], evaluate)[0] for search in searches]

    monkeypatch.setattr(numrange, "_lockstep", alone)
    solo = wderiv._ActiveSet(T, S)
    assert len(sizes) == 1 and sizes[0] >= 2
    assert joint.pts.tobytes() == solo.pts.tobytes()
    assert joint.blocks.keys() == solo.blocks.keys() and joint.blocks
    for m, blocks in joint.blocks.items():
        assert len(blocks) == len(solo.blocks[m])
        for (phi, C, h), (phi2, C2, h2) in zip(blocks, solo.blocks[m]):
            assert (phi, h, C.tobytes()) == (phi2, h2, C2.tobytes())


def _limit_pairs():
    gen = oracle.generators(63)
    # square-zero pairs first: the 6th and 8th took 90 quotient limits
    # when a distrusted model fell back to minimizing the quotients
    pairs = []
    for i in range(8):
        n = 3 if i % 3 == 0 else 2
        pairs.append((gen.nilpotent_rank_one(n), gen.matrix(n)))
    pairs += [(gen.matrix(3), gen.matrix(3)), (gen.hermitian(3), gen.matrix(3))]
    return pairs


def test_inf_derivative_makes_two_quotient_limits(monkeypatch):
    calls = []
    real = wderiv._quotient_limits

    def counted(*args):
        calls.append(tuple(args[2]))
        return real(*args)

    monkeypatch.setattr(wderiv, "_quotient_limits", counted)
    for T, S in _limit_pairs():
        calls.clear()
        inf_derivative(T, S)
        assert len(calls) == 1 and len(calls[0]) == 2


def test_inf_derivative_settles_in_one_radius_call(monkeypatch):
    # both schedules start where the window is narrow and their first round
    # takes two radii each; on these pairs every pair of quotients agrees,
    # so one _radius_near call of 4 matrices settles both limits (8 calls
    # when each limit started alone at r0 = omega(T) / 2 omega(S))
    calls = []
    real = numrange._radius_near

    def counted(p, Ms, *args):
        calls.append(len(Ms))
        return real(p, Ms, *args)

    monkeypatch.setattr(wderiv, "_INF_CACHE", wderiv._LRU(8))
    monkeypatch.setattr(numrange, "_radius_near", counted)
    for T, S in _limit_pairs():
        calls.clear()
        inf_derivative(T, S)
        assert calls == [4]


def test_lockstep_quotient_limits_are_the_one_angle_limits():
    # a round's window and width come from all of its radii, yet each angle
    # reads, bit for bit, what its schedule reads alone
    for T, S in _limit_pairs():
        _, worst = inf_derivative(T, S)
        T, S, _, _ = wderiv._unit_pair(T, S)
        tol = 1e-8 * numrange._profile(T, None).lip * numrange._profile(S, None).lip
        for thetas in ((worst, (worst + 2.0) % (2 * math.pi)), (0.3, 2.3), (5.0, 0.5)):
            alone = [wderiv._quotient_limits(T, S, (t,), tol)[0] for t in thetas]
            assert repr(wderiv._quotient_limits(T, S, thetas, tol)) == repr(alone)


def test_quotient_disagreement_raises(monkeypatch):
    real = wderiv._quotient_limits

    def off(*args):
        return [dataclasses.replace(d, value=d.value + 1e-3) for d in real(*args)]

    monkeypatch.setattr(wderiv, "_quotient_limits", off)
    gen = oracle.generators(62)
    for T in (gen.matrix(3), gen.nilpotent_rank_one(3)):
        with pytest.raises(ConvergenceError, match="disagree"):
            inf_derivative(T, gen.matrix(3))


@pytest.mark.parametrize("c", [2.0**-20, 1.0, 2.0**20])
def test_quotient_disagreement_raises_at_any_scale(monkeypatch, c):
    # a quotient limit 1e-3 ||T|| ||S|| off the support function, or one
    # that wobbles by as much, is caught however small T is; the limit is
    # taken on the pair divided by powers of two, in that pair's units, and
    # c T is the same pair as T, so its cached answer is dropped first
    real = wderiv._quotient_limits
    gen = oracle.generators(64)
    T, S = c * gen.matrix(3), gen.matrix(3)
    unit = linalg.spectral_norm(T) * linalg.spectral_norm(S)

    def gap(T, S):
        return 1e-3 * linalg.spectral_norm(T) * linalg.spectral_norm(S)

    def off(*args):
        return [dataclasses.replace(d, value=d.value + gap(*args[:2])) for d in real(*args)]

    def wobbles(*args):
        out = []
        for d in real(*args):
            tail = ((d.quotient_trace[-1][0], d.value + gap(*args[:2])),)
            out.append(
                dataclasses.replace(d, quotient_trace=d.quotient_trace + tail, converged=False)
            )
        return out

    monkeypatch.setattr(wderiv, "_INF_CACHE", wderiv._LRU(8))
    monkeypatch.setattr(wderiv, "_quotient_limits", off)
    with pytest.raises(ConvergenceError, match="disagree"):
        inf_derivative(T, S, 1e-8 * unit)
    monkeypatch.setattr(wderiv, "_quotient_limits", wobbles)
    with pytest.raises(ConvergenceError, match="stabilize"):
        inf_derivative(T, S, 1e-8 * unit)


def test_min_epsilon_worked_pairs():
    assert min_epsilon(np.zeros((2, 2)), S22) == 0.0
    assert abs(min_epsilon(T22, S22) - 0.0) <= 1e-6
    assert abs(min_epsilon(S22, T22) - (2 - SQ2) / 4) <= 1e-6
    assert abs(min_epsilon(T24, S24) - 1 / (4 + 2 * SQ2)) <= 1e-6
    assert abs(min_epsilon(T25, S25) - 2.0 / 3.0) <= 1e-6


def test_min_epsilon_self_is_one():
    for M in (T24, S25):
        assert abs(min_epsilon(M, M) - 1.0) <= 1e-6


def test_min_epsilon_scale_invariant():
    gen = oracle.generators(38)
    for _ in range(10):
        T = gen.matrix(3)
        S = gen.matrix(3)
        e1 = min_epsilon(T, S)
        e2 = min_epsilon(2.0 * T, -0.5j * S)
        assert abs(e1 - e2) < 1e-6


def test_min_epsilon_searches_each_peak_of_a_window_run():
    # pair 80 of the validate benchmark's seed-9192 pool (n = 3): T has two
    # peaks 2e-4 apart in value, and at r ~ 1e-8 both lie in one run of the
    # window that _radius_near searches. One search over the whole run kept
    # its seed, 2.1e-7 below omega(T + lam S), so the quotient limit read
    # -41.9 against an active-set support of -0.243 and all three calls
    # raised ConvergenceError
    T, S, U, rot = _validate_pair(9192, 80)
    Uh = U.conj().T
    estar = 0.25127088
    for pair in ((T, S), (U @ T @ Uh, U @ S @ Uh), (T, rot * S)):
        assert abs(min_epsilon(*pair) - estar) <= 1e-7
    for eps in (0.2, 0.3, 0.6, 0.9):
        assert is_omega_orthogonal(T, S, eps, method="derivative").orthogonal == (eps > estar)


def _validate_pair(seed, k):
    """(T, S, U, rot) of instance k of the validate benchmark's pool of
    ``seed``, drawn in its order (instance 0 is its paper-check row)."""
    gen = oracle.generators(seed)
    rng = np.random.default_rng(seed)
    for i in range(k):
        n = 2 + i % 3
        T, S, U = gen.matrix(n), gen.matrix(n), gen.unitary(n)
        rot = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        rng.integers(2**31)
    return T, S, U, rot


def test_radius_near_never_reads_below_a_dense_sweep_on_pair80():
    # the direct scan's nodes of pair 80 (n = 3; T has two peaks 2e-4
    # apart in value) at rbar and 2 rbar, on 64 angles, and at 4 rbar and
    # 8 rbar, where some window pieces hold a peak although their end
    # slopes do not straddle zero: the re-split on the grid's slopes must
    # find it, as a 65,536-angle sweep of each M does
    T, S, _, _ = wderiv._unit_pair(*_validate_pair(9192, 80)[:2])
    gauge = _Gauge(T, S, "omega")
    pT = gauge.profT
    rbar = math.sqrt(DECISION_TOL * gauge.norm**2) / (4.0 * gauge.gS)
    thetas = np.arange(64) * (2.0 * math.pi / 64)
    for r in (rbar, 2.0 * rbar, 4.0 * rbar, 8.0 * rbar):
        Ms = T + (r * np.exp(1j * thetas))[:, None, None] * S
        w, _ = numrange._radius_near(pT, Ms, r * gauge.gS, gauge.norm + r * gauge.lipS, 1e-7)
        dense = [numrange._sweep_extremes(M, 65536)[1].max() for M in Ms]
        assert (w >= np.array(dense) - 4.0 * pT.sweep.rho).all(), r


def test_wide_windows_leave_t_sweep_unsolved(monkeypatch):
    # a quotient limit's first radii put the window's level at or below the
    # floor of T's curve, where every grid angle is in the window; it is
    # taken as wide without solving T's sweep down to that level, so
    # min_epsilon at n = 16 solves 156-280 of T's 1024 angles (all 1024
    # when the sweep was solved to the level first)
    monkeypatch.setattr(numrange, "_PROFILE_CACHE", numrange._LRU(8))
    monkeypatch.setattr(numrange, "_SWEEP_CACHE", numrange._LRU(8))
    gen = oracle.generators(77)
    for _ in range(3):
        T, S = gen.matrix(16), gen.matrix(16)
        min_epsilon(T, S)
        sweep = numrange._shared(linalg._as_unit(T)[0])[0]
        assert np.isfinite(sweep.hi).sum() <= 320


# --- orthogonality deciders ---------------------------------------------------


@pytest.mark.parametrize("method", ["derivative", "direct"])
class TestDeciderPinnedVerdicts:
    def test_diag_pair_orthogonal_at_zero(self, method):
        rep = is_omega_orthogonal(T22, S22, 0.0, method=method)
        assert rep.orthogonal
        assert rep.epsilon_star <= 1e-6

    def test_swapped_pair_needs_a_bigger_eps(self, method):
        rep = is_omega_orthogonal(S22, T22, 0.005, method=method)
        assert not rep.orthogonal

    def test_shear_pair_not_orthogonal_at_small_eps(self, method):
        rep = is_omega_orthogonal(T24, S24, 0.005, method=method)
        assert not rep.orthogonal

    def test_diag2_pair_crosses_at_two_thirds(self, method):
        assert not is_omega_orthogonal(T25, S25, 0.0, method=method).orthogonal
        assert is_omega_orthogonal(T25, S25, 0.7, method=method).orthogonal

    def test_report_margin_sign_matches_verdict(self, method):
        for pair, eps in (((T22, S22), 0.0), ((T25, S25), 0.2), ((T25, S25), 0.7)):
            rep = is_omega_orthogonal(*pair, eps, method=method)
            if rep.margin > 1e-9:
                assert rep.orthogonal
            if rep.margin < -1e-9:
                assert not rep.orthogonal

    def test_zero_base_always_orthogonal(self, method):
        assert is_omega_orthogonal(np.zeros((2, 2)), S22, 0.0, method=method).orthogonal


def test_decider_rejects_bad_epsilon():
    for eps in (-0.01, 1.0, 1.5):
        with pytest.raises(ValueError):
            is_omega_orthogonal(T22, S22, eps)
    with pytest.raises(ValueError):
        is_omega_orthogonal(T22, S22, 0.1, method="magic")


def test_relation_homogeneity_of_verdict():
    gen = oracle.generators(39)
    rng = np.random.default_rng(40)
    for k in range(15):
        n = 2 + k % 3
        T = gen.matrix(n)
        S = gen.matrix(n)
        estar = min_epsilon(T, S)
        eps = estar + 0.05 if k % 2 == 0 else max(0.0, estar - 0.05)
        if not 0.0 <= eps < 1.0 or abs(eps - estar) < 1e-3:
            continue
        a = complex(rng.standard_normal() + 0.5, rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal() + 0.5)
        v1 = is_omega_orthogonal(T, S, eps).orthogonal
        v2 = is_omega_orthogonal(a * T, b * S, eps).orthogonal
        assert v1 == v2


def test_bj_pinned_verdicts():
    assert is_bj_orthogonal(T24, S24, 0.0)
    assert not is_bj_orthogonal(T24, T24, 0.0)  # self pair fails at lambda = -1
    assert is_bj_orthogonal(np.zeros((2, 2)), S24, 0.0)


def test_min_epsilon_bj_pinned_values():
    # a simple top singular value T v = ||T|| u gives |u* S v| / ||S||
    assert min_epsilon_bj(T25, S25) == pytest.approx(2.0 / (1.0 + SQ5), abs=1e-12)
    assert min_epsilon_bj(T24, S24) == 0.0
    assert min_epsilon_bj(T24, T24) == pytest.approx(1.0, abs=1e-12)
    assert min_epsilon_bj(np.zeros((2, 2)), S24) == 0.0
    assert min_epsilon_bj(T24, np.zeros((2, 2))) == 0.0
    # T = I: every vector is top, B = S, and eps* is c(S) / ||S||
    S = np.diag([2.0, 1.0 + 1j])
    assert min_epsilon_bj(np.eye(2), S) == pytest.approx(
        numrange.crawford_number(S) / 2.0, abs=1e-10
    )
    assert min_epsilon_bj(np.eye(2), np.diag([1.0, -1.0])) == 0.0
    for method in ("closed-form", "direct"):
        assert is_bj_orthogonal(T25, S25, 0.65, method)
        assert not is_bj_orthogonal(T25, S25, 0.6, method)
    with pytest.raises(ValueError, match="method"):
        is_bj_orthogonal(T25, S25, 0.5, "derivative")


def test_min_epsilon_bj_symmetries():
    # 2^k scaling of T and S: the same bits; unitary similarity and
    # rotation of S: within 1e-6; generic, unitary (every singular value
    # top) and Hermitian T
    gen = oracle.generators(913)
    rng = np.random.default_rng(914)
    for k in range(24):
        n = 2 + k % 4
        T = (gen.matrix, gen.unitary, gen.hermitian)[k % 3](n)
        S = gen.matrix(n)
        estar = min_epsilon_bj(T, S)
        for i, j in rng.integers(-40, 41, size=(3, 2)).tolist():
            assert min_epsilon_bj(2.0**i * T, 2.0**j * S) == estar, (k, i, j)
        U = gen.unitary(n)
        Uh = U.conj().T
        assert abs(min_epsilon_bj(U @ T @ Uh, U @ S @ Uh) - estar) <= 1e-6, k
        rot = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        assert abs(min_epsilon_bj(T, rot * S) - estar) <= 1e-6, k


def test_bj_norm_formula_value():
    # || T + S ||^2 for the shear pair equals (2 + 1 + sqrt(4 + 1)) / 2
    val = linalg.spectral_norm(T24 + S24) ** 2
    assert abs(val - (3 + SQ5) / 2) <= 1e-8


def test_hermitian_base_radius_orth_implies_bj():
    gen = oracle.generators(41)
    used = 0
    for k in range(20):
        n = 2 + k % 3
        T = gen.hermitian(n)
        S = gen.matrix(n)
        eps = min(0.95, min_epsilon(T, S) + 0.03)
        rep = is_omega_orthogonal(T, S, eps)
        assert rep.orthogonal
        assert is_bj_orthogonal(T, S, eps)
        used += 1
    assert used == 20


def test_square_zero_base_bj_implies_radius_orth():
    gen = oracle.generators(42)
    used = 0
    for k in range(30):
        n = 2 + k % 3
        T = gen.nilpotent_rank_one(n)
        S = gen.matrix(n)
        for eps in (0.25, 0.7):
            if is_bj_orthogonal(T, S, eps):
                assert is_omega_orthogonal(T, S, eps).orthogonal
                used += 1
    assert used >= 20


def test_identity_orthogonality_is_symmetric():
    # Generic matrices have a lone maximizing phase, which pins the smallest
    # workable eps at 1 and makes the premise vacuous. Use normal matrices
    # with unit-modulus eigenvalues instead: every eigenvector phase attains
    # the radius, the worst direction angle sits in the widest angular gap,
    # and eps-star = max(0, -cos(gap / 2)) in closed form.
    gen = oracle.generators(43)
    rng = np.random.default_rng(4343)
    used = 0
    for k in range(20):
        n = 3 + k % 3
        phases = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        gaps = np.diff(np.concatenate([phases, [phases[0] + 2.0 * np.pi]]))
        expected = max(0.0, -math.cos(0.5 * float(gaps.max())))
        if expected + 0.03 > 0.95:
            continue
        U = gen.unitary(n)
        T = U @ np.diag(np.exp(1j * phases)) @ U.conj().T
        I = np.eye(n)
        assert abs(min_epsilon(T, I) - expected) <= 1e-6
        eps = expected + 0.03
        assert is_omega_orthogonal(T, I, eps).orthogonal
        assert is_omega_orthogonal(I, T, eps).orthogonal
        used += 1
    assert used >= 15


def test_positive_base_shift_preserves_orthogonality():
    gen = oracle.generators(44)
    for k in range(15):
        n = 2 + k % 3
        T = gen.positive(n)
        S = gen.matrix(n)
        eps = min(0.95, min_epsilon(T, S) + 0.03)
        assert is_omega_orthogonal(T, S, eps).orthogonal
        assert is_omega_orthogonal(T + np.eye(n), S, eps).orthogonal


def test_dominated_positive_summand_doubles_epsilon():
    gen = oracle.generators(45)
    used = 0
    for k in range(40):
        n = 2 + k % 3
        S = gen.positive(n, unit_norm=True)
        T = gen.matrix(n)
        eps = min_epsilon(T, S) + 0.03
        if eps >= 0.47:  # doubled eps must stay below 1
            continue
        assert is_omega_orthogonal(T, S, eps).orthogonal
        for K in (S, S @ S):
            assert is_omega_orthogonal(T, S + K, 2 * eps).orthogonal
        used += 1
    assert used >= 15


def test_convergence_error_is_runtime_error():
    assert issubclass(ConvergenceError, RuntimeError)


def test_direct_decider_refines_every_peak_of_a_kept_run(monkeypatch):
    # the 9th pair of generators(109) (n = 4): at |lam| ~ 1.7e-5 one kept
    # run of the 256-angle sweep of T + lam S holds two local maxima, and
    # a single search over the run settled on the lower one, reporting a
    # violation (margin -1.04e-5) where the margin is positive
    gen = oracle.generators(109)
    for i in range(9):
        n = 2 + i % 3
        T = gen.matrix(n)
        S = gen.matrix(n)
        gen.unitary(n)
    # at the reported witness the accurate radius fell 5.1e-5 below a
    # dense sweep's
    th, r = 4.123340357836604, 1.685408079944119e-05
    gauge = _Gauge(linalg.as_matrix(T), linalg.as_matrix(S), "omega")
    M = T + r * np.exp(1j * th) * S
    E = np.exp(2j * np.pi * np.arange(65536) / 65536)[:, None, None] * M[None]
    dense = np.linalg.eigvalsh(0.5 * (E + np.conj(np.swapaxes(E, 1, 2))))[:, -1].max()
    assert dense**2 - 1e-9 <= gauge.micro_batch(np.array([th]), r)[0][0] <= dense**2 + 2e-8
    # the tangent strip bound of the 64 base nodes certifies every gap, so
    # the scan takes one call and no ray search (a secant to 2 rbar flagged
    # 70-92 nodes here and ended at the node cap after 27 calls)
    batches = []
    micro = _Gauge.micro_batch

    def counted_batch(self, thetas, r):
        batches.append(np.size(thetas))
        return micro(self, thetas, r)

    monkeypatch.setattr(_Gauge, "micro_batch", counted_batch)
    rep = is_omega_orthogonal(T, S, 0.98, method="direct")
    assert rep.orthogonal
    assert rep.margin >= 0.0
    assert len(batches) <= 2 and max(batches) <= 64, batches
    assert is_omega_orthogonal(T, S, 0.98, method="derivative").orthogonal


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_micro_batch_matches_per_angle_acc_sq(scale):
    # a square-zero T has a disk for its range, so every support angle is
    # near the top and the kernel takes the stacked full sweep; a generic
    # T keeps a narrow window and the kernel searches its runs
    gen = oracle.generators(77)
    for base, n in (("disk", 3), ("generic", 3), ("generic", 4)):
        T = gen.nilpotent_rank_one(n) if base == "disk" else gen.matrix(n)
        T = linalg.as_matrix(T)
        S = linalg.as_matrix(gen.matrix(n))
        gauge = _Gauge(T, S, "omega")
        pT = gauge.profT
        r = scale * math.sqrt(DECISION_TOL) / (4.0 * gauge.gS)  # the scan's rbar
        margin = 2.0 * r * gauge.gS + 0.5 * pT.lip * (2.0 * math.pi / 1024) + 1e-12
        wide = int((pT.sweep.full()[1] >= pT.omega - margin).sum()) > 1024 // 8
        assert wide == (base == "disk")
        thetas = np.arange(64) * (2.0 * math.pi / 64)
        got = gauge.micro_batch(thetas, r)
        ref = [gauge.micro_batch(np.array([th]), r) for th in thetas]
        # the values and slopes of a node are those the ray searches read
        # at its one point
        assert got[0].tolist() == [float(g[0]) for g, _ in ref]
        assert got[1].tolist() == [float(s[0]) for _, s in ref]


@pytest.mark.parametrize("kind", ["omega", "sigma"])
def test_ray_slope_matches_a_centred_difference(kind):
    # the slope that the ray searches follow: d g^2 / dr from a top
    # eigenvector at M's optimum (its peak angle in the radius gauge)
    # against a centred difference of g^2 on random rays, n = 2..6; where
    # the forward and backward differences disagree, the ray is at a kink
    # of g^2 and is skipped. A wrong sign or rotation of e^{i(phi + theta)}
    # would be off by about ||T|| ||S||
    gen = oracle.generators(321)
    rng = np.random.default_rng(321)
    smooth = 0
    for i in range(60):
        n = 2 + i % 5
        T, S, _, _ = wderiv._unit_pair(gen.matrix(n), gen.matrix(n))
        gauge = _Gauge(T, S, kind)
        unit = gauge.norm * _omega(S) if kind == "omega" else gauge.norm * gauge.gS
        r_max = 2.0 * gauge.gT / gauge.gS
        th = float(rng.uniform(0.0, 2.0 * math.pi))
        r = float(r_max * 10.0 ** rng.uniform(-4.0, 0.0))
        d = 1e-6 * r_max
        lo, hi = (float(gauge.micro_batch(np.array([th]), x)[0][0]) for x in (r - d, r + d))
        (mid,), (slope,) = gauge.micro_batch(np.array([th]), r)
        if abs((hi - mid) - (mid - lo)) / d > 1e-4 * unit:
            continue
        smooth += 1
        assert abs(slope - (hi - lo) / (2.0 * d)) <= 1e-6 * unit, (i, n, th, r)
    assert smooth >= 50


def test_micro_batch_reads_one_radius_per_node(monkeypatch):
    # the scan evaluates each node once, at rbar: a level call's values and
    # slopes are those of micro_batch at each angle alone, bit for bit
    gen = oracle.generators(78)
    for base, n in (("disk", 2), ("generic", 2), ("generic", 3), ("generic", 5)):
        T = gen.nilpotent_rank_one(n) if base == "disk" else gen.matrix(n)
        T = linalg.as_matrix(T)
        S = linalg.as_matrix(gen.matrix(n))
        for kind in ("omega", "sigma"):
            gauge = _Gauge(T, S, kind)
            r = math.sqrt(DECISION_TOL * gauge.norm**2) / (4.0 * gauge.gS)
            thetas = np.arange(16) * (2.0 * math.pi / 16)
            got = gauge.micro_batch(thetas, r)
            ref = [gauge.micro_batch(np.array([t]), r) for t in thetas]
            assert got[0].tolist() == [float(g[0]) for g, _ in ref], (base, n, kind)
            assert got[1].tolist() == [float(s[0]) for _, s in ref], (base, n, kind)
    calls = []
    micro = _Gauge.micro_batch

    def counted(self, thetas, r):
        assert np.ndim(r) == 0
        calls.append(np.size(thetas))
        return micro(self, thetas, r)

    monkeypatch.setattr(_Gauge, "micro_batch", counted)
    assert is_bj_orthogonal(T, S, 0.5, "direct") == is_bj_orthogonal(T, S, 0.5)
    # each level of the scan in calls of at most 64 nodes, the 64 base
    # nodes first; the ray searches call it at one point
    assert calls[0] == 64 and max(calls) <= 64, calls


@pytest.mark.parametrize("kind", ["omega", "sigma"])
def test_node_tangent_bounds_f_on_the_strip(kind):
    # the strip bound of a scan node is F's tangent at rbar: for the top
    # vector of g(M) at rbar, |<H_phi(M_r) x, x>| (radius) or ||M_r v||
    # (spectral norm) is affine in r, so g^2 lies above the square of its
    # tangent without any curvature bound. At 41 radii in [0, rbar] F must
    # stay within rounding above f1 + (r - rbar)(s + off), on generic,
    # Hermitian and square-zero bases at n = 2..6. At r = 0, where F = 0,
    # the tangent loses about half what a secant to 2 rbar loses (exactly
    # half on a parabola): a slope halved breaks the first check, a secant
    # slope the second
    gen = oracle.generators(2525)
    rng = np.random.default_rng(2525)
    eps = 0.5
    ratios = []
    for n in range(2, 7):
        for base in (gen.matrix, gen.hermitian, gen.nilpotent_rank_one):
            T, S, _, _ = wderiv._unit_pair(base(n), gen.matrix(n))
            gauge = _Gauge(T, S, kind)
            unit = gauge.norm**2
            rbar = math.sqrt(DECISION_TOL * unit) / (4.0 * gauge.gS)
            off = 2.0 * eps * gauge.gT * gauge.gS
            thetas = rng.uniform(0.0, 2.0 * math.pi, 8)

            def F(r):
                return gauge.micro_batch(thetas, r)[0] - gauge.gT**2 + off * r

            f1 = F(rbar)
            slope = gauge.micro_batch(thetas, rbar)[1] + off
            for r in np.linspace(0.0, rbar, 41):
                tangent = f1 + (r - rbar) * slope
                assert (F(r) >= tangent - 1e-12 * unit).all(), (n, base.__name__, r)
            f0 = F(0.0)
            ratios += ((f0 - (f1 - rbar * slope)) / (f0 - (2.0 * f1 - F(2.0 * rbar)))).tolist()
    assert np.median(ratios) <= 0.75, np.median(ratios)


def test_direct_scans_end_in_their_base_level(monkeypatch):
    # validate 9192 #93 (n = 4, radius gauge) and 1618 #158 (n = 3,
    # spectral norm) at eps = min(eps* + 0.35, 0.98): with a secant to
    # 2 rbar for the strip bound, nodes failed only that bound and both
    # scans used 1,599 nodes; the tangent at rbar certifies every gap of
    # the 64 base nodes, with no ray search
    calls = []
    micro = _Gauge.micro_batch

    def counted(self, thetas, r):
        calls.append(np.size(thetas))
        return micro(self, thetas, r)

    monkeypatch.setattr(_Gauge, "micro_batch", counted)
    for seed, k, kind in ((9192, 93, "omega"), (1618, 158, "sigma")):
        T, S, _, _ = _validate_pair(seed, k)
        eps = min(min_epsilon(T, S) + 0.35, 0.98)
        calls.clear()
        if kind == "omega":
            assert is_omega_orthogonal(T, S, eps, method="direct").orthogonal
            assert is_omega_orthogonal(T, S, eps, method="derivative").orthogonal
        else:
            assert is_bj_orthogonal(T, S, eps, "direct") and is_bj_orthogonal(T, S, eps)
        assert calls == [64], (seed, k, calls)


def _chain_hull(P):
    """The monotone-chain hull that `wderiv._hull` must reproduce."""
    pts, idx = np.unique(P, return_index=True)
    x, y = pts.real.tolist(), pts.imag.tolist()

    def chain(order):
        out = []
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


def test_hull_is_the_monotone_chain():
    # random sets, points near a circle, lattice points (collinear runs),
    # points on one line, and repeated points: the same vertex indices in
    # the same counter-clockwise order
    rng = np.random.default_rng(5)
    for i in range(600):
        m = int(rng.integers(1, 80))
        kind = i % 5
        if kind == 0:
            P = rng.normal(size=m) + 1j * rng.normal(size=m)
        elif kind == 1:
            P = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, m)) * (1.0 + 1e-12 * rng.normal(size=m))
        elif kind == 2:
            P = rng.integers(-3, 4, size=m) + 1j * rng.integers(-3, 4, size=m)
        elif kind == 3:
            P = rng.integers(-5, 5, size=m) * (1.0 + 2.0j)
        else:
            P = np.repeat(rng.normal(size=m) + 1j * rng.normal(size=m), 3)
        P = np.asarray(P, dtype=complex)
        assert wderiv._hull(P).tolist() == _chain_hull(P).tolist(), (i, m)


def test_acc_sq_never_misses_a_dense_sweep_peak():
    # the accurate g^2 at one point (micro_batch at one angle) takes T's
    # narrow window at micro radii and a full sweep of T + lam S
    # otherwise; either way it must reach the radius a dense
    # 4096-angle sweep of T + lam S finds, over the decider's whole
    # range [r_lo, r_max] of |lam|
    gen = oracle.generators(2024)
    rng = np.random.default_rng(2024)
    phis = np.arange(2048) * (2.0 * math.pi / 4096)
    for i in range(200):
        n = 2 + i % 5
        T = gen.nilpotent_rank_one(n) if i % 3 == 0 else gen.matrix(n)
        T = linalg.as_matrix(T)
        S = linalg.as_matrix(gen.matrix(n))
        gauge = _Gauge(T, S, "omega")
        r_lo = DECISION_TOL / (4.0 * gauge.gT * gauge.gS)
        r_max = 2.0 * gauge.gT / gauge.gS
        r = float(np.exp(rng.uniform(math.log(r_lo), math.log(r_max))))
        th = float(rng.uniform(0.0, 2.0 * math.pi))
        M = T + r * np.exp(1j * th) * S
        E = np.exp(1j * phis)[:, None, None] * M[None]
        w = np.linalg.eigvalsh(0.5 * (E + np.conj(np.swapaxes(E, 1, 2))))
        dense = max(w[:, -1].max(), -w[:, 0].min())
        assert gauge.micro_batch(np.array([th]), r)[0][0] >= dense**2 - 1e-9, (i, n, th, r)


@pytest.mark.parametrize("n", [2, 3])
def test_zero_base_has_derivative_zero(n):
    Z = np.zeros((n, n))
    S = oracle.generators(50 + n).matrix(n)
    d = omega_derivative(Z, S, 0.4)
    assert d.value == 0.0
    assert d.converged
    assert inf_derivative(Z, S) == (0.0, 0.0)
    assert derivative_via_maximizers(Z, S, 0.4) == 0.0


# --- positive scaling of T and S ----------------------------------------------
#
# T is eps-orthogonal to S exactly when c T is to d S (c, d > 0), with the
# same eps*. Every internal threshold is relative to ||T|| and ||S||, and
# LAPACK's eigenvalues scale exactly by powers of two, so scaling by 2^k
# reproduces every result bit for bit.


def _scale_pairs():
    gen = oracle.generators(909)
    pairs = [(gen.matrix(n), gen.matrix(n)) for n in (2, 3, 4)]
    return pairs + [(gen.nilpotent_rank_one(n), gen.matrix(n)) for n in (2, 3, 4)]


def _verdicts(T, S, eps):
    """Verdicts of both radius routes and of BJ, and both radius reports."""
    reports = [is_omega_orthogonal(T, S, eps, method) for method in ("derivative", "direct")]
    return (*(rep.orthogonal for rep in reports), is_bj_orthogonal(T, S, eps)), reports


def test_scaling_by_powers_of_two_is_bit_for_bit():
    rng = np.random.default_rng(910)
    # two peaks 1e-11 apart, the lower at the smaller angle: theta* ties
    # them only within a tolerance relative to omega
    tied = np.diag([1.0 - 1e-11, 1j])
    corners = [(-26, 26), (26, -26), (-26, -26), (26, 26)]
    for i, (T, S) in enumerate(_scale_pairs()):
        estar = min_epsilon(T, S)
        eps = min(estar + 0.05, 0.98) if i % 2 else max(estar - 0.05, 0.0)
        verdicts, reports = _verdicts(T, S, eps)
        deriv = omega_derivative(T, S, 1.0)
        radii = [numrange.numerical_radius(M, 1e-9) for M in (T, tied)]
        for k, j in corners + rng.integers(-26, 27, size=(2, 2)).tolist():
            c, d = 2.0**k, 2.0**j
            assert min_epsilon(c * T, d * S) == estar, (i, k, j)
            got, got_reports = _verdicts(c * T, d * S, eps)
            assert got == verdicts, (i, k, j)
            # the derivative margin scales as omega(T) omega(S), the direct one
            # as omega(T)^2
            for rep, want, unit in zip(got_reports, reports, (c * d, c * c)):
                assert rep.margin == unit * want.margin, (i, k, j)
                assert rep.inf_derivative == c * d * want.inf_derivative, (i, k, j)
                assert rep.threshold == c * d * want.threshold, (i, k, j)
            got = omega_derivative(c * T, d * S, 1.0, c * d * 1e-8)
            assert (got.value, got.converged) == (c * d * deriv.value, deriv.converged)
            for M, w in zip((T, tied), radii):
                wc = numrange.numerical_radius(c * M, c * 1e-9)
                assert wc.omega == c * w.omega, (i, k)
                assert wc.theta_star == w.theta_star, (i, k)
                assert wc.enclosure == (c * w.enclosure[0], c * w.enclosure[1])


def test_scaling_by_any_positive_reals():
    rng = np.random.default_rng(911)
    for i, (T, S) in enumerate(_scale_pairs()):
        estar = min_epsilon(T, S)
        eps = [e for e in (estar - 0.05, estar + 0.05) if 0.0 <= e < 1.0]
        verdicts = [_verdicts(T, S, e)[0] for e in eps]
        for c, d in 10.0 ** rng.uniform(-8.0, 8.0, size=(2, 2)):
            assert abs(min_epsilon(c * T, d * S) - estar) <= 1e-6, (i, c, d)
            for e, want in zip(eps, verdicts):
                assert _verdicts(c * T, d * S, e)[0] == want, (i, c, d, e)


@pytest.mark.parametrize("c", [1e-8, 1e-5, 1.0, 1e5, 1e8, 2.0**-600, 2.0**500, 2.0**600])
def test_worked_pair_at_any_scale(c):
    # [2,0;0,0] and [1,1;0,1]: eps* = 2/3, so no decider may call the pair
    # orthogonal at eps = 0, however T is scaled; beyond 2^+-512, where
    # c^2 under- or overflows, the deciders work on T and S divided by
    # powers of two
    assert abs(min_epsilon(c * T25, S25) - 2.0 / 3.0) <= 1e-6
    assert _verdicts(c * T25, S25, 0.0)[0] == (False, False, False)



def test_flat_square_zero_sweeps_take_no_resplit(monkeypatch):
    # the first 40 `ortho-disk` instances of seed 1: a square-zero T has a
    # disk for its range, so its sweep is flat within 2 rho and keeps its
    # grid maximum alone; a spread test of 4 n u ||T|| missed some of them
    # and refined their rounding noise, brackets whose end slopes do not
    # change sign, which `_refine_peaks` re-splits
    for name in ("_PROFILE_CACHE", "_SWEEP_CACHE"):
        monkeypatch.setattr(numrange, name, numrange._LRU(1024))
    monkeypatch.setattr(wderiv, "_INF_CACHE", wderiv._LRU(512))
    resplits, resplit = [], numrange._resplit
    monkeypatch.setattr(numrange, "_resplit", lambda *a: resplits.append(1) or resplit(*a))
    gen = oracle.generators(1)
    rng = np.random.default_rng(1)
    for i in range(40):
        n = 3 if i % 3 == 0 else 2
        T = gen.nilpotent_rank_one(n)
        S = gen.matrix(n)
        eps = rng.uniform(0.55, 0.9)
        is_bj_orthogonal(T, S, eps)
        min_epsilon(T, S)
        is_omega_orthogonal(T, S, eps, "derivative")
        is_omega_orthogonal(T, S, eps, "direct")
    assert len(resplits) == 0
