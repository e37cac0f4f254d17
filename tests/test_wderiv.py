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
    # zero base point: the quotient limit runs instead of short-circuiting
    assert abs(semi_inner(T24, Z)) <= 1e-8


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


def _golden_min_derivative(T, S) -> float:
    """min over theta of omega_derivative: a 64-angle scan, then golden
    section over the best scan cell."""
    h = 2.0 * math.pi / 64
    thetas = [k * h for k in range(64)]
    vals = [omega_derivative(T, S, t).value for t in thetas]
    k = int(np.argmin(vals))
    _, fx = numrange._golden_max(
        lambda t: -omega_derivative(T, S, t).value,
        thetas[k] - h,
        thetas[k] + h,
        1e-7,
        (thetas[k], -vals[k]),
    )
    return -fx


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


def test_inf_derivative_makes_two_quotient_limits(monkeypatch):
    calls = []
    real = wderiv._quotient_limit

    def counted(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(wderiv, "_quotient_limit", counted)
    gen = oracle.generators(63)
    # square-zero pairs first: the 6th and 8th took 90 quotient limits
    # when a distrusted model fell back to minimizing the quotients
    pairs = []
    for i in range(8):
        n = 3 if i % 3 == 0 else 2
        pairs.append((gen.nilpotent_rank_one(n), gen.matrix(n)))
    pairs += [(gen.matrix(3), gen.matrix(3)), (gen.hermitian(3), gen.matrix(3))]
    for T, S in pairs:
        calls.clear()
        inf_derivative(T, S)
        assert len(calls) == 2


def test_quotient_disagreement_raises(monkeypatch):
    real = wderiv._quotient_limit

    def off(*args):
        d = real(*args)
        return dataclasses.replace(d, value=d.value + 1e-3)

    monkeypatch.setattr(wderiv, "_quotient_limit", off)
    gen = oracle.generators(62)
    for T in (gen.matrix(3), gen.nilpotent_rank_one(3)):
        with pytest.raises(ConvergenceError, match="disagree"):
            inf_derivative(T, gen.matrix(3))


def test_min_epsilon_worked_pairs():
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


def test_direct_decider_refines_every_peak_of_a_kept_run():
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
    assert dense**2 - 1e-9 <= gauge.acc_sq(th, r) <= dense**2 + 2e-8
    rep = is_omega_orthogonal(T, S, 0.98, method="direct")
    assert rep.orthogonal
    assert rep.margin >= 0.0
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
        wide = int((pT.hi >= pT.omega - margin).sum()) > 1024 // 8
        assert wide == (base == "disk")
        thetas = np.arange(64) * (2.0 * math.pi / 64)
        got = gauge.micro_batch(thetas, r)
        ref = [gauge.acc_sq(float(th), r) for th in thetas]
        assert got.tolist() == ref


def test_acc_sq_never_misses_a_dense_sweep_peak():
    # acc_sq takes T's narrow window at micro radii and a full sweep of
    # T + lam S otherwise; either way it must reach the radius a dense
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
        assert gauge.acc_sq(th, r) >= dense**2 - 1e-9, (i, n, th, r)
