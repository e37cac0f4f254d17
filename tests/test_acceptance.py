"""End-to-end acceptance gate.

Every headline guarantee of the package runs here: pinned reference values,
worked-pair verdicts through both deciders, the rank-one closed form,
derivative/direct route agreement on random instances, fourteen property
suites (each at least 100 seeded instances), and the brute-force oracle
cross-checks.  Each check prints a PASS/FAIL line; run

    pytest tests/test_acceptance.py -v -s

to see the lines as they happen.  All seeds are pinned so a failure is
reproducible bit for bit.
"""

import io
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from numradius import (
    crawford_number,
    diff_quotient,
    hermitian_part,
    is_bj_orthogonal,
    is_omega_orthogonal,
    min_epsilon,
    min_epsilon_bj,
    numerical_radius,
    omega_derivative,
    oracle,
    rank_one,
    spectral_norm,
)
from numradius.cli import main as cli_main

VALUE_TOL = 1e-8  # pinned closed-form values
STAR_TOL = 1e-6  # eps-star thresholds
SQ2 = math.sqrt(2.0)
SQ5 = math.sqrt(5.0)
SQ13 = math.sqrt(13.0)
TWO_PI = 2.0 * math.pi

T22 = np.array([[1j, 0], [0, 0]], dtype=complex)
S22 = np.array([[0, 1], [0, -1]], dtype=complex)
T24 = np.array([[0, 1], [0, -1]], dtype=complex)
S24 = np.array([[1, 0], [0, 0]], dtype=complex)
T25 = np.array([[2, 0], [0, 0]], dtype=complex)
S25 = np.array([[1, 1], [0, 1]], dtype=complex)

# wall-clock of each property suite, summed by the budget test at the end
_DURATIONS = {}


def _check(ok, label):
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    return bool(ok)


def _omega(M):
    return numerical_radius(M).omega


# ---------------------------------------------------------------------------
# pinned values


def test_pinned_radius_and_norm_values():
    cases = [
        ("omega [i,0;0,0]", T22, "omega", 1.0),
        ("omega [0,1;0,-1]", S22, "omega", (1 + SQ2) / 2),
        ("omega [1,1;0,-1]", np.array([[1, 1], [0, -1]], complex), "omega", SQ5 / 2),
        ("omega [0.5,1;0,-1]", np.array([[0.5, 1], [0, -1]], complex), "omega", (1 + SQ13) / 4),
        ("omega [1,1;0,1]", S25, "omega", 1.5),
        ("omega [1,-1;0,-1]", np.array([[1, -1], [0, -1]], complex), "omega", SQ5 / 2),
        ("omega [2,0;0,0]", T25, "omega", 2.0),
        ("norm [0,1;0,-1]", T24, "norm", SQ2),
        ("norm [1,0;0,0]", S24, "norm", 1.0),
        # at unit shift the closed form (2+|l|^2+sqrt(4+|l|^4))/2 gives (3+sqrt5)/2
        ("norm-sq [0,1;0,-1]+[1,0;0,0]", T24 + S24, "norm-sq", (3 + SQ5) / 2),
    ]
    ok_all = True
    for label, M, kind, want in cases:
        t0 = time.perf_counter()
        if kind == "omega":
            got = _omega(M)
        elif kind == "norm":
            got = spectral_norm(M)
        else:
            got = spectral_norm(M) ** 2
        dt = time.perf_counter() - t0
        ok = abs(got - want) <= VALUE_TOL and dt < 1.0
        ok_all &= _check(ok, f"{label} = {got:.12f} vs {want:.12f}  ({dt * 1e3:.1f} ms)")
    assert ok_all


# ---------------------------------------------------------------------------
# worked-pair verdicts, both deciders


def test_worked_pair_verdicts():
    ok_all = True
    for method in ("derivative", "direct"):
        r = is_omega_orthogonal(T22, S22, 0.0, method=method)
        ok_all &= _check(
            r.orthogonal, f"[i,0;0,0] vs [0,1;0,-1] orthogonal at eps=0 ({method})"
        )
        r = is_omega_orthogonal(S22, T22, 0.005, method=method)
        ok_all &= _check(
            not r.orthogonal, f"swapped pair not orthogonal at eps=0.005 ({method})"
        )
        r = is_omega_orthogonal(T24, S24, 0.005, method=method)
        ok_all &= _check(
            not r.orthogonal,
            f"[0,1;0,-1] vs [1,0;0,0] not orthogonal at eps=0.005 ({method})",
        )
        ok_all &= _check(
            not is_omega_orthogonal(T25, S25, 0.0, method=method).orthogonal,
            f"[2,0;0,0] vs [1,1;0,1] not orthogonal at eps=0 ({method})",
        )
        ok_all &= _check(
            is_omega_orthogonal(T25, S25, 0.7, method=method).orthogonal,
            f"[2,0;0,0] vs [1,1;0,1] orthogonal at eps=0.7 ({method})",
        )
    ok_all &= _check(
        is_bj_orthogonal(T24, S24, 0.0), "[0,1;0,-1] vs [1,0;0,0] bj-orthogonal at eps=0"
    )
    e22 = min_epsilon(T22, S22)
    ok_all &= _check(abs(e22) <= STAR_TOL, f"eps-star [i,0;0,0] vs [0,1;0,-1] = {e22:.3e}")
    e25 = min_epsilon(T25, S25)
    ok_all &= _check(
        0.0 < e25 <= 2.0 / 3.0 + STAR_TOL,
        f"eps-star [2,0;0,0] vs [1,1;0,1] = {e25:.9f}, inside (0, 2/3]",
    )
    assert ok_all


# ---------------------------------------------------------------------------
# rank-one closed form


def test_rank_one_radius_formula():
    gen = oracle.generators(301)
    worst = 0.0
    for k in range(100):
        n = 2 + k % 7
        x = gen.unit_vector(n)
        y = gen.unit_vector(n)
        want = 0.5 * (abs(np.vdot(x, y)) + 1.0)
        worst = max(worst, abs(_omega(rank_one(x, y)) - want))
    assert _check(
        worst <= VALUE_TOL,
        f"rank-one radius (|<x,y>|+|x||y|)/2, 100 unit pairs n=2..8, worst err {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# the two deciders agree away from the threshold


def test_decider_route_agreement():
    gen = oracle.generators(606)
    rng = np.random.default_rng(607)
    kept = 0
    agree = 0
    attempts = 0
    while kept < 200 and attempts < 260:
        attempts += 1
        n = 2 + attempts % 5
        T = gen.matrix(n)
        S = gen.matrix(n)
        estar = min_epsilon(T, S)
        mag = rng.uniform(2e-4, 0.05) if attempts % 2 else rng.uniform(0.05, 0.5)
        eps = estar + (mag if rng.uniform() < 0.5 else -mag)
        eps = min(max(eps, 0.0), 0.98)
        if abs(eps - estar) < 1e-4:
            continue  # indeterminate band around the threshold
        kept += 1
        a = is_omega_orthogonal(T, S, eps, method="derivative").orthogonal
        b = is_omega_orthogonal(T, S, eps, method="direct").orthogonal
        agree += a == b
    ok = kept == 200 and agree == kept
    assert _check(ok, f"derivative vs direct verdicts agree on {agree}/{kept} draws, n=2..6")


# ---------------------------------------------------------------------------
# the two spectral-norm routes: closed form and direct scan


def _bj_pair(gen, k):
    """Draw k of a seeded stream: n = 2..5, and T generic, unitary, with a
    two-fold top singular value, or Hermitian, in turn; S generic."""
    n = 2 + (k // 4) % 4
    if k % 4 == 0:
        T = gen.matrix(n)
    elif k % 4 == 1:
        T = gen.unitary(n)
    elif k % 4 == 2:
        U, s, Vh = np.linalg.svd(gen.matrix(n))
        s[1] = s[0]
        T = (U * s) @ Vh
    else:
        T = gen.hermitian(n)
    return T, gen.matrix(n)


def _bj_witness(T, S, eps, thetas, rs):
    """min of (||T + r e^{i theta} S||^2 - ||T||^2 + 2 eps r ||T|| ||S||) / ||T||^2
    over a (theta, r) grid, norms from numpy's SVD."""
    nT, nS = np.linalg.norm(T, 2), np.linalg.norm(S, 2)
    lam = (np.asarray(rs)[None, :] * np.exp(1j * np.asarray(thetas))[:, None]).ravel()
    F = np.linalg.norm(T + lam[:, None, None] * S, 2, axis=(1, 2)) ** 2 - nT**2
    return float((F + 2.0 * eps * np.abs(lam) * nT * nS).min()) / nT**2


def test_bj_route_agreement():
    # both routes at eps*_BJ +- 0.02 on 200 draws; top spaces of dimension
    # 1 (generic, Hermitian), 2 (two-fold) and n (unitary)
    gen = oracle.generators(612)
    checked = agree = 0
    for k in range(200):
        T, S = _bj_pair(gen, k)
        estar = min_epsilon_bj(T, S)
        for eps in (estar - 0.02, estar + 0.02):
            if not 0.0 <= eps < 1.0:
                continue
            checked += 1
            a = is_bj_orthogonal(T, S, eps, method="closed-form")
            agree += a == is_bj_orthogonal(T, S, eps, method="direct") == (eps > estar)
    assert _check(
        checked >= 300 and agree == checked,
        f"BJ closed form vs direct scan agree on {agree}/{checked} verdicts, 200 draws",
    )


def _near_tie_pair(delta):
    """sigma = (1, 1 - delta, 0.3), S = U diag(1, -1, 2) W* on the same
    singular vectors: eps*_BJ = 1/2 on the simple top space, 0 on the merged
    one (0 lies in W(diag(1, -delta - 1)))."""
    gen = oracle.generators(77)
    U, W = gen.unitary(3), gen.unitary(3)
    T = U @ np.diag([1.0, 1.0 - delta, 0.3]) @ W.conj().T
    return T, U @ np.diag([1.0, -1.0, 2.0]) @ W.conj().T


def test_bj_near_tie_of_the_top_singular_values():
    # at eps = 1/4 the violation sits at lam = -r, r about delta / 2, with
    # depth about delta / 2 ||T||^2: the closed form jumps to "orthogonal"
    # once delta is inside its tie rule (1 - DECISION_TOL / 2), the scan
    # once the depth is inside its band (DECISION_TOL ||T||^2)
    ok_all = True
    for delta, closed, direct in ((1e-3, False, False), (1e-9, False, True), (1e-12, True, True)):
        T, S = _near_tie_pair(delta)
        F = _bj_witness(T, S, 0.25, [math.pi], np.geomspace(1e-2, 1e2, 201) * delta)
        ok = (
            is_bj_orthogonal(T, S, 0.25) is closed
            and is_bj_orthogonal(T, S, 0.25, method="direct") is direct
            and min_epsilon_bj(T, S) == pytest.approx(0.0 if closed else 0.5, abs=1e-9)
            and -0.6 * delta < F < -0.4 * delta
        )
        ok_all &= _check(ok, f"near tie delta={delta:g}: closed {closed}, direct {direct}, "
                             f"deepest F = {F / 1e-9:.3g} DECISION_TOL ||T||^2")
    # delta = 1e-6: the closed form finds the violation (about 500 times the
    # scan's band); test_bj_scan_decides_both_pairs holds the scan's answer
    T, S = _near_tie_pair(1e-6)
    F = _bj_witness(T, S, 0.25, [math.pi], np.geomspace(1e-8, 1e-4, 201))
    ok_all &= _check(
        not is_bj_orthogonal(T, S, 0.25) and F < -100e-9,
        f"near tie delta=1e-6: closed form not orthogonal, F = {F / 1e-9:.3g} DECISION_TOL",
    )
    assert ok_all


def _bj_draw_43():
    """Draw 43 of `_bj_pair` with seed 12 (Hermitian T, n = 4), at
    eps = eps*_BJ - 2e-4."""
    gen = oracle.generators(12)
    for k in range(44):
        T, S = _bj_pair(gen, k)
    return T, S, min_epsilon_bj(T, S) - 2e-4


def test_bj_closed_form_finds_the_violation_of_draw_43():
    # the worst direction from the SVD alone: T v = ||T|| u, theta = pi - arg(u* S v)
    T, S, eps = _bj_draw_43()
    U, _, Vh = np.linalg.svd(T)
    theta = math.pi - np.angle(np.vdot(U[:, 0], S @ Vh[0].conj()))
    r = np.geomspace(1e-6, 1e-2, 201) * np.linalg.norm(T, 2) / np.linalg.norm(S, 2)
    F = _bj_witness(T, S, eps, theta + np.linspace(-0.02, 0.02, 41), r)
    assert _check(
        not is_bj_orthogonal(T, S, eps) and F < -10e-9,
        f"closed form: not orthogonal at eps*-2e-4; witness F = {F / 1e-9:.3g} DECISION_TOL ||T||^2",
    )


def test_bj_scan_decides_both_pairs():
    # both pairs hold violations of more than 10 DECISION_TOL ||T||^2 (the
    # two tests above); the scan finds each within its node and ray caps
    T, S, eps = _bj_draw_43()
    assert not is_bj_orthogonal(T, S, eps, method="direct")
    assert not is_bj_orthogonal(*_near_tie_pair(1e-6), 0.25, method="direct")


def test_direct_route_agreement_near_the_threshold():
    # at eps* - 2e-4 the deepest violations are some tens of DECISION_TOL
    # ||T||^2 (a dense lambda grid reads -76 and -34 on seed-12 BJ draws 43
    # and 71), at eps* + 2e-4 there are none; the scan has to find them
    # within its caps. BJ: the closed form and the side of eps*_BJ on 200
    # draws of two seeds; radius gauge: the side of eps* (the derivative
    # route) on generic pairs, n = 2..5
    checked = 0
    missed = []
    for seed in (12, 612):
        gen = oracle.generators(seed)
        for k in range(200):
            T, S = _bj_pair(gen, k)
            estar = min_epsilon_bj(T, S)
            for eps in (estar - 2e-4, estar + 2e-4):
                if not 0.0 <= eps < 1.0:
                    continue
                checked += 1
                closed = is_bj_orthogonal(T, S, eps)
                if not is_bj_orthogonal(T, S, eps, method="direct") == closed == (eps > estar):
                    missed.append(f"BJ seed {seed} draw {k} at eps*{eps - estar:+.0e}")
    gen = oracle.generators(4040)
    for k in range(120):
        n = 2 + k % 4
        T, S = gen.matrix(n), gen.matrix(n)
        estar = min_epsilon(T, S)
        for eps in (estar - 2e-4, estar + 2e-4):
            if not 0.0 <= eps < 1.0:
                continue
            checked += 1
            if is_omega_orthogonal(T, S, eps, method="direct").orthogonal != (eps > estar):
                missed.append(f"omega pair {k} at eps*{eps - estar:+.0e}")
    assert _check(
        checked >= 800 and not missed,
        f"direct routes at eps* +- 2e-4: {checked - len(missed)}/{checked} verdicts; {missed}",
    )


# ---------------------------------------------------------------------------
# property suites (>= 100 seeded instances each)


def test_property_quotient_monotone_in_radius():
    t0 = time.perf_counter()
    gen = oracle.generators(511)
    rng = np.random.default_rng(5110)
    bad = 0
    for k in range(100):
        n = 2 + k % 4
        T = gen.matrix(n)
        S = gen.matrix(n)
        th = float(rng.uniform(0.0, TWO_PI))
        r1, r2 = np.sort(rng.uniform(0.05, 2.0, size=2))
        if r2 - r1 < 1e-6:
            r2 = r1 + 0.1
        q1 = diff_quotient(T, S, th, float(r1))
        q2 = diff_quotient(T, S, th, float(r2))
        bad += not (q1 <= q2 + 1e-9 * max(1.0, abs(q1), abs(q2)))
    _DURATIONS["monotone"] = time.perf_counter() - t0
    assert _check(bad == 0, f"difference quotient nondecreasing in radius: {100 - bad}/100")


def test_property_derivative_schwarz_bound():
    t0 = time.perf_counter()
    gen = oracle.generators(512)
    rng = np.random.default_rng(5120)
    bad = 0
    for k in range(100):
        n = 2 + k % 4
        T = gen.matrix(n)
        S = gen.matrix(n)
        th = float(rng.uniform(0.0, TWO_PI))
        bound = _omega(T) * _omega(S)
        d = omega_derivative(T, S, th)
        bad += not (abs(d.value) <= bound + 1e-7 * max(1.0, bound))
    _DURATIONS["schwarz"] = time.perf_counter() - t0
    assert _check(bad == 0, f"|derivative| <= omega(T)*omega(S): {100 - bad}/100")


def test_property_derivative_subadditive_in_direction():
    t0 = time.perf_counter()
    gen = oracle.generators(519)
    rng = np.random.default_rng(5190)
    bad = 0
    for k in range(100):
        n = 2 + k % 3
        T = gen.matrix(n)
        S = gen.matrix(n)
        R = gen.matrix(n)
        th = float(rng.uniform(0.0, TWO_PI))
        d_sum = omega_derivative(T, S + R, th).value
        d_s = omega_derivative(T, S, th).value
        d_r = omega_derivative(T, R, th).value
        scale = max(1.0, _omega(T) * (_omega(S) + _omega(R)))
        bad += not (d_sum <= d_s + d_r + 5e-7 * scale)
    _DURATIONS["subadd"] = time.perf_counter() - t0
    assert _check(bad == 0, f"derivative subadditive in the direction slot: {100 - bad}/100")


def test_property_scaling_homogeneity():
    t0 = time.perf_counter()
    gen = oracle.generators(520)
    rng = np.random.default_rng(5200)
    bad = 0
    for k in range(100):
        n = 2 + k % 3
        T = gen.matrix(n)
        S = gen.matrix(n)
        c = float(rng.uniform(0.2, 4.0)) * np.exp(1j * rng.uniform(0.0, TWO_PI))
        a = float(rng.uniform(0.2, 4.0)) * np.exp(1j * rng.uniform(0.0, TWO_PI))
        b = float(rng.uniform(0.2, 4.0)) * np.exp(1j * rng.uniform(0.0, TWO_PI))
        wT = _omega(T)
        if abs(_omega(c * T) - abs(c) * wT) > 1e-9 * max(1.0, abs(c) * wT):
            bad += 1
        # the relation itself only sees rays, so the threshold is scale-free
        if abs(min_epsilon(a * T, b * S) - min_epsilon(T, S)) > STAR_TOL:
            bad += 1
    _DURATIONS["homog"] = time.perf_counter() - t0
    assert _check(bad == 0, f"radius and threshold homogeneous under scaling: {100 - bad}/100")


def test_property_radius_norm_sandwich():
    t0 = time.perf_counter()
    gen = oracle.generators(521)
    bad = 0
    for k in range(100):
        n = 2 + k % 5
        T = gen.matrix(n)
        w = _omega(T)
        s = spectral_norm(T)
        slack = 1e-9 * max(1.0, s)
        bad += not (w <= s + slack and s <= 2.0 * w + slack)
    _DURATIONS["sandwich"] = time.perf_counter() - t0
    assert _check(bad == 0, f"omega <= norm <= 2*omega: {100 - bad}/100")


def test_property_unitary_invariance():
    t0 = time.perf_counter()
    gen = oracle.generators(522)
    bad = 0
    for k in range(100):
        n = 2 + k % 5
        T = gen.matrix(n)
        U = gen.unitary(n)
        w = _omega(T)
        bad += not (abs(_omega(U @ T @ U.conj().T) - w) <= 1e-8 * max(1.0, w))
    _DURATIONS["unitary"] = time.perf_counter() - t0
    assert _check(bad == 0, f"radius invariant under unitary conjugation: {100 - bad}/100")


def test_property_triangle_inequality():
    t0 = time.perf_counter()
    gen = oracle.generators(523)
    bad = 0
    for k in range(100):
        n = 2 + k % 5
        T = gen.matrix(n)
        S = gen.matrix(n)
        wT, wS = _omega(T), _omega(S)
        bad += not (_omega(T + S) <= wT + wS + 1e-9 * max(1.0, wT + wS))
    _DURATIONS["triangle"] = time.perf_counter() - t0
    assert _check(bad == 0, f"radius triangle inequality: {100 - bad}/100")


def test_property_crawford_below_radius():
    t0 = time.perf_counter()
    gen = oracle.generators(524)
    bad = 0
    for k in range(100):
        n = 2 + k % 5
        T = gen.matrix(n)
        w = _omega(T)
        bad += not (crawford_number(T) <= w + 1e-9 * max(1.0, w))
    _DURATIONS["crawford"] = time.perf_counter() - t0
    assert _check(bad == 0, f"crawford number below radius: {100 - bad}/100")


def test_property_identity_orthogonality_symmetry():
    # normal contractions with controlled eigenphase gaps: the threshold
    # against the identity is max(0, -cos(gap_max/2)), and orthogonality to
    # the identity is symmetric at any eps above it
    t0 = time.perf_counter()
    gen = oracle.generators(513)
    rng = np.random.default_rng(5130)
    bad = 0
    stars = 0
    for k in range(100):
        n = 3 + k % 3
        if k % 2:
            # one wide gap, the rest split evenly
            G = float(rng.uniform(3.4, 4.4))
            gaps = np.full(n, (TWO_PI - G) / (n - 1))
            gaps[0] = G
        else:
            # near-even spacing, every gap below pi
            jit = rng.uniform(-0.15, 0.15, size=n)
            gaps = np.full(n, TWO_PI / n) + jit - jit.sum() / n
        rot = float(rng.uniform(0.0, TWO_PI))
        phases = rot + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
        expected = max(0.0, -math.cos(0.5 * float(gaps.max())))
        U = gen.unitary(n)
        T = U @ np.diag(np.exp(1j * phases)) @ U.conj().T
        I = np.eye(n, dtype=complex)
        eps = expected + 0.03
        if not is_omega_orthogonal(T, I, eps).orthogonal:
            bad += 1
        if not is_omega_orthogonal(I, T, eps).orthogonal:
            bad += 1
        if k % 4 == 0:
            stars += 1
            if abs(min_epsilon(T, I) - expected) > STAR_TOL:
                bad += 1
    _DURATIONS["identity-sym"] = time.perf_counter() - t0
    assert _check(
        bad == 0,
        f"identity orthogonality symmetric at eps-star+0.03: 100 instances, {stars} thresholds checked",
    )


def test_property_hermitian_base_omega_implies_bj():
    t0 = time.perf_counter()
    gen = oracle.generators(514)
    used = 0
    bad = 0
    k = 0
    while used < 100 and k < 200:
        k += 1
        n = 2 + k % 4
        T = gen.hermitian(n)
        S = gen.matrix(n)
        eps = min_epsilon(T, S) + 0.03
        if eps >= 0.95:
            continue
        used += 1
        if not is_omega_orthogonal(T, S, eps).orthogonal:
            bad += 1
        if not is_bj_orthogonal(T, S, eps):
            bad += 1
    _DURATIONS["herm-bj"] = time.perf_counter() - t0
    assert _check(
        used >= 100 and bad == 0,
        f"hermitian base: radius-orthogonal implies norm-orthogonal, {used - bad}/{used}",
    )


def test_property_square_zero_base_bj_implies_omega():
    # square-zero bases: the implication runs the other way round
    t0 = time.perf_counter()
    gen = oracle.generators(515)
    rng = np.random.default_rng(5150)
    used = 0
    bad = 0
    attempts = 0
    while used < 100 and attempts < 170:
        attempts += 1
        n = 3 if attempts % 5 == 0 else 2
        T = gen.nilpotent_rank_one(n)
        S = gen.matrix(n)
        eps = float(rng.uniform(0.55, 0.9))
        if not is_bj_orthogonal(T, S, eps):
            continue  # premise not established at this eps, draw again
        used += 1
        if not is_omega_orthogonal(T, S, eps, method="direct").orthogonal:
            bad += 1
    _DURATIONS["sq0-omega"] = time.perf_counter() - t0
    assert _check(
        used >= 100 and bad == 0,
        f"square-zero base: norm-orthogonal implies radius-orthogonal, {used - bad}/{used}",
    )


def test_property_positive_base_identity_shift():
    t0 = time.perf_counter()
    gen = oracle.generators(516)
    used = 0
    bad = 0
    k = 0
    while used < 100 and k < 220:
        k += 1
        n = 2 + k % 4
        T = gen.positive(n)
        S = gen.matrix(n)
        eps = min_epsilon(T, S) + 0.03
        if eps >= 0.95:
            continue
        used += 1
        if not is_omega_orthogonal(T, S, eps).orthogonal:
            bad += 1
        if not is_omega_orthogonal(T + np.eye(n), S, eps).orthogonal:
            bad += 1
    _DURATIONS["pos-shift"] = time.perf_counter() - t0
    assert _check(
        used >= 100 and bad == 0,
        f"positive base: identity shift preserves orthogonality, {used - bad}/{used}",
    )


def test_property_dominated_positive_summand():
    # S positive with unit norm dominates S and S^2; adding either costs at
    # most a doubling of eps
    t0 = time.perf_counter()
    gen = oracle.generators(517)
    used = 0
    bad = 0
    k = 0
    while used < 100 and k < 400:
        k += 1
        n = 2 + k % 4
        T = gen.matrix(n)
        S = gen.positive(n, unit_norm=True)
        eps = min_epsilon(T, S) + 0.02
        if 2.0 * eps >= 0.98:
            continue  # doubled eps must stay well below 1
        used += 1
        if not is_omega_orthogonal(T, S, eps).orthogonal:
            bad += 1
        for K in (S, S @ S):
            if not is_omega_orthogonal(T, S + K, 2.0 * eps).orthogonal:
                bad += 1
    _DURATIONS["dominated"] = time.perf_counter() - t0
    assert _check(
        used >= 100 and bad == 0,
        f"dominated positive summand doubles eps at worst, {used - bad}/{used}",
    )


def test_property_identity_base_support_value():
    # with the identity as base point the derivative collapses to the top
    # eigenvalue of the rotated hermitian part of the direction
    t0 = time.perf_counter()
    gen = oracle.generators(518)
    rng = np.random.default_rng(5180)
    worst = 0.0
    for k in range(100):
        n = 2 + k % 5
        T = gen.matrix(n)
        T = T / _omega(T)
        th = float(rng.uniform(0.0, TWO_PI))
        d = omega_derivative(np.eye(n, dtype=complex), T, th)
        want = float(np.linalg.eigvalsh(hermitian_part(np.exp(1j * th) * T))[-1])
        worst = max(worst, abs(d.value - want))
    _DURATIONS["identity-deriv"] = time.perf_counter() - t0
    assert _check(
        worst <= 1e-7,
        f"identity-base derivative equals support value, worst err {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# brute-force oracle cross-checks


def test_oracle_ellipse_cross_check():
    gen = oracle.generators(601)
    worst = 0.0
    for _ in range(500):
        T = gen.matrix(2)
        worst = max(worst, abs(_omega(T) - oracle.ellipse_radius_2x2(T)))
    assert _check(
        worst <= 1e-8, f"2x2 radius vs ellipse closed form, 500 draws, worst err {worst:.2e}"
    )


def test_oracle_sampling_never_exceeds_radius():
    gen = oracle.generators(602)
    bad = 0
    for k in range(100):
        n = 2 + k % 5
        T = gen.matrix(n)
        lo = oracle.sample_radius_lower(T, samples=4000, seed=6000 + k)
        bad += not (lo <= _omega(T) + 1e-12)
    assert _check(bad == 0, f"sampled lower bound never exceeds radius: {100 - bad}/100")


def test_oracle_scan_sign_agreement():
    # well-separated eps on both sides of the threshold; the violation side
    # needs the fine radial grid because the violating ray segment can sit
    # at small radii
    gen = oracle.generators(90210)
    rng = np.random.default_rng(90211)
    checked = 0
    agree = 0
    k = 0
    while checked < 100 and k < 200:
        k += 1
        n = 2 + k % 5
        T = gen.matrix(n)
        S = gen.matrix(n)
        estar = min_epsilon(T, S)
        if k % 2 == 0 and estar >= 0.36:
            eps = estar - 0.35
            grid_r, grid_th = 96, 32
        elif estar <= 0.93:
            eps = min(estar + 0.35, 0.98)
            grid_r, grid_th = 16, 32
        else:
            continue
        a = is_omega_orthogonal(T, S, eps, method="derivative").orthogonal
        b = is_omega_orthogonal(T, S, eps, method="direct").orthogonal
        checked += 1
        if a != b:
            continue  # counted, but cannot agree with both: flag as failure
        best, _lam = oracle.direct_lambda_scan(T, S, eps, grid_r=grid_r, grid_theta=grid_th)
        agree += (best >= -1e-9) == a
    assert _check(
        checked >= 100 and agree == checked,
        f"coarse scan sign matches deciders on {agree}/{checked} instances",
    )


# ---------------------------------------------------------------------------
# claim table + timing budget


def test_claim_table_and_budget():
    t0 = time.perf_counter()
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(["paper-check"])
    dt = time.perf_counter() - t0
    out = buf.getvalue()
    ok_all = _check(
        rc == 0 and "18/18 claims passed" in out, f"built-in claim table 18/18 ({dt:.2f}s)"
    )
    # the [0.5,1;0,-1] row must warn about its near-identical sibling display
    ok_all &= _check("easy to conflate" in out, "claim table flags the look-alike display")
    if len(_DURATIONS) < 14:
        assert ok_all
        pytest.skip("property suites did not all run in this session; budget not measured")
    total = sum(_DURATIONS.values()) + dt
    # each suite's share, slowest first, so a failing budget names its cause
    split = ", ".join(
        f"{name} {sec:.1f}s" for name, sec in sorted(_DURATIONS.items(), key=lambda kv: -kv[1])
    )
    ok_all &= _check(
        total < 60.0,
        f"claim table + property suites took {total:.1f}s (budget 60s): {split}",
    )
    assert ok_all
