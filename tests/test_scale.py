"""Scale is handled once, at the public boundary: every call divides its
matrices by powers of two on entry and multiplies its answers back. So
2^k T gives 2^k times the answers of T, and the pair (2^k T, 2^-k S) the
answers of (T, S), bit for bit, with angles and vectors unchanged, at
every k where the inputs and the answers are finite. pytest turns any
RuntimeWarning into an error."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from numradius import linalg, numrange, oracle, wderiv


def _matrices():
    gen = oracle.generators(1)
    cases = {f"generic-{n}": gen.matrix(n) for n in (2, 3, 8)}
    # 0 outside W(T), so that the Crawford number is positive
    cases["shifted-3"] = gen.matrix(3) + 4.0 * np.eye(3)
    return {name: linalg.as_matrix(T) for name, T in cases.items()}


_SINGLE = _matrices()


def _single_calls(T, c):
    """Every single-matrix call on c T, tolerances scaled with it: the
    answers that scale with c, then those that do not."""
    T = c * T
    r = numrange.numerical_radius(T, c * 1e-10)
    m = numrange.maximizers(T, c * 1e-8)
    w, v = linalg.herm_eig_max(linalg.hermitian_part(T, 0.7))
    scaled = [
        r.omega,
        *r.enclosure,
        numrange.crawford_number(T, c * 1e-10),
        *numrange.radius_enclosure(T, 64),
        *numrange.boundary_points(T, 16),
        m.omega,
        linalg.spectral_norm(T),
        w,
    ]
    fixed = [r.theta_star, r.maximizer.tobytes(), m.angles, [x.tobytes() for _, x in m]]
    return scaled, fixed + [v.tobytes()]


@pytest.mark.parametrize("k", [600, -600])
@pytest.mark.parametrize("case", sorted(_SINGLE))
def test_single_matrix_calls_at_two_to_the_600(case, k):
    T = _SINGLE[case]
    c = 2.0**k
    want, want_fixed = _single_calls(T, 1.0)
    got, got_fixed = _single_calls(T, c)
    assert got == [c * x for x in want]
    assert got_fixed == want_fixed


def _pairs():
    gen = oracle.generators(1)
    return {n: (linalg.as_matrix(gen.matrix(n)), linalg.as_matrix(gen.matrix(n))) for n in (2, 3)}


_PAIRS = _pairs()
_BJ_CALLS = [(e, m) for e in (0.1, 0.9) for m in ("closed-form", "direct")]


def _pair_calls(T, S, k):
    """Every pair call on (2^k T, 2^-k S): the answers that do not scale
    with k, then those that scale as 4^k (the steps r, by a / b, and the
    direct margin, by a^2), left out with diff_quotient's step where 4^k
    would overflow or underflow."""
    a, b = 2.0**k, 2.0**-k
    T, S = a * T, b * S
    d = wderiv.omega_derivative(T, S, 1.0)
    deriv, direct = (wderiv.is_omega_orthogonal(T, S, 0.5, m) for m in ("derivative", "direct"))
    fixed = [
        d.value,
        d.theta,
        d.converged,
        [q for _, q in d.quotient_trace],
        wderiv.semi_inner(S, T),
        wderiv.derivative_via_maximizers(T, S, 1.0),
        wderiv.inf_derivative(T, S),
        wderiv.min_epsilon(T, S),
        deriv,
        dataclasses.replace(direct, margin=0.0),
        wderiv.min_epsilon_bj(T, S),
        [wderiv.is_bj_orthogonal(T, S, e, m) for e, m in _BJ_CALLS],
    ]
    if abs(k) > 300:
        return fixed, []
    fixed.append(wderiv.diff_quotient(T, S, 1.0, 1e-3 * (a / b)))
    return fixed, [r for r, _ in d.quotient_trace] + [direct.margin]


@pytest.mark.parametrize("k", [600, -600, 300, -300])
@pytest.mark.parametrize("n", sorted(_PAIRS))
def test_pair_calls_at_two_to_the_600(n, k):
    T, S = _PAIRS[n]
    want, want_grow = _pair_calls(T, S, 0)
    got, got_grow = _pair_calls(T, S, k)
    assert got[: len(want)] == want[: len(got)]
    assert got_grow == [4.0**k * x for x in want_grow[: len(got_grow)]]


@pytest.mark.parametrize("k", [40, -40, 600, -600])
def test_semi_inner_scales_with_its_base(k):
    # [S, c T] = c [S, T]: its tolerance is 1e-8 ||T|| ||S||, so it follows
    # the base's scale
    gen = oracle.generators(1)
    H, G = gen.matrix(3), gen.matrix(3)
    assert wderiv.semi_inner(H, 2.0**k * G) == 2.0**k * wderiv.semi_inner(H, G)
    assert wderiv.semi_inner(2.0**k * H, G) == 2.0**k * wderiv.semi_inner(H, G)


def test_entries_at_the_top_of_the_range():
    # a largest entry of 2^1023 or more would need the power 2^1024, which
    # overflows; the entry divides by 2^1023 instead
    assert numrange.numerical_radius([[1e308, 0.0], [0.0, 0.0]]).omega == 1e308
    assert numrange.crawford_number([[1e308]]) == 1e308
    assert linalg.spectral_norm([[0.0, 1e308], [0.0, 0.0]]) == 1e308
    estar = wderiv.min_epsilon([[1e308, 0.0], [0.0, 0.0]], [[1.0, 1.0], [0.0, 1.0]])
    assert abs(estar - 2.0 / 3.0) <= 1e-6
