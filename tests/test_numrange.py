"""Numerical range machinery: radius, Crawford number, boundary, maximizers."""

import cmath
import math
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from numradius import linalg, numrange, oracle
from numradius.numrange import (
    DegenerateMatrixError,
    _sweep_extremes,
    boundary_points,
    _cyclic_runs,
    _profile,
    _refine_peaks,
    crawford_number,
    maximizers,
    numerical_radius,
    radius_enclosure,
)

SQ2 = math.sqrt(2.0)
SQ5 = math.sqrt(5.0)
SQ13 = math.sqrt(13.0)


def _omega(M):
    return numerical_radius(M).omega


def _runs(x, low=None):
    """`_cyclic_runs` of one row, as a list of (start, end) pairs."""
    _, s, e = _cyclic_runs(x, low)
    return list(zip(s.tolist(), e.tolist()))


# --- pinned closed-form values ---------------------------------------------

PINNED = [
    ([[1j, 0], [0, 0]], 1.0),
    ([[0, 1], [0, -1]], (1 + SQ2) / 2),
    ([[1, 1], [0, -1]], SQ5 / 2),
    ([[0.5, 1], [0, -1]], (1 + SQ13) / 4),
    ([[1, 1], [0, 1]], 1.5),
    ([[1, -1], [0, -1]], SQ5 / 2),
    ([[2, 0], [0, 0]], 2.0),
    ([[0, 1], [0, 0]], 0.5),  # nilpotent shift: disk of radius 1/2
    ([[0, 2], [0, 0]], 1.0),
]


@pytest.mark.parametrize("mat,expected", PINNED)
def test_radius_pinned_values(mat, expected):
    assert abs(_omega(mat) - expected) <= 1e-10


def test_radius_result_fields_consistent():
    res = numerical_radius([[0, 1], [0, -1]])
    x = res.maximizer
    # the reported maximizer attains the radius
    assert abs(abs(np.vdot(x, np.array([[0, 1], [0, -1]]) @ x)) - res.omega) < 1e-8
    lo, hi = res.enclosure
    assert lo <= res.omega <= hi
    assert hi - lo < 1e-8


def test_radius_result_maximizer_is_read_only():
    T = np.array([[0, 1], [0, -1]], dtype=complex)
    x = numerical_radius(T).maximizer
    with pytest.raises(ValueError):
        x[:] = 0.0
    assert abs(np.linalg.norm(numerical_radius(T).maximizer) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        numerical_radius(np.zeros((2, 2))).maximizer[0] = 0.0
    for _, v in maximizers(T):
        with pytest.raises(ValueError):
            v[0] = 0.0


def test_radius_zero_matrix():
    res = numerical_radius(np.zeros((3, 3)))
    assert res.omega == 0.0
    assert res.theta_star == 0.0


def test_radius_diagonal_is_max_modulus():
    d = np.diag([1.5 - 2j, 0.25, -3j])
    assert abs(_omega(d) - 3.0) < 1e-10


def test_radius_tol_validation():
    with pytest.raises(ValueError):
        numerical_radius(np.eye(2), tol=0.0)


# --- properties over seeded instances ---------------------------------------


def test_norm_equivalence_and_triangle():
    gen = oracle.generators(11)
    for k in range(40):
        n = 2 + k % 5
        T = gen.matrix(n)
        S = gen.matrix(n)
        wT, wS = _omega(T), _omega(S)
        nT = linalg.spectral_norm(T)
        assert wT <= nT + 1e-9 * max(1.0, nT)
        assert nT <= 2.0 * wT + 1e-9 * max(1.0, nT)
        assert _omega(T + S) <= wT + wS + 1e-8 * max(1.0, wT + wS)


def test_homogeneity_complex_scalars():
    gen = oracle.generators(12)
    for k in range(30):
        n = 2 + k % 4
        T = gen.matrix(n)
        lam = complex(gen._rng.standard_normal() * 2, gen._rng.standard_normal())
        w = _omega(T)
        assert abs(_omega(lam * T) - abs(lam) * w) < 1e-8 * max(1.0, abs(lam) * w)


def test_unitary_similarity_invariance():
    gen = oracle.generators(13)
    for k in range(25):
        n = 2 + k % 4
        T = gen.matrix(n)
        U = gen.unitary(n)
        w1 = _omega(T)
        w2 = _omega(np.conj(U.T) @ T @ U)
        assert abs(w1 - w2) < 1e-8 * max(1.0, w1)


def test_hermitian_radius_equals_norm_and_top_modulus_eig():
    gen = oracle.generators(14)
    for k in range(25):
        n = 2 + k % 5
        H = gen.hermitian(n)
        w = _omega(H)
        assert abs(w - linalg.spectral_norm(H)) < 1e-9 * max(1.0, w)
        assert abs(w - np.abs(np.linalg.eigvalsh(H)).max()) < 1e-9 * max(1.0, w)


def test_rank_one_radius_formula():
    # omega(x (x) y) = (|<x,y>| + ||x|| ||y||) / 2
    gen = oracle.generators(15)
    for k in range(30):
        n = 2 + k % 7
        x = gen.unit_vector(n)
        y = gen.unit_vector(n)
        M = linalg.rank_one(x, y)
        expected = 0.5 * (abs(np.vdot(y, x)) + 1.0)
        assert abs(_omega(M) - expected) <= 1e-8


def test_agrees_with_ellipse_oracle_2x2():
    gen = oracle.generators(16)
    for _ in range(60):
        T = gen.matrix(2)
        assert abs(_omega(T) - oracle.ellipse_radius_2x2(T)) <= 1e-8


# --- crawford ----------------------------------------------------------------


def test_crawford_pinned_values():
    assert crawford_number(np.diag([1.0, -1.0])) == 0.0  # range straddles 0
    assert abs(crawford_number(np.diag([2.0, 1.0])) - 1.0) < 1e-10
    assert abs(crawford_number(2.0 * np.eye(3)) - 2.0) < 1e-10
    assert abs(crawford_number(np.diag([1 + 1j, 1 - 1j])) - 1.0) < 1e-8
    assert crawford_number([[0, 1], [0, 0]]) == 0.0  # disk centered at 0


def test_crawford_below_radius():
    gen = oracle.generators(17)
    for k in range(30):
        n = 2 + k % 5
        T = gen.matrix(n)
        assert crawford_number(T) <= _omega(T) + 1e-10


def test_crawford_shift_opens_gap():
    # pushing the range away from 0 raises c to |shift| - omega
    T = np.array([[0, 1], [0, 0]], dtype=complex)
    c = crawford_number(T + 3.0 * np.eye(2))
    assert abs(c - 2.5) < 1e-8


# --- boundary and maximizers --------------------------------------------------


def test_boundary_points_count_and_enclosure():
    T = [[0, 1], [0, 0]]
    pts = boundary_points(T, 360)
    assert len(pts) == 360
    radii = [abs(z) for z in pts]
    assert max(radii) <= 0.5 + 1e-9
    assert max(radii) >= 0.5 - 1e-6  # the disk boundary is actually reached


def test_boundary_points_hermitian_is_real_segment():
    pts = boundary_points(np.diag([1.0, -1.0]), 64)
    assert all(abs(z.imag) < 1e-9 for z in pts)
    assert max(z.real for z in pts) > 1.0 - 1e-9
    assert min(z.real for z in pts) < -1.0 + 1e-9


def test_boundary_points_identity_degenerates_to_point():
    pts = boundary_points(np.eye(2), 4)
    assert all(abs(z - 1.0) < 1e-10 for z in pts)


def test_boundary_points_min_count():
    with pytest.raises(ValueError):
        boundary_points(np.eye(2), 2)


def test_maximizers_attain_radius():
    T = np.array([[0, 1], [0, -1]], dtype=complex)
    ms = maximizers(T)
    assert len(ms) >= 1
    for theta, x in ms:
        assert abs(np.linalg.norm(x) - 1.0) < 1e-10
        assert abs(np.vdot(x, T @ x)) >= ms.omega - 1e-7


def test_maximizers_normal_matrix_two_antipodal_angles():
    ms = maximizers(np.diag([1.0, -1.0]))
    angles = sorted(t % (2 * math.pi) for t in ms.angles)
    assert len(ms) == 2
    assert abs(angles[0] - 0.0) < 1e-6 or abs(angles[0] - math.pi) < 1e-6


def test_maximizers_zero_matrix_rejected():
    with pytest.raises(DegenerateMatrixError):
        maximizers(np.zeros((2, 2)))


def test_radius_enclosure_soundness():
    gen = oracle.generators(18)
    for k in range(20):
        n = 2 + k % 4
        T = gen.matrix(n)
        w = _omega(T)
        for grid in (64, 256):
            lo, hi = radius_enclosure(T, grid)
            assert lo <= w + 1e-12
            assert hi >= w - 1e-12
    # enclosures tighten with the grid
    T = gen.matrix(3)
    l1, h1 = radius_enclosure(T, 64)
    l2, h2 = radius_enclosure(T, 1024)
    assert (h2 - l2) <= (h1 - l1) + 1e-12


def _per_angle_hermitian(T, grid):
    return [linalg.hermitian_part(T, 2.0 * math.pi * k / grid) for k in range(grid)]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("grid", [16, 17, 64, 9])
def test_sweep_extremes_matches_per_angle_eigvalsh(n, grid):
    T = linalg.as_matrix(oracle.generators(300 + n).matrix(n))
    lo, hi = _sweep_extremes(T, grid)
    ref = np.array([np.linalg.eigvalsh(H)[[0, -1]] for H in _per_angle_hermitian(T, grid)])
    tol = 1e-13 * np.linalg.norm(T, 2)
    assert lo.shape == hi.shape == (grid,)
    assert np.abs(lo - ref[:, 0]).max() <= tol
    assert np.abs(hi - ref[:, 1]).max() <= tol


def _boundary_cases():
    gen = oracle.generators(77)
    cases = {f"generic-n{n}": gen.matrix(n) for n in (2, 5, 64)}
    cases["diagonal"] = np.diag(gen.matrix(6)[0])
    cases["identity"] = np.eye(3)
    cases["hermitian"] = gen.hermitian(5)
    cases["square-zero"] = gen.nilpotent_rank_one(4)
    c = gen.matrix(6)[0].real
    cases["real-circulant"] = np.array([np.roll(c, k) for k in range(6)])
    cases["zero"] = np.zeros((3, 3))
    return cases


@pytest.mark.parametrize("count", [7, 8, 63, 64, 360, 1000])
def test_boundary_points_match_per_angle_eigh(count, monkeypatch):
    # first with T's sweep not cached, then cached by numerical_radius and
    # crawford_number: the support values copied from it are the same bits
    for name, T in _boundary_cases().items():
        monkeypatch.setattr(numrange, "_PROFILE_CACHE", numrange._LRU(4))
        monkeypatch.setattr(numrange, "_SWEEP_CACHE", numrange._LRU(4))
        pts = boundary_points(T, count)
        numerical_radius(T)
        crawford_number(T)
        assert boundary_points(T, count) == pts, name
        assert len(pts) == count
        if name == "zero":
            assert pts == [0j] * count
        norm = np.linalg.norm(T, 2)
        unique = 0
        for k in range(count):
            theta = 2.0 * math.pi * k / count
            w, V = np.linalg.eigh(linalg.hermitian_part(T, theta))
            # the support function: Re(e^{i theta} p) = lambda_max(H_theta)
            assert abs((cmath.exp(1j * theta) * pts[k]).real - w[-1]) <= 1e-12, (name, k)
            # the support point is unique where lambda_max is simple; where
            # it ties (the identity, a real circulant at theta = 0, a
            # Hermitian T at theta = pi/2) the support set is a segment
            if w.size == 1 or w[-1] - w[-2] > 1e-4 * norm:
                x = V[:, -1]
                assert abs(pts[k] - np.vdot(x, T @ x)) <= 1e-10, (name, k)
                unique += 1
        if name.startswith("generic"):
            assert unique == count, name
        if name == "identity":
            assert all(abs(z - 1.0) <= 1e-10 for z in pts)


def _counting_eigh(monkeypatch):
    """Patch ``np.linalg.eigh`` to record the matrices of each call."""
    calls, eigh = [], np.linalg.eigh

    def counting(H):
        calls.append(1 if H.ndim == 2 else H.shape[0])
        return eigh(H)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_boundary_points_copy_the_3x3_sweep_bit_for_bit(monkeypatch):
    # at n = 3 T's sweep and boundary_points' own solves both take the
    # closed form `linalg._eig3_rot` of the same real products
    # (`_extremes_at`, which `_grid_extremes` calls at every n), so the
    # support values copied from T's fully solved cached sweep give the
    # points of a cold call, bit for bit, with no solve of their own
    gen = oracle.generators(33)
    U = gen.unitary(3)
    cases = [gen.matrix(3) for _ in range(4)] + [gen.nilpotent_rank_one(3), gen.hermitian(3)]
    cases.append(U @ np.diag([1.0, 1.0, -0.5]) @ U.conj().T)
    solved = _count_sweep_solves(monkeypatch)
    for T in cases:
        monkeypatch.setattr(numrange, "_PROFILE_CACHE", numrange._LRU(4))
        monkeypatch.setattr(numrange, "_SWEEP_CACHE", numrange._LRU(4))
        cold = boundary_points(T, 64)
        numrange._shared(linalg._as_unit(T)[0])[0].full()
        solved.clear()
        assert boundary_points(T, 64) == cold
        assert solved == []


def test_boundary_points_take_eigh_only_where_the_solves_disagree(monkeypatch):
    calls = _counting_eigh(monkeypatch)
    # diag(1, 0): H_theta at theta = pi/2 is about 6e-17 diag(1, 0), a top
    # tied to rounding
    assert boundary_points(np.diag([1.0, 0.0]), 4) == [1.0, 1.0, 0.0, 0.0]
    assert sum(calls) > 0
    calls.clear()
    # the first 20 `radius-large` instances of seed 1 (T, then S)
    gen = oracle.generators(1)
    for _ in range(20):
        T = gen.matrix(64)
        gen.matrix(64)
        boundary_points(T, 64)
    assert sum(calls) == 0


def test_boundary_points_of_zero_take_no_solve(monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    for count in (3, 4, 64):
        assert boundary_points(np.zeros((4, 4)), count) == [0j] * count


def test_boundary_points_singular_solve_falls_back_to_eigh(monkeypatch):
    T = oracle.generators(78).matrix(5)
    want = boundary_points(T, 16)

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    calls = _counting_eigh(monkeypatch)
    got = boundary_points(T, 16)
    assert calls == [8]
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12 * np.linalg.norm(T, 2)


def test_boundary_points_orthogonal_solutions_raise_no_warning(monkeypatch):
    # start vectors e1 and e2 against the identity: the two solutions of
    # each direction are exactly orthogonal, so phase-aligning one to the
    # other divides 0 by 0 unless guarded
    starts = np.zeros((64, 2), dtype=complex)
    starts[0, 0] = starts[1, 1] = 1.0
    monkeypatch.setattr(numrange, "_STARTS", starts)
    calls = _counting_eigh(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pts = boundary_points(np.eye(2), 6)
    assert calls == [3]
    assert all(abs(z - 1.0) <= 1e-15 for z in pts)


def test_radius_enclosure_odd_grid():
    T = oracle.generators(19).matrix(4)
    lo, hi = radius_enclosure(T, 9)
    top = max(np.linalg.eigvalsh(H)[-1] for H in _per_angle_hermitian(T, 9))
    assert abs(lo - top) <= 1e-13 * np.linalg.norm(T, 2)
    assert lo <= _omega(T) <= hi


@pytest.mark.parametrize("grid", [8, 9, 64, 256])
def test_radius_enclosure_tight_between_grid_angles(grid):
    # W(T) is the point e^{i pi/grid}: its support is largest halfway
    # between two grid angles, where lower / cos(pi/grid) is omega itself
    # and only the rounding allowance keeps upper at or above it
    for n in (1, 3):
        lo, hi = radius_enclosure(cmath.exp(1j * math.pi / grid) * np.eye(n), grid)
        assert lo / math.cos(math.pi / grid) == pytest.approx(1.0, abs=4e-16)
        assert 1.0 <= hi <= 1.0 + 1e-13


def test_boundary_point_on_ellipse_example():
    # [[0,1],[0,0]] support point at angle t lies on the circle |z| = 1/2
    for t in (0.0, 0.9, 2.2, 4.0):
        pts = boundary_points([[0, 1], [0, 0]], 7)
        for z in pts:
            assert abs(abs(z) - 0.5) < 1e-9


def test_support_point_matches_rotation():
    # rotating T rotates the numerical range rigidly
    T = np.array([[0.5, 1], [0, -1]], dtype=complex)
    w0 = _omega(T)
    for phi in (0.4, 1.7):
        assert abs(_omega(cmath.exp(1j * phi) * T) - w0) < 1e-10


def test_profile_cache_is_thread_safe(monkeypatch):
    # more threads than cores, a 2-entry cache over 3 matrices and a 1 us
    # switch interval: an unlocked lookup loses its key to another
    # thread's eviction between the read and the move-to-end
    monkeypatch.setattr(numrange._PROFILE_CACHE, "cap", 2)
    gen = oracle.generators(5)
    mats = [gen.matrix(2) for _ in range(3)]
    expected = [_omega(M) for M in mats]
    errors = []
    wrong = []

    def work(seed):
        rng = np.random.default_rng(seed)
        end = time.monotonic() + 2.0
        try:
            while time.monotonic() < end:
                k = int(rng.integers(len(mats)))
                if _omega(mats[k]) != expected[k]:
                    wrong.append(k)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert wrong == []
    assert len(numrange._PROFILE_CACHE._data) <= 2


# --- peak refinement on the slope of lambda_max -------------------------------


def _one_bracket_refine(Ms, owner, a, b, width, seeds, negate=False):
    """`_refine_peaks` called on each bracket alone."""
    return [
        _refine_peaks(Ms, [k], [lo], [hi], width, [seed], negate)[0]
        for k, lo, hi, seed in zip(owner, a, b, seeds)
    ]


def _scalar_lammax(T):
    """Scalar theta -> lambda_max(H_theta(T)) with the sweep's bits: the
    2x2 closed form on Python floats (cos and sin are cmath.exp(i theta)'s
    parts), `_extremes_at` at one angle at n = 3, else one eigvalsh."""
    if T.shape[0] == 2:
        c = linalg._rot2(T)
        return lambda t: linalg._eig2_rot(c, math.cos(t), math.sin(t))[1]
    if T.shape[0] == 3:
        return lambda t: float(numrange._extremes_at(T, [t])[1][0])
    return lambda t: float(np.linalg.eigvalsh(linalg._hermitian_rot(T, cmath.exp(1j * t)))[-1])


def _lockstep_brackets(Ms, seed):
    """Brackets of the matrices of Ms in turn, from below the stopping
    width up to 0.3: around each matrix's top peak (its end slopes
    straddle zero) or anywhere (they may not). Some seeds beat every
    evaluated point, others lose."""
    rng = np.random.default_rng(seed)
    tops = [_profile(M).theta_star for M in Ms]
    owner, a, b, seeds = [], [], [], []
    for i, span in enumerate([1e-9, 5e-8, 1e-7, 3e-4, 0.006, 0.02, 0.1, 0.3] * 4):
        k = i % len(Ms)
        lo = float(tops[k] - span * rng.uniform(0.1, 0.9) if i % 2 else rng.uniform(0.0, 6.0))
        x0 = lo + 0.5 * span
        f0 = _scalar_lammax(Ms[k])(x0) + (1.0 if i % 4 == 0 else -1.0)
        owner.append(k)
        a.append(lo)
        b.append(lo + span)
        seeds.append((x0, f0))
    return owner, a, b, seeds


def _counting(monkeypatch, name):
    """Wrap numrange.<name> to record the length of its second argument (the
    lanes or brackets of the call) at each call; returns that list."""
    calls, fn = [], getattr(numrange, name)

    def counting(*args):
        calls.append(len(args[1]))
        return fn(*args)

    monkeypatch.setattr(numrange, name, counting)
    return calls


def _assert_lockstep_is_one_bracket(Ms, seed, monkeypatch):
    owner, a, b, seeds = _lockstep_brackets(Ms, seed)
    rounds = _counting(monkeypatch, "_slopes_at")
    arrays = _counting(monkeypatch, "_peak_lanes")
    # the rounds and array steps of a call's searches before its re-split
    resplits, resplit = [], numrange._resplit

    def counting(*args):
        resplits.append((len(rounds), list(arrays)))
        return resplit(*args)

    monkeypatch.setattr(numrange, "_resplit", counting)
    cap = numrange._SCALAR_LANES
    for width in (1e-7, 1e-10, 0.0):
        # negated, the brackets around a peak hold a minimum and are re-split
        for negate in (False, True):
            # all 32 brackets take the array step, the first `cap` the generators
            for m in (len(owner), cap):
                rounds.clear()
                arrays.clear()
                resplits.clear()
                args = owner[:m], a[:m], b[:m], width, seeds[:m], negate
                got = _refine_peaks(Ms, *args)
                # unbracketed lanes occur: the call re-splits them
                (first_rounds, first_arrays), *_ = resplits
                assert first_arrays == ([m] if m > cap else [])
                if width == 0.0 and not negate and (first_arrays or Ms.shape[-1] > 2):
                    # 0.0: some bracketed search hits the step cap (the
                    # generators' 2x2 rounds of few lanes do not pass
                    # through _slopes_at)
                    assert first_rounds == numrange._ROOT_STEPS + 1
                assert got == _one_bracket_refine(Ms, *args)
                assert all(type(x) is float and type(v) is float for x, v in got)


@pytest.mark.parametrize("n", [3, 4, 8])
def test_lockstep_golden_matches_scalar_search_bitwise(n, monkeypatch):
    # brackets of three matrices refined in one lockstep call equal the
    # same brackets refined one call each, bit for bit, for the slope
    # search and its re-split alike, in the array step and in the
    # generators
    gen = oracle.generators(600 + n)
    Ms = np.stack([linalg.as_matrix(gen.matrix(n)) for _ in range(3)])
    _assert_lockstep_is_one_bracket(Ms, n, monkeypatch)


def test_lockstep_2x2_search_matches_one_bracket_bitwise(monkeypatch):
    # the array step takes the batched closed form, and the generators'
    # rounds of a few lanes (every one-bracket call) take it on Python
    # floats: the same bits
    gen = oracle.generators(602)
    Ms = np.stack([linalg.as_matrix(gen.matrix(2)) for _ in range(3)])
    _assert_lockstep_is_one_bracket(Ms, 2, monkeypatch)


def test_array_step_stops_on_an_exact_zero_slope(monkeypatch):
    # a Hermitian T has H_theta = cos(theta) T, so it peaks at theta = 0, a
    # grid angle, where the 2x2 closed form's slope is exactly 0: a bracket
    # ending there stops on its first step at that end, in the array step
    # as in the generators
    T = np.array([[1.0, 0.5 - 0.2j], [0.5 + 0.2j, -0.3]])
    top = float(np.linalg.eigvalsh(T)[-1])
    f, g = numrange._slopes_at(T[None], [0], [0.0])
    assert g.tolist() == [0.0] and abs(f[0] - top) <= 1e-15
    arrays = _counting(monkeypatch, "_peak_lanes")
    spans = np.linspace(1e-3, 0.5, 7)
    a = np.concatenate((np.zeros(7), -spans, -spans)).tolist()
    b = np.concatenate((spans, np.zeros(7), spans)).tolist()
    owner = [0] * len(a)
    seeds = [(0.1, -math.inf)] * len(a)
    for width in (1e-10, 0.0):
        got = _refine_peaks(T[None], owner, a, b, width, seeds)
        assert arrays.pop() == len(a)
        assert [x for x, _ in got[:14]] == [0.0] * 14
        assert got == _one_bracket_refine(T[None], owner, a, b, width, seeds)


@pytest.mark.parametrize("n", [2, 3])
def test_profile_peaks_match_scalar_refinement(n):
    # a generic T and a normal T with n unit-modulus eigenvalues (n peaks,
    # refined in one lockstep call): every kept grid peak is refined
    # exactly as the search of its bracket alone refines it
    gen = oracle.generators(515)
    U = gen.unitary(n)
    phases = np.exp(1j * np.array([0.3, 2.5, 4.4][:n]))
    for T in (gen.matrix(n), U @ np.diag(phases) @ U.conj().T):
        T = linalg.as_matrix(T)
        p = _profile(T)
        lo, hi = _sweep_extremes(T, 1024)
        h = 2.0 * math.pi / 1024
        keep = float(hi.max()) - 2.0 * p.lip * h
        ref = []
        for s, e in _runs(hi, -math.inf):
            gv = float(hi[s % 1024])
            if gv >= keep:
                seed = (0.5 * (s + e) * h, gv)
                (x, v), = _refine_peaks(T[None], [0], [(s - 1) * h], [(e + 1) * h],
                                        1e-10 / p.lip, [seed])
                ref.append((x % (2.0 * math.pi), v))
        assert p.peaks_above(-math.inf) == sorted(ref)
    assert len(ref) == n


def _eigh_slope(M, theta):
    z = cmath.exp(1j * theta)
    w, V = np.linalg.eigh(linalg._hermitian_rot(M, z))
    x = V[:, -1]
    return float(w[-1]), -(z * np.vdot(x, M @ x)).imag


def test_2x2_closed_form_slope_is_the_eigh_slope():
    gen = oracle.generators(31)
    rng = np.random.default_rng(31)
    Ms = np.stack([linalg._as_unit(gen.matrix(2))[0] for _ in range(20)])
    owner = np.repeat(np.arange(20), 30)
    x = rng.uniform(-7.0, 7.0, size=owner.size)
    f, g = numrange._slopes_at(Ms, owner, x)
    ref = np.array([_eigh_slope(Ms[k], t) for k, t in zip(owner.tolist(), x.tolist())])
    assert np.abs(f - ref[:, 0]).max() <= 8e-15
    assert np.abs(g - ref[:, 1]).max() <= 1e-14
    # the value is the sweep's closed form bit for bit
    assert f.tolist() == numrange._extremes_at(Ms[owner], x)[1].tolist()
    # rad = 0: a scalar matrix at every angle, and a kink of lambda_max of
    # diag(1.5i, -0.5i) at theta = 0, where H_theta's diagonal ties: the
    # slope is m', the derivative of the mean -Im(z (t00 + t11) / 2)
    c = 0.3 - 0.8j
    f, g = numrange._slopes_at((c * np.eye(2))[None], [0, 0], [0.4, 2.0])
    for t, fv, gv in zip((0.4, 2.0), f.tolist(), g.tolist()):
        want = _eigh_slope(c * np.eye(2), t)
        assert abs(fv - want[0]) <= 1e-15 and abs(gv - want[1]) <= 1e-15
    f, g = numrange._slopes_at(np.diag([1.5j, -0.5j])[None], [0], [0.0])
    assert (f[0], g[0]) == (0.0, -0.5)


def _bisect_peak(M, a, b):
    """80 bisection steps on the sign of the eigh slope: (x, lambda_max)."""
    for _ in range(80):
        m = 0.5 * (a + b)
        if _eigh_slope(M, m)[1] > 0.0:
            a = m
        else:
            b = m
    return m, _eigh_slope(M, m)[0]


@pytest.mark.parametrize("n", [2, 3, 4, 8, 64])
def test_refined_peaks_match_slope_bisection(n):
    gen = oracle.generators(4100 + n)
    h = 2.0 * math.pi / 1024
    for _ in range(3):
        T = linalg._as_unit(gen.matrix(n))[0]
        p = _profile(T)
        for x, v in p.peaks_above(-math.inf):
            xr, vr = _bisect_peak(T, x - h, x + h)
            assert abs(v - vr) <= 8.0 * p.sweep.rho, (n, x, v, vr)
            assert abs(x - xr) <= 1e-9, (n, x, xr)


def test_peak_search_resplits_without_a_sign_change():
    # a bracket on the rising flank of the top peak: its end slopes are
    # both positive, and so are the slopes at the grid angles inside it,
    # where it is re-split, so it keeps its best evaluated value: its
    # right end
    gen = oracle.generators(515)
    h = 2.0 * math.pi / 1024
    for n in (2, 3):
        T = linalg._as_unit(gen.matrix(n))[0]
        top = _profile(T).theta_star
        a, b = top - 0.3, top - 0.1
        k = np.arange(math.floor(a / h), math.ceil(b / h) + 1) * h
        x = [a, *k[(a < k) & (k < b)].tolist(), b]
        f, g = numrange._slopes_at(T[None], [0] * len(x), x)
        assert (g > 0.0).all()
        seed = (a, -math.inf)
        assert _refine_peaks(T[None], [0], [a], [b], 1e-10, [seed]) == [(b, float(f[-1]))]
        # with negate its slopes are all negative: it ends at its left end
        got = _refine_peaks(T[None], [0], [a], [b], 1e-10, [seed], negate=True)
        assert got == [(a, -float(f[0]))]
    # a normal T with unit-modulus eigenvalues e^{i alpha_j} has
    # lambda_max(H_theta) = max_j cos(theta + alpha_j): a bracket from the
    # rising flank of the peak at -0.3 to the rising flank of the next one
    # holds that peak and a kink between them, and rises at both ends. The
    # re-split brackets the peak between two grid angles and finds it as
    # the profile does
    U = gen.unitary(3)
    T = U @ np.diag(np.exp(1j * np.array([0.3, 2.5, 4.4]))) @ U.conj().T
    T = linalg._as_unit(T)[0]
    peaks = _profile(T).peaks_above(-math.inf)
    (xp, vp), = [(x, v) for x, v in peaks if abs(x - (2.0 * math.pi - 0.3)) < 0.01]
    a, b = xp - 0.4, xp + 2.0
    f, g = numrange._slopes_at(T[None], [0, 0], [a, b])
    assert (g > 0.0).all()
    (x, v), = _refine_peaks(T[None], [0], [a], [b], 1e-10, [(a, -math.inf)])
    assert abs(x - xp) <= 1e-9 and abs(v - vp) <= 1e-15


def test_radius_peak_of_a_generic_n64_matrix_takes_few_eigensolves(monkeypatch):
    # the slope search refines a peak to 1e-10 / ||T|| rad in 5-8
    # eigensolves, its two bracket ends included
    monkeypatch.setattr(numrange, "_PROFILE_CACHE", numrange._LRU(4))
    monkeypatch.setattr(numrange, "_SWEEP_CACHE", numrange._LRU(4))
    brackets, lanes = [], []
    refine, slopes = numrange._refine_peaks, numrange._slopes_at

    def counting_refine(Ms, owner, *args, **kw):
        brackets.append(len(owner))
        return refine(Ms, owner, *args, **kw)

    def counting_slopes(Ms, owner, thetas):
        lanes.append(len(thetas))
        return slopes(Ms, owner, thetas)

    monkeypatch.setattr(numrange, "_refine_peaks", counting_refine)
    monkeypatch.setattr(numrange, "_slopes_at", counting_slopes)
    gen = oracle.generators(4243)
    for _ in range(3):
        brackets.clear()
        lanes.clear()
        numerical_radius(gen.matrix(64))
        assert sum(brackets) >= 1
        assert sum(lanes) <= 10 * sum(brackets), (brackets, lanes)


@pytest.mark.parametrize("base", ["square-zero-2", "square-zero-3", "square-zero-4", "J+J"])
def test_flat_sweep_is_one_grid_peak(base):
    # W(T) is a disk centred at 0: the 1024-angle sweep is flat up to
    # rounding, and its hundreds of local maxima are noise, not peaks
    if base == "J+J":
        T = np.kron(np.eye(2), np.array([[0, 1], [0, 0]]))
    else:
        T = oracle.generators(515).nilpotent_rank_one(int(base[-1]))
    T = linalg.as_matrix(T)
    p = _profile(T)
    norm = linalg.spectral_norm(T)
    assert len(p.peaks_above(-math.inf)) == 1
    assert p.peaks_above(-math.inf)[0][0] in (np.arange(1024) * (2.0 * math.pi / 1024)).tolist()
    assert abs(p.omega - 0.5 * norm) <= 1e-15 * norm
    assert len(_runs(p.sweep.full()[1], -math.inf)) > 1


def test_run_finder_merges_the_wrap_and_finds_local_maxima():
    mask = np.array([1, 1, 0, 1, 0, 0, 1, 1], dtype=bool)
    assert _runs(mask) == [(-2, 1), (3, 3)]
    assert _runs(np.ones(5, dtype=bool)) == [(0, 4)]
    assert _runs(np.zeros(5, dtype=bool)) == []
    vals = np.array([3.0, 1.0, 2.0, 2.0, 0.0, 3.0])
    assert _runs(vals, -math.inf) == [(-1, 0), (2, 3)]
    assert _runs(np.ones(4), -math.inf) == [(0, 3)]


def _plain_runs(row):
    """Cyclic runs of True of one row (a list), by walking it from each
    start: (start, end) pairs sorted by start, a run through the wrap
    point with start < 0."""
    g = len(row)
    if all(row):
        return [(0, g - 1)]
    runs = []
    for i in range(g):
        if row[i] and not row[i - 1]:
            j = i
            while row[(j + 1) % g]:
                j += 1
            runs.append((i - g, j - g) if j >= g else (i, j))
    return sorted(runs)


def _plain_peaks(row, low):
    g = len(row)
    return [v >= low and v >= row[i - 1] and v >= row[(i + 1) % g] for i, v in enumerate(row)]


def test_run_finder_matches_a_plain_walk_of_each_row():
    # one call over a stack equals a walk of each row alone: plateaus, runs
    # through the wrap point, all-True and empty rows, -inf entries (the
    # unsolved angles of a pruned sweep), masks and curves with a cut per row
    inf = math.inf
    rows = [
        [1.0, 2.0, 2.0, 2.0, 1.0, 0.0, 0.0, 1.0],
        [3.0, 1.0, 0.0, 1.0, 2.0, 2.0, 0.0, 3.0],
        [2.0] * 8,
        [-inf] * 8,
        [-inf, 1.0, 1.0, -inf, -inf, 0.5, -inf, -inf],
        [1.0, -inf, 0.0, 0.0, -inf, 2.0, 2.0, 2.0],
        [0.0, 1.0] * 4,
    ]
    rng = np.random.default_rng(7)
    for _ in range(40):
        row = rng.integers(0, 3, size=8).astype(float)
        row[rng.random(8) < 0.25] = -inf
        rows.append(row.tolist())
    X = np.array(rows)
    for low in (-inf, 0.5, np.array([1.0, 0.0, 3.0, -inf, 0.0, 0.5, 1.0] + [1.0] * 40)):
        lows = np.broadcast_to(low, len(rows)).tolist()
        want = [(k, s, e) for k, row in enumerate(rows)
                for s, e in _plain_runs(_plain_peaks(row, lows[k]))]
        row, s, e = _cyclic_runs(X, low)
        assert list(zip(row.tolist(), s.tolist(), e.tolist())) == want
        assert all(_runs(X[k], lows[k]) == [(s, e) for j, s, e in want if j == k]
                   for k in range(len(rows)))
    masks = np.isfinite(X)
    masks[2] = True  # an all-True row next to the empty row 3
    want = [(k, s, e) for k, m in enumerate(masks.tolist()) for s, e in _plain_runs(m)]
    row, s, e = _cyclic_runs(masks)
    assert list(zip(row.tolist(), s.tolist(), e.tolist())) == want
    assert any(s < 0 for _, s, _ in want) and (2, 0, 7) in want


# --- the pruned sweep against the full one ------------------------------------
#
# `_full_profile`, `_full_crawford`, `_full_maximizers` and `_full_enclosure`
# keep the whole-sweep code that solved every angle of the grid before the
# sweep was pruned to the arcs a caller reads; every public output must
# equal theirs bit for bit.


def _full_profile(T, tol=1e-10):
    grid = numrange.GRID_DEFAULT
    thetas = np.arange(grid) * (2.0 * math.pi / grid)
    lo, hi = _sweep_extremes(T, grid)
    lip = linalg._spectral_norm(T)
    h = 2.0 * math.pi / grid
    omega_grid = float(hi.max())
    keep = omega_grid - 2.0 * lip * h
    width_target = tol / max(lip, 1e-300)
    peaks, brackets = [], []
    # flat: a spread within 2 rho, rho = 8 n u ||T||_F the allowance for
    # the rounding of one computed eigenvalue
    rho = 8.0 * T.shape[0] * np.finfo(float).eps * math.sqrt(np.vdot(T, T).real)
    if omega_grid - float(hi.min()) <= 2.0 * rho:
        peaks.append((thetas[int(np.argmax(hi))], omega_grid))
    else:
        for s, e in _runs(hi, -math.inf):
            gv = float(hi[s % grid])
            if gv >= keep:
                brackets.append(((s - 1) * h, (e + 1) * h, (0.5 * (s + e) * h, gv)))
    if brackets:
        a, b, seeds = zip(*brackets)
        refined = _refine_peaks(T[None], [0] * len(a), a, b, width_target, seeds)
        peaks.extend((xb % (2.0 * math.pi), fb) for xb, fb in refined)
    if not peaks:
        k = int(np.argmax(hi))
        peaks = [(float(thetas[k]), omega_grid)]
    peaks = sorted(peaks)
    omega = max(v for _, v in peaks)
    tie = 1e-12 * max(1.0, omega)
    theta_star = min(th for th, v in peaks if v >= omega - tie)
    width = min(width_target, h)
    _, V = np.linalg.eigh(linalg._hermitian_rot(T, cmath.exp(1j * theta_star)))
    maximizer = np.ascontiguousarray(V[:, -1])
    return dict(lo=lo, hi=hi, lip=lip, omega=omega, theta_star=theta_star,
                maximizer=maximizer, peaks=peaks, width=width, thetas=thetas)


def _full_crawford(T, p, tol=1e-10):
    h = 2.0 * math.pi / p["hi"].size
    lo, lip = p["lo"], p["lip"]
    best_grid = float(lo.max())
    if best_grid + 2.0 * lip * h < 0.0:
        return 0.0
    keep = best_grid - 2.0 * lip * h
    brackets = []
    for s, e in _runs(lo, -math.inf):
        gv = float(lo[s % lo.size])
        if gv >= keep and (e + 1) * h - (s - 1) * h < 2.0 * math.pi:
            brackets.append(((s - 1) * h, (e + 1) * h, (0.5 * (s + e) * h, gv)))
    best = best_grid
    if brackets:
        a, b, seeds = zip(*brackets)
        for _, fb in _refine_peaks((-T)[None], [0] * len(a), a, b, tol / max(lip, 1e-300),
                                   seeds, negate=True):
            best = max(best, fb)
    return max(0.0, best)


def _full_maximizers(T, p, tol):
    cut = p["omega"] - tol
    cand = [float(th) for th, v in p["peaks"] if v >= cut]
    cand.extend(float(th) for th, v in zip(p["thetas"], p["hi"]) if v >= cut)
    angles = []
    for th in sorted(cand):
        if not angles or th - angles[-1] >= 1e-7:
            angles.append(th)
    if len(angles) > 1 and angles[0] + 2.0 * math.pi - angles[-1] < 1e-7:
        angles.pop()
    pairs = []
    for th in angles:
        _, V = np.linalg.eigh(linalg._hermitian_rot(T, cmath.exp(1j * th)))
        pairs.append((th % (2.0 * math.pi), np.ascontiguousarray(V[:, -1])))
    return pairs


def _full_enclosure(T, grid):
    _, hi = _sweep_extremes(T, grid)
    lower = float(hi.max())
    rounding = 4.0 * T.shape[0] * np.finfo(float).eps * float(np.linalg.norm(T))
    return (lower, lower / math.cos(math.pi / grid) + rounding)


def _bitwise_cases():
    gen = oracle.generators(8080)
    cases = {f"generic-n{n}": gen.matrix(n) for n in (1, 2, 3, 5, 8, 16, 64)}
    cases["hermitian-n4"] = gen.hermitian(4)
    H = gen.hermitian(5)
    cases["positive-n5"] = H @ H + 0.5 * np.eye(5)
    U = gen.unitary(4)
    cases["normal-tied-n4"] = U @ np.diag([1.0, 1j, -1.0, -1j]) @ U.conj().T
    # the top of W(T) in the middle of the first arc, whose samples fall
    # below a lower eigenvalue's on a sample angle: only the corner bound
    # keeps the arc with the grid maximum
    step = 2.0 * math.pi / 1024
    lam = [cmath.exp(-16j * step), 0.997 * cmath.exp(-320j * step), 0.1]
    V = gen.unitary(3)
    cases["normal-two-peaks-n3"] = V @ np.diag(lam) @ V.conj().T
    cases["square-zero-n3"] = gen.nilpotent_rank_one(3)
    cases["square-zero-n6"] = gen.nilpotent_rank_one(6)
    cases["rotated-identity-n3"] = cmath.exp(1j * math.pi / 1024) * np.eye(3)
    cases["zero-n4"] = np.zeros((4, 4))
    T = gen.matrix(6)
    cases["scaled-1e-8-n6"] = 1e-8 * T
    cases["scaled-1e8-n6"] = 1e8 * T
    return cases


_BITWISE = _bitwise_cases()


@pytest.mark.parametrize("case", sorted(_BITWISE))
def test_pruned_sweep_is_the_full_sweep_bit_for_bit(case):
    T = linalg.as_matrix(_BITWISE[case])
    for grid in (8, 9, 17, 64, 256, 1024):
        want = (0.0, 0.0) if not T.any() else _full_enclosure(T, grid)
        assert radius_enclosure(T, grid) == want
    if not T.any():
        # the zero matrix keeps its fixed answers
        res = numerical_radius(T)
        assert (res.omega, res.theta_star, res.enclosure) == (0.0, 0.0, (0.0, 0.0))
        assert res.maximizer.tolist() == [1.0] + [0.0] * (T.shape[0] - 1)
        assert crawford_number(T) == 0.0
        with pytest.raises(DegenerateMatrixError):
            maximizers(T)
        return
    ref = _full_profile(T)
    res = numerical_radius(T)
    assert res.omega == ref["omega"]
    assert res.theta_star == ref["theta_star"] % (2.0 * math.pi)
    assert res.maximizer.tobytes() == ref["maximizer"].tobytes()
    assert res.enclosure == (ref["omega"], ref["omega"] + ref["lip"] * ref["width"])
    assert crawford_number(T) == _full_crawford(T, ref)
    for tol in (1e-10, 1e-8, 1e-3):
        # maximizers reads the profile refined to tol / 100
        at = _full_profile(T, tol / 100)
        got = maximizers(T, tol)
        want = _full_maximizers(T, at, tol)
        assert got.omega == at["omega"]
        assert [th for th, _ in got] == [th for th, _ in want]
        assert [v.tobytes() for _, v in got] == [v.tobytes() for _, v in want]
    # read last: every peak within 2 ||T|| h of the grid maximum, refined
    assert _profile(T).peaks_above(-math.inf) == ref["peaks"]


@pytest.mark.parametrize("grid", [64, 65, 256, 1024])
def test_arc_bounds_cover_every_unsolved_value(grid):
    # every bound of a sweep lies at or above a sweep 16 times finer over
    # its arc or grid step, so it holds between grid angles too: the open
    # arcs and every step's bound, right after the first solve, after top()
    # and after a partial above(); the Lipschitz floor lies at or below the
    # curve, and top() is the full sweep's maximum bit for bit. The tight
    # cases put W(T) at one point whose support peaks on a grid angle inside
    # an arc, where the wedge bound is that peak itself and only the
    # rounding allowance keeps it above
    gen = oracle.generators(4141)
    mats = [gen.matrix(n) for n in (3, 4, 8, 16)]
    mats += [1e-8 * gen.matrix(5), 1e8 * gen.matrix(5), gen.hermitian(4)]
    mats += [gen.nilpotent_rank_one(3)]
    step = grid // numrange._ARCS
    for k in range(1, step):
        for n, c in ((3, 1.0), (4, 1e-8), (5, 3e8)):
            mats.append(c * cmath.exp(-2j * math.pi * k / grid) * np.eye(n))
    # fine values on grid step k: angles (16 k + j) h / 16 for j = 0..16
    on_step = (16 * np.arange(grid)[:, None] + np.arange(17)) % (16 * grid)
    for T in mats:
        T = linalg.as_matrix(T)
        sweep = numrange._Sweep(T, grid)
        lo, hi = _sweep_extremes(T, grid)
        fine = _sweep_extremes(T, 16 * grid)[1][on_step].max(axis=1)
        m = sweep._m
        for stage in ("first", "top", "above"):
            if stage == "top":
                assert sweep.top().hex() == float(hi.max()).hex()
            elif stage == "above":
                sweep.above(float(np.quantile(hi, 0.75)))
            for s, t, bounds in zip(sweep._s, sweep._t, sweep._side):
                for offset, bound in zip((0, m), bounds):
                    assert fine[np.arange(s, t) + offset].max() <= bound
            assert (fine <= sweep.steps(np.arange(grid))).all()
        assert sweep.floor(linalg.spectral_norm(T)) <= hi.min()
        assert np.array_equal(sweep.full()[1], hi)
        assert np.array_equal(sweep.full()[0], lo)
        assert sweep._s.size == 0
        assert (fine <= sweep.steps(np.arange(grid))).all()


def _count_sweep_solves(monkeypatch) -> list[int]:
    """Record the number of angles of every `numrange._extremes_at` call on
    one matrix: the sweep's own solves. Golden lanes and seeds pass stacks,
    and are not counted."""
    rows = []
    solve = numrange._extremes_at

    def counting(M, thetas):
        if M.ndim == 2:
            rows.append(np.size(thetas))
        return solve(M, thetas)

    monkeypatch.setattr(numrange, "_extremes_at", counting)
    return rows


def test_radius_of_a_generic_n64_matrix_solves_few_angles(monkeypatch):
    # the best-first sweep solves 26-32 of a 1024-angle grid's 512 distinct
    # eigenproblems on these draws; a margin first order in the grid step
    # (||T|| h / 2) would solve 109-202
    rows = _count_sweep_solves(monkeypatch)
    monkeypatch.setattr(numrange, "_PROFILE_CACHE", numrange._LRU(4))
    monkeypatch.setattr(numrange, "_SWEEP_CACHE", numrange._LRU(4))
    gen = oracle.generators(4243)
    for _ in range(3):
        rows.clear()
        numerical_radius(gen.matrix(64))
        assert 0 < sum(rows) <= 64


def test_radius_enclosure_reads_the_cached_sweep(monkeypatch):
    # after numerical_radius, the 256-angle enclosure of a generic n = 64 T
    # finds every angle it needs solved in T's cached 1024-angle sweep, and
    # returns the bits of a call on a cold cache
    rows = _count_sweep_solves(monkeypatch)
    gen = oracle.generators(4243)
    for _ in range(3):
        T = linalg.as_matrix(gen.matrix(64))
        monkeypatch.setattr(numrange, "_PROFILE_CACHE", numrange._LRU(4))
        monkeypatch.setattr(numrange, "_SWEEP_CACHE", numrange._LRU(4))
        cold = [radius_enclosure(T, grid) for grid in (256, 1024)]
        numerical_radius(T)
        rows.clear()
        warm = radius_enclosure(T, 256)
        assert sum(rows) == 0
        assert warm == cold[0]
        assert radius_enclosure(T, 1024) == cold[1]


def test_radius_enclosure_solves_what_the_cached_sweep_lacks(monkeypatch):
    # crawford_number reads T's cached 1024-angle sweep only as far as it
    # needs; when 0 is clearly inside W(T) that is the first samples, so a
    # later enclosure solves the angles its bisection needs beyond them and
    # still returns the bits of a call on a cold cache
    rows = _count_sweep_solves(monkeypatch)
    gen = oracle.generators(4243)
    for n in (3, 8, 64):
        T = linalg.as_matrix(gen.matrix(n))
        for grid in (64, 256):
            monkeypatch.setattr(numrange, "_SWEEP_CACHE", numrange._LRU(4))
            cold = radius_enclosure(T, grid)
            crawford_number(T)
            rows.clear()
            assert radius_enclosure(T, grid) == cold
            assert sum(rows) > 0


def test_crawford_number_reads_only_the_shared_sweep(monkeypatch):
    # a cold call builds T's sweep and norm, and no tol-keyed profile, and
    # returns what the whole-sweep code returns bit for bit
    for case in ("generic-n2", "generic-n3", "hermitian-n4", "positive-n5", "scaled-1e8-n6"):
        T = linalg.as_matrix(_BITWISE[case])
        monkeypatch.setattr(numrange, "_PROFILE_CACHE", numrange._LRU(4))
        monkeypatch.setattr(numrange, "_SWEEP_CACHE", numrange._LRU(4))
        got = crawford_number(T)
        assert numrange._PROFILE_CACHE._data == {}
        assert len(numrange._SWEEP_CACHE._data) == 1
        assert got == _full_crawford(T, _full_profile(T))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_evaluator_is_the_scalar_one_bit_for_bit(n):
    # off the grid, for a stack broadcast against a grid of angles and for
    # one angle per matrix (as the seeds of `_radius_near` call it), every
    # lambda_max is the scalar evaluator's
    gen = oracle.generators(700 + n)
    rng = np.random.default_rng(n)
    Ms = np.stack([linalg._as_unit(gen.matrix(n))[0] for _ in range(10)])
    x = rng.uniform(-7.0, 7.0, size=(10, 40))
    want = [[_scalar_lammax(M)(t) for t in row] for M, row in zip(Ms, x.tolist())]
    assert numrange._extremes_at(Ms[:, None], x)[1].tolist() == want
    owner = np.repeat(np.arange(10), 40)
    assert numrange._extremes_at(Ms[owner], x.ravel())[1].tolist() == sum(want, [])


def _radius_calls(T, c):
    lower, upper = radius_enclosure(c * T, 64)
    return [numerical_radius(c * T, c * 1e-10).omega, crawford_number(c * T, c * 1e-10), lower, upper]


@pytest.mark.parametrize("e", [600, -600])
@pytest.mark.parametrize("base", ["diag-2", "generic-2", "generic-3", "generic-8"])
def test_radius_calls_at_two_to_the_600(base, e):
    # the squares of the 2x2 closed form, ||T||_F in the rounding allowance
    # and LAPACK's own scaling (by a factor that is not a power of two)
    # would act at 2^+-600; the calls divide T by a power of two first, so
    # every n gives c times the c = 1 answers bit for bit, with no
    # RuntimeWarning anywhere (pytest turns it into an error)
    n = int(base[-1])
    T = np.diag([2.0, 0.0]) if base == "diag-2" else oracle.generators(5).matrix(n)
    T = linalg.as_matrix(T)
    c = 2.0**e
    assert _radius_calls(T, c) == [c * x for x in _radius_calls(T, 1.0)]


def test_scalar_2x2_evaluator_is_the_sweep_bit_for_bit():
    # the scalar closed form and the batched sweep take the same formula
    # (`linalg._eig2`) of the same real products (`linalg._eig2_rot`), so
    # they agree at every grid angle
    gen = oracle.generators(5)
    thetas = (np.arange(1024) * (2.0 * math.pi / 1024)).tolist()
    for _ in range(20):
        T = linalg.as_matrix(gen.matrix(2))
        f = _scalar_lammax(T)
        assert [f(t) for t in thetas] == _sweep_extremes(T, 1024)[1].tolist()
    # at n = 3 both take `linalg._eig3_rot` of the same real products,
    # LAPACK on the lanes its guard picks; the sweep solves the half grid
    # below pi and negates the other half (H_{theta+pi} = -H_theta), so they
    # agree at every angle it solves. A Hermitian T with a double eigenvalue
    # and diag(1, 1, i) send all their angles but one to LAPACK (at pi / 2
    # the former's H_theta is rounding noise, at 3 pi / 4 the latter's is
    # scalar); the square-zero ones send none
    cases = [gen.matrix(3) for _ in range(10)] + [gen.nilpotent_rank_one(3) for _ in range(5)]
    U = gen.unitary(3)
    cases += [U @ np.diag([1.0, 1.0, -0.5]) @ U.conj().T, np.diag([1.0, 1.0, 1j])]
    for T in cases:
        T = linalg._as_unit(T)[0]
        f = _scalar_lammax(T)
        assert [f(t) for t in thetas[:512]] == _sweep_extremes(T, 1024)[1][:512].tolist()


def test_lazy_sweep_is_thread_safe_and_hands_out_fixed_arrays(monkeypatch):
    # four threads read one cached profile at different levels while it is
    # solved lazily, and a fifth builds the profile of another tol on the
    # same sweep: each must see the full sweep's values wherever they reach
    # its level, and no array once handed out may change
    T = linalg.as_matrix(oracle.generators(909).matrix(12))
    lo_ref, hi_ref = _sweep_extremes(T, 1024)
    omega = _full_profile(T)["omega"]
    monkeypatch.setattr(numrange, "_SWEEP_CACHE", numrange._LRU(4))
    rel_peaks = _profile(T, None).peaks_above(-math.inf)
    # None: the whole curves; "rel": the profile with tol=None
    levels = [omega, omega - 1e-3, -math.inf, None, "rel"]
    handed, errors, wrong = [], [], []

    def work(i, p, barrier):
        try:
            barrier.wait(timeout=30)
            level = levels[i]
            if level is None:
                got = list(zip(p.sweep.full(), (lo_ref, hi_ref)))
            elif level == "rel":
                q = _profile(T, None)
                if q.sweep is not p.sweep or q.peaks_above(-math.inf) != rel_peaks:
                    wrong.append(i)
                got = []
            else:
                hi = p.sweep.above(level)
                keep = hi_ref >= level
                if not (hi[~keep] < level).all():
                    wrong.append(i)
                got = [(hi[keep], hi_ref[keep])]
            for a, ref in got:
                if a.tobytes() != ref.tobytes():
                    wrong.append(i)
            handed.extend((a, a.copy()) for a in (p.sweep.hi, p.sweep.lo, p.sweep.full()[1]))
        except Exception as exc:
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            monkeypatch.setattr(numrange, "_PROFILE_CACHE", numrange._LRU(4))
            monkeypatch.setattr(numrange, "_SWEEP_CACHE", numrange._LRU(4))
            p = _profile(T)
            barrier = threading.Barrier(len(levels))
            threads = [
                threading.Thread(target=work, args=(i, p, barrier)) for i in range(len(levels))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert errors == []
    assert wrong == []
    for a, snapshot in handed:
        assert not a.flags.writeable
        assert a.tobytes() == snapshot.tobytes()
    with pytest.raises(ValueError):
        p.sweep.full()[1][0] = 0.0
    with pytest.raises(ValueError):
        p.sweep.full()[0][0] = 0.0


@pytest.mark.parametrize(
    "call",
    [numerical_radius, crawford_number, maximizers],
    ids=["numerical_radius", "crawford_number", "maximizers"],
)
@pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-8])
def test_tolerance_must_be_positive_and_finite(call, tol):
    with pytest.raises(ValueError, match="tol"):
        call(np.eye(2), tol)


def test_grid_and_count_must_be_integers():
    T = oracle.generators(20).matrix(3)
    with pytest.raises(ValueError, match="at least 8"):
        radius_enclosure(T, 7)
    with pytest.raises(TypeError):
        radius_enclosure(T, 8.9)
    with pytest.raises(TypeError):
        boundary_points(T, 4.5)
    assert radius_enclosure(T, np.int64(64)) == radius_enclosure(T, 64)
    assert len(boundary_points(T, np.int32(5))) == 5
