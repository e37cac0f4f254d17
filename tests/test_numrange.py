"""Numerical range machinery: radius, Crawford number, boundary, maximizers."""

import cmath
import math
import sys
import threading
import time

import numpy as np
import pytest

from numradius import linalg, numrange, oracle
from numradius.numrange import (
    DegenerateMatrixError,
    _sweep_extremes,
    boundary_points,
    _cyclic_local_max_groups,
    _golden_max,
    _lammax_fn,
    _profile,
    _refine_peaks,
    _true_runs,
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


@pytest.mark.parametrize("count", [7, 8, 63, 64])
def test_boundary_points_match_per_angle_eigh(count):
    gen = oracle.generators(77)
    for n in (2, 5):
        T = gen.matrix(n)
        pts = boundary_points(T, count)
        assert len(pts) == count
        for k, H in enumerate(_per_angle_hermitian(T, count)):
            w, V = np.linalg.eigh(H)
            x = V[:, -1]
            ref = complex(np.vdot(x, T @ x))
            assert abs(pts[k] - ref) <= 1e-10
            # the support function: Re(e^{i theta} p) = lambda_max(H_theta)
            assert abs((cmath.exp(2j * math.pi * k / count) * pts[k]).real - w[-1]) <= 1e-12


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


# --- lockstep golden refinement ----------------------------------------------


def _scalar_refine(Ms, owner, a, b, width, seeds):
    return [
        _golden_max(_lammax_fn(Ms[k]), lo, hi, width, seed)
        for k, lo, hi, seed in zip(owner, a, b, seeds)
    ]


@pytest.mark.parametrize("n", [3, 4, 8])
def test_lockstep_golden_matches_scalar_search_bitwise(n):
    gen = oracle.generators(600 + n)
    Ms = np.stack([linalg.as_matrix(gen.matrix(n)) for _ in range(3)])
    rng = np.random.default_rng(n)
    owner, a, b, seeds = [], [], [], []
    # bracket widths from below the stopping width up to 0.3, one matrix
    # per lane in turn; some seeds beat every golden point, others lose
    for i, span in enumerate([1e-9, 5e-8, 1e-7, 3e-4, 0.006, 0.02, 0.1, 0.3] * 3):
        lo = float(rng.uniform(0.0, 6.0))
        x0 = lo + 0.5 * span
        f0 = _lammax_fn(Ms[i % 3])(x0) + (1.0 if i % 4 == 0 else -1.0)
        owner.append(i % 3)
        a.append(lo)
        b.append(lo + span)
        seeds.append((x0, f0))
    for width in (1e-7, 1e-10, 0.0):  # 0.0: every open lane hits the step cap
        got = _refine_peaks(Ms, owner, a, b, width, seeds)
        assert got == _scalar_refine(Ms, owner, a, b, width, seeds)
        assert all(type(x) is float and type(v) is float for x, v in got)


@pytest.mark.parametrize("n", [2, 3])
def test_profile_peaks_match_scalar_refinement(n):
    # a generic T and a normal T with n unit-modulus eigenvalues (n peaks,
    # refined in lockstep for n >= 3): every kept grid peak is refined
    # exactly as a scalar golden search refines it
    gen = oracle.generators(515)
    U = gen.unitary(n)
    phases = np.exp(1j * np.array([0.3, 2.5, 4.4][:n]))
    for T in (gen.matrix(n), U @ np.diag(phases) @ U.conj().T):
        T = linalg.as_matrix(T)
        p = _profile(T)
        lo, hi = _sweep_extremes(T, 1024)
        h = 2.0 * math.pi / 1024
        keep = float(hi.max()) - 2.0 * p.lip * h
        f = _lammax_fn(T)
        ref = []
        for s, e in _cyclic_local_max_groups(hi):
            gv = float(hi[s % 1024])
            if gv >= keep:
                seed = (0.5 * (s + e) * h, gv)
                x, v = _golden_max(f, (s - 1) * h, (e + 1) * h, 1e-10 / p.lip, seed)
                ref.append((x % (2.0 * math.pi), v))
        assert p.peaks == sorted(ref)
    assert len(ref) == n


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
    assert len(p.peaks) == 1
    assert p.peaks[0][0] in p.thetas
    assert abs(p.omega - 0.5 * norm) <= 1e-15 * norm
    assert len(_cyclic_local_max_groups(p.hi)) > 1


def test_run_finder_merges_the_wrap_and_finds_local_maxima():
    mask = np.array([1, 1, 0, 1, 0, 0, 1, 1], dtype=bool)
    assert _true_runs(mask) == [(-2, 1), (3, 3)]
    assert _true_runs(np.ones(5, dtype=bool)) == [(0, 4)]
    assert _true_runs(np.zeros(5, dtype=bool)) == []
    vals = np.array([3.0, 1.0, 2.0, 2.0, 0.0, 3.0])
    assert _cyclic_local_max_groups(vals) == [(-1, 0), (2, 3)]
    assert _cyclic_local_max_groups(np.ones(4)) == [(0, 3)]


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
    lip = numrange._eig.spectral_norm_fast(T)
    h = 2.0 * math.pi / grid
    omega_grid = float(hi.max())
    keep = omega_grid - 2.0 * lip * h
    width_target = tol / max(lip, 1e-300)
    peaks, brackets = [], []
    if omega_grid - float(hi.min()) <= numrange._FLAT * T.shape[0] * lip:
        peaks.append((thetas[int(np.argmax(hi))], omega_grid))
    else:
        for s, e in _cyclic_local_max_groups(hi):
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
    for s, e in _cyclic_local_max_groups(lo):
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
        got = maximizers(T, tol)
        want = _full_maximizers(T, ref, tol)
        assert got.omega == ref["omega"]
        assert [th for th, _ in got] == [th for th, _ in want]
        assert [v.tobytes() for _, v in got] == [v.tobytes() for _, v in want]
    # read last: every peak within 2 ||T|| h of the grid maximum, refined
    assert _profile(T).peaks == ref["peaks"]


@pytest.mark.parametrize("grid", [64, 256, 1024])
def test_arc_bounds_cover_every_unsolved_value(grid):
    # each arc's corner bound lies at or above every grid value on it, and
    # the Lipschitz floor at or below; the tight cases put W(T) at one point
    # whose support peaks on a grid angle inside an arc, where the corner is
    # that peak itself and only the rounding allowance keeps it above
    gen = oracle.generators(4141)
    mats = [gen.matrix(n) for n in (3, 4, 8, 16)]
    mats += [1e-8 * gen.matrix(5), 1e8 * gen.matrix(5), gen.hermitian(4)]
    mats += [gen.nilpotent_rank_one(3)]
    step = grid // numrange._ARCS
    for k in range(1, step):
        for n, c in ((3, 1.0), (4, 1e-8), (5, 3e8)):
            mats.append(c * cmath.exp(-2j * math.pi * k / grid) * np.eye(n))
    for T in mats:
        T = linalg.as_matrix(T)
        sweep = numrange._Sweep(T, grid)
        lo, hi = _sweep_extremes(T, grid)
        ends = sweep._ends
        m = ends[-1]
        for q, (s, t) in enumerate(zip(ends[:-1], ends[1:])):
            inner = np.r_[np.arange(s + 1, t), np.arange(s + 1, t) + m]
            assert hi[inner].max(initial=-math.inf) <= sweep.bound[q]
        assert sweep.floor(linalg.spectral_norm(T)) <= hi.min()
        assert np.array_equal(sweep.full()[1], hi)
        assert np.array_equal(sweep.full()[0], lo)


def test_lazy_sweep_is_thread_safe_and_hands_out_fixed_arrays(monkeypatch):
    # four threads read one cached profile at different levels while it is
    # solved lazily: each must see the full sweep's values wherever they
    # reach its level, and no array once handed out may change
    T = linalg.as_matrix(oracle.generators(909).matrix(12))
    lo_ref, hi_ref = _sweep_extremes(T, 1024)
    omega = _full_profile(T)["omega"]
    levels = [omega, omega - 1e-3, -math.inf, None]  # None: p.lo and p.hi
    handed, errors, wrong = [], [], []

    def work(i, p, barrier):
        try:
            barrier.wait(timeout=30)
            level = levels[i]
            if level is None:
                got = [(p.lo, lo_ref), (p.hi, hi_ref)]
            else:
                hi = p.sweep.above(level)
                keep = hi_ref >= level
                if not (hi[~keep] < level).all():
                    wrong.append(i)
                got = [(hi[keep], hi_ref[keep])]
            for a, ref in got:
                if a.tobytes() != ref.tobytes():
                    wrong.append(i)
            handed.extend((a, a.copy()) for a in (p.sweep.hi, p.sweep.lo, p.hi))
        except Exception as exc:
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            monkeypatch.setattr(numrange, "_PROFILE_CACHE", numrange._LRU(4))
            p = _profile(T)
            barrier = threading.Barrier(4)
            threads = [threading.Thread(target=work, args=(i, p, barrier)) for i in range(4)]
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
        p.hi[0] = 0.0
    with pytest.raises(ValueError):
        p.lo[0] = 0.0


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
    with pytest.raises(TypeError):
        radius_enclosure(T, 8.9)
    with pytest.raises(TypeError):
        boundary_points(T, 4.5)
    assert radius_enclosure(T, np.int64(64)) == radius_enclosure(T, 64)
    assert len(boundary_points(T, np.int32(5))) == 5
