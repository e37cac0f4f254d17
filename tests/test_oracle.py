"""Brute-force references: generators, sampling bound, ellipse, direct scan."""

import ast
import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from numradius import numrange, oracle
from numradius.linalg import DimensionError
from numradius.oracle import (
    direct_lambda_scan,
    ellipse_radius_2x2,
    generators,
    sample_radius_lower,
)

T22 = np.array([[1j, 0], [0, 0]], dtype=complex)
S22 = np.array([[0, 1], [0, -1]], dtype=complex)
T25 = np.array([[2, 0], [0, 0]], dtype=complex)
S25 = np.array([[1, 1], [0, 1]], dtype=complex)


def _omega(M):
    return numrange.numerical_radius(M).omega


# --- instance generators -------------------------------------------------------


def test_generator_same_seed_is_bit_exact():
    a = generators(1234)
    b = generators(1234)
    for n in (2, 3, 5):
        assert np.array_equal(a.matrix(n), b.matrix(n))
        assert np.array_equal(a.hermitian(n), b.hermitian(n))
        assert np.array_equal(a.unitary(n), b.unitary(n))
        assert np.array_equal(a.positive(n, unit_norm=True), b.positive(n, unit_norm=True))
        assert np.array_equal(a.unit_vector(n), b.unit_vector(n))
        assert np.array_equal(a.nilpotent_rank_one(n), b.nilpotent_rank_one(n))


def test_generator_different_seeds_differ():
    assert not np.array_equal(generators(1).matrix(3), generators(2).matrix(3))


def test_generator_stream_invariants():
    gen = generators(77)
    for n in (2, 3, 4, 6):
        H = gen.hermitian(n)
        assert np.array_equal(H, H.conj().T)  # exactly Hermitian, not just close

        U = gen.unitary(n)
        assert np.linalg.norm(U.conj().T @ U - np.eye(n)) <= 1e-10

        P = gen.positive(n, unit_norm=True)
        ev = np.linalg.eigvalsh(P)
        assert ev[0] >= -1e-12
        assert abs(ev[-1] - 1.0) <= 1e-12

        v = gen.unit_vector(n)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

        N = gen.nilpotent_rank_one(n)
        assert np.linalg.norm(N @ N) <= 1e-12
        assert np.linalg.matrix_rank(N) == 1


def test_nilpotent_needs_two_dims():
    with pytest.raises(ValueError):
        generators(5).nilpotent_rank_one(1)


# --- Monte Carlo lower bound ---------------------------------------------------


def test_sampling_bound_identity_and_zero():
    # every unit vector attains |<x, x>| = 1, so one sample suffices
    assert sample_radius_lower(np.eye(3), 1, seed=0) == pytest.approx(1.0, abs=1e-12)
    assert sample_radius_lower(np.zeros((2, 2)), 100, seed=0) == 0.0


def test_sampling_bound_is_deterministic():
    a = sample_radius_lower(S25, 5000, seed=99)
    b = sample_radius_lower(S25, 5000, seed=99)
    assert a == b


def test_sampling_bound_never_exceeds_radius():
    gen = generators(301)
    for k in range(20):
        n = 2 + k % 4
        T = gen.matrix(n)
        lower = sample_radius_lower(T, 2000, seed=1000 + k)
        assert lower <= _omega(T) + 1e-12


def test_sampling_bound_approaches_radius_for_2x2():
    w = (1.0 + math.sqrt(2.0)) / 2.0
    lower = sample_radius_lower(S22, 100_000, seed=7)
    assert lower <= w + 1e-12
    assert lower >= w - 0.02


# --- elliptical range reference --------------------------------------------------


def test_ellipse_pinned_values():
    cases = [
        (np.array([[0, 1], [0, 0]]), 0.5),  # disk of radius 1/2
        (S22, (1.0 + math.sqrt(2.0)) / 2.0),
        (np.array([[1, 1], [0, -1]]), math.sqrt(5.0) / 2.0),
        (T22, 1.0),  # segment from 0 to i
        (np.diag([2.0, 1.0]), 2.0),  # degenerate ellipse: two points
        (np.array([[1, 1], [0, 1]]), 1.5),
    ]
    for M, expected in cases:
        assert ellipse_radius_2x2(M) == pytest.approx(expected, abs=1e-9)


def test_ellipse_agrees_with_radius_on_randoms():
    gen = generators(302)
    for _ in range(40):
        T = gen.matrix(2)
        assert abs(ellipse_radius_2x2(T) - _omega(T)) <= 1e-8


def test_ellipse_rejects_wrong_shape():
    with pytest.raises(DimensionError):
        ellipse_radius_2x2(np.eye(3))


# --- direct polar-grid scan ------------------------------------------------------


def test_scan_orthogonal_pair_stays_nonnegative():
    margin, _ = direct_lambda_scan(T22, S22, 0.0, grid_r=16, grid_theta=32)
    assert margin >= -1e-9


def test_scan_self_pair_finds_violation():
    # F(-r) = omega^2 r (r - 2 + 2 eps), deepest at r = 1 - eps on the
    # negative real axis
    margin, lam = direct_lambda_scan(T25, T25, 0.5, grid_r=16, grid_theta=32)
    assert margin == pytest.approx(-1.0, abs=1e-9)
    assert abs(lam + 0.5) < 1e-9


def test_scan_worked_pair_not_orthogonal_at_zero():
    margin, _ = direct_lambda_scan(T25, S25, 0.0, grid_r=16, grid_theta=32)
    assert margin < -1e-3


def test_scan_zero_direction_short_circuits():
    margin, lam = direct_lambda_scan(T25, np.zeros((2, 2)), 0.3)
    assert margin == 0.0
    assert lam == 0j


def test_scan_rejects_mismatched_sizes():
    with pytest.raises(DimensionError, match="share a dimension, got 2 and 3"):
        direct_lambda_scan(T22, np.eye(3), 0.0, grid_r=16, grid_theta=16)


def test_scan_rejects_small_grids():
    with pytest.raises(ValueError):
        direct_lambda_scan(T22, S22, 0.0, grid_r=8)
    with pytest.raises(ValueError):
        direct_lambda_scan(T22, S22, 0.0, grid_theta=15)


def _scan_reference(T, S, epsilons, grid_r, grid_theta):
    """Unhalved scan: each lambda solves all 1024 angles on its own."""
    phis = np.arange(1024) * (2.0 * math.pi / 1024)

    def omega(M):
        E = np.exp(1j * phis)[:, None, None] * M[None, :, :]
        H = 0.5 * (E + np.conj(np.swapaxes(E, 1, 2)))
        return float(np.linalg.eigvalsh(H)[:, -1].max())

    wT, wS = omega(T), omega(S)
    r_hi = 2.0 * wT / wS
    points = []
    for i in range(1, grid_r + 1):
        r = r_hi * i / grid_r
        for j in range(grid_theta):
            lam = r * cmath.exp(2j * math.pi * j / grid_theta)
            points.append((r, lam, omega(T + lam * S)))
    out = []
    for eps in epsilons:
        best, best_lam = math.inf, 0j
        for r, lam, w in points:
            margin = w * w - wT * wT + 2.0 * eps * r * wT * wS
            if margin < best:
                best, best_lam = margin, lam
        out.append((best, best_lam, wT))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("grid", [(16, 16), (17, 19)])
def test_half_sweep_scan_matches_full_sweep_reference(n, grid):
    gen = generators(700 + n)
    T = gen.matrix(n)
    S = gen.matrix(n)
    ref = _scan_reference(T, S, (0.0, 0.5), *grid)
    for eps, (ref_margin, ref_lam, wT) in zip((0.0, 0.5), ref):
        margin, lam = direct_lambda_scan(T, S, eps, grid_r=grid[0], grid_theta=grid[1])
        assert abs(margin - ref_margin) <= 1e-12 * max(1.0, wT * wT)
        # the same grid point; lambda carries the last-digit rounding of
        # omega(T) / omega(S), far below the grid spacing
        assert abs(lam - ref_lam) <= 1e-12 * abs(ref_lam)


def _unpruned_grid_omega(Ms, phis):
    E = np.exp(1j * phis)[None, :, None, None] * Ms[:, None, :, :]
    H = 0.5 * (E + np.conj(np.swapaxes(E, -1, -2)))
    if Ms.shape[-1] == 2:
        d0 = H[..., 0, 0].real
        d1 = H[..., 1, 1].real
        b = H[..., 0, 1]
        mid = 0.5 * (d0 + d1)
        rad = np.sqrt(0.25 * (d0 - d1) ** 2 + b.real**2 + b.imag**2)
        hi, lo = mid + rad, mid - rad
    else:
        w = np.linalg.eigvalsh(H)
        hi, lo = w[..., -1], w[..., 0]
    return np.maximum(hi, -lo).max(axis=1)


def _unpruned_scan(T, S, epsilons, grid_r, grid_theta):
    """Reference scan without pruning: every lambda gets the 1024-angle sweep.

    The floating operations of ``direct_lambda_scan``, with the radii
    shared by all epsilons; returns one (margin, lambda) per epsilon.
    """
    phis = np.arange(1024 // 2) * (2.0 * math.pi / 1024)
    wT, wS = (float(w) for w in _unpruned_grid_omega(np.stack((T, S)), phis))
    r_hi = 2.0 * wT / wS if wT > 0.0 else 1.0
    rs = np.repeat([r_hi * i / grid_r for i in range(1, grid_r + 1)], grid_theta)
    units = [cmath.exp(1j * 2.0 * math.pi * j / grid_theta) for j in range(grid_theta)]
    lams = rs * np.tile(units, grid_r)
    per_call = max(1, (1 << 19) // (phis.size * T.nbytes))
    w = np.concatenate(
        [
            _unpruned_grid_omega(T[None] + chunk[:, None, None] * S[None], phis)
            for chunk in np.split(lams, range(per_call, lams.size, per_call))
        ]
    )
    out = []
    for eps in epsilons:
        margins = w * w - wT * wT + 2.0 * eps * rs * wT * wS
        k = int(np.argmin(margins))
        out.append((float(margins[k]), complex(lams[k])))
    return out


def _pruning_cases():
    gen = generators(7100)
    for n in (1, 2, 3, 5):
        T, S = gen.matrix(n), gen.matrix(n)
        for grid in ((16, 16), (17, 19), (96, 32)):
            yield pytest.param(T, S, grid, id=f"generic-n{n}-{grid[0]}x{grid[1]}")
    S = gen.matrix(3)
    half = cmath.exp(1j * math.pi / 32) * np.eye(3)
    edges = {
        # every lambda on the first ring gives omega = r_1 omega(S) up to rounding
        "zero-T": (np.zeros((3, 3), dtype=complex), S),
        # omega(T + lambda S) = 0 at lambda = -1
        "S-equals-T": (S, S.copy()),
        "hermitian-T": (gen.hermitian(3), gen.matrix(3)),
        # the range of T + lambda S is one point, of argument pi/32 plus that
        # of 1 + lambda: for real lambda it is one of the 16-step tier's
        # angles, where lo is omega itself
        "rotated-identity": (half, half.copy()),
        "rotated-identity-generic-S": (half, gen.matrix(3)),
    }
    for name, (T, S) in edges.items():
        for grid in ((16, 16), (17, 19)):
            yield pytest.param(T, S, grid, id=f"{name}-{grid[0]}x{grid[1]}")
    T, S = gen.matrix(4), gen.matrix(4)
    for grid in ((16, 32), (32, 64)):
        yield pytest.param(T, S, grid, id=f"generic-n4-{grid[0]}x{grid[1]}")
    for step in oracle._PRUNE_STEPS:
        # for real lambda the point sits halfway between the angles of this
        # tier, where lo / cos(pi step / 1024) is omega itself
        T = cmath.exp(1j * math.pi * step / 1024) * np.eye(3)
        yield pytest.param(T, T.copy(), (16, 16), id=f"rotated-identity-step{step}")
    # T = 0 and a scalar S: every lambda on the first ring ties in margin up
    # to rounding. Some of their points sit on the 64-step tier's angles, so
    # lo is their value; others sit halfway between them, where
    # lo / cos(pi 64 / 1024) is their value up to rounding. On these rings
    # the bound of one halfway point rounds below the first minimum's value,
    # and only the rounding allowance keeps that minimum (found by a search
    # over c, n and the grid)
    for n, c, quarter, grid in ((1, 0.16604682930598605, 1, (38, 64)),
                                (2, 0.10592846105366001, 3, (31, 32))):
        S = c * cmath.exp(1j * math.pi * (0.25 + 0.5 * quarter)) * np.eye(n)
        yield pytest.param(np.zeros((n, n), dtype=complex), S, grid, id=f"zero-T-tie-n{n}")
    # With S = T, T + lambda S is 0 at lambda = -1, and at eps = 1 / grid_r
    # the margin there ties that of lambda = 2 / grid_r - 1 up to rounding.
    # The rounding allowance vanishes in the margin at lambda = -1, so the
    # seed's upper margin, taken there, is the tie's value, and a lower
    # bound at 2 / grid_r - 1 one rounding above its grid radius prunes the
    # first minimum. The range of e^{i pi / 1024} I is one point halfway
    # between two scan angles: its grid radius is cos(pi / 1024), while
    # every Rayleigh quotient has modulus 1.
    T = cmath.exp(1j * math.pi / 1024) * np.eye(3)
    yield pytest.param(T, T.copy(), (16, 16), id="halfway-identity-tie")
    # a normal T with the same top eigenvalue, where the bound without the
    # rounding allowance rounds above the grid radius at 2 / grid_r - 1
    # (found by a search over the seed)
    gen = generators(30)
    U = gen.unitary(3)
    d = np.concatenate(([cmath.exp(1j * math.pi / 1024)], 0.45 * gen.unit_vector(2)))
    T = U @ np.diag(d) @ np.conj(U.T)
    yield pytest.param(T, T.copy(), (16, 16), id="halfway-normal-tie")


@pytest.mark.parametrize("T, S, grid", list(_pruning_cases()))
def test_pruned_scan_is_the_unpruned_scan_bit_for_bit(T, S, grid):
    # 1 / grid_r makes the S = T cases tie (see ``_pruning_cases``)
    epsilons = (0.0, 1.0 / grid[0], 0.5, 0.98)
    for eps, ref in zip(epsilons, _unpruned_scan(T, S, epsilons, *grid)):
        assert direct_lambda_scan(T, S, eps, *grid) == ref, eps


def _bound_bases(gen, n):
    """Bases for the Rayleigh bound: generic, Hermitian, square-zero, zero, normal."""
    yield "generic", gen.matrix(n)
    yield "hermitian", gen.hermitian(n)
    if n > 1:
        yield "square-zero", gen.nilpotent_rank_one(n)
    yield "zero", np.zeros((n, n), dtype=complex)
    # eigenvalues halfway between scan angles, where the bound is tightest
    k = 2 * np.arange(n) * 97 % 1024 + 1
    d = np.linspace(1.0, 0.4, n) * np.exp(1j * math.pi * k / 1024)
    U = gen.unitary(n)
    yield "normal-halfway", U @ np.diag(d) @ np.conj(U.T)


@pytest.mark.parametrize("n", range(1, 7))
def test_rayleigh_lower_bound_never_exceeds_the_grid_radius(n):
    gen = generators(7300 + n)
    phis = np.arange(512) * (2.0 * math.pi / 1024)
    for name, T in _bound_bases(gen, n):
        for S in (gen.matrix(n), T.copy()):
            TS = np.stack((T, S))
            X = oracle._support_vectors(TS, phis, *oracle._grid_extremes(TS, phis))
            # and any unit vectors: the bound holds for every one
            Z = gen.matrix(n)
            Z /= np.linalg.norm(Z, axis=1)[:, None]
            rs = np.repeat(np.geomspace(1e-3, 4.0, 8), 8)
            lams = rs * np.exp(2j * math.pi * np.tile(np.arange(8), 8) / 8)
            lams = np.concatenate((lams, [-1.0, -0.5, 1j]))
            rs = np.abs(lams)
            slack = 1e-12 * (np.linalg.norm(T) + rs * np.linalg.norm(S))
            omegas = oracle._scan_omegas(T, S, lams, phis)
            for V in (X, Z):
                lower = oracle._rayleigh_lower(T, S, V, lams, slack)
                assert (lower >= 0.0).all()
                assert (lower <= omegas).all(), (name, lams[lower > omegas])


def test_tiered_pruning_halves_the_scan_work(monkeypatch):
    # matrix-angle eigenproblems solved by the scan's sweeps of T + lambda S;
    # the tiers alone, with every lambda entering the first, solved 3,896
    # on this pair
    gen = generators(7101)
    T, S = gen.matrix(4), gen.matrix(4)
    solved = 0
    scan_omegas = oracle._scan_omegas

    def counted(T, S, lams, phis):
        nonlocal solved
        solved += lams.size * phis.size
        return scan_omegas(T, S, lams, phis)

    monkeypatch.setattr(oracle, "_scan_omegas", counted)
    assert direct_lambda_scan(T, S, 0.5, 16, 32) == _unpruned_scan(T, S, (0.5,), 16, 32)[0]
    assert 2 * solved <= 3896, solved


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -0.1, 1.0, 3.0])
def test_scan_rejects_epsilon_outside_unit_interval(eps):
    with pytest.raises(ValueError, match="epsilon"):
        direct_lambda_scan(T22, S22, eps, grid_r=16, grid_theta=32)


def test_oracle_imports_nothing_it_checks():
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(part for a in node.names for part in a.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(a.name for a in node.names)
    assert not imported & {"numrange", "_eig", "wderiv"}


def test_scan_sign_matches_deciders_off_boundary():
    from numradius.wderiv import is_omega_orthogonal, min_epsilon

    gen = generators(303)
    checked = 0
    for k in range(12):
        T = gen.matrix(2)
        S = gen.matrix(2)
        estar = min_epsilon(T, S)
        for eps, grid_r in ((estar - 0.35, 96), (estar + 0.35, 16)):
            # the sampled minimum can only sit above the true one, so the
            # orthogonal side agrees at any resolution; violations hide in
            # a thin radius range near zero and need the fine radial grid
            if not 0.0 <= eps < 1.0:
                continue
            margin, _ = direct_lambda_scan(T, S, eps, grid_r=grid_r, grid_theta=32)
            verdict = margin >= -1e-9
            assert verdict == is_omega_orthogonal(T, S, eps, method="derivative").orthogonal
            assert verdict == is_omega_orthogonal(T, S, eps, method="direct").orthogonal
            checked += 1
    assert checked >= 12
