"""Core dense-matrix helpers: validation, Hermitian parts, eigcomputations."""

import math

import numpy as np
import pytest

from numradius import linalg, oracle
from numradius.oracle import jacobi_eigh
from numradius.linalg import (
    DimensionError,
    MatrixError,
    NonHermitianError,
    adjoint,
    as_matrix,
    hermitian_part,
    herm_eig_max,
    rank_one,
    spectral_norm,
)

RNG = np.random.default_rng(20240817)


def _cmat(n):
    z = RNG.standard_normal((2, n, n))
    return (z[0] + 1j * z[1]) / math.sqrt(2.0)


class TestAsMatrix:
    def test_accepts_nested_lists(self):
        A = as_matrix([[1, 2j], [0, -1]])
        assert A.dtype == np.complex128
        assert A.shape == (2, 2)
        assert A[0, 1] == 2j

    def test_scalar_promotes_to_1x1(self):
        A = as_matrix(3.0 - 1j)
        assert A.shape == (1, 1)

    def test_result_is_read_only(self):
        A = as_matrix(np.eye(2))
        with pytest.raises((ValueError, RuntimeError)):
            A[0, 0] = 5.0

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            as_matrix(np.zeros((2, 3)))

    def test_rejects_vector(self):
        with pytest.raises(DimensionError):
            as_matrix([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            as_matrix(np.zeros((0, 0)))

    def test_rejects_oversize(self):
        with pytest.raises(DimensionError):
            as_matrix(np.eye(65))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(MatrixError):
            as_matrix([[np.nan, 0], [0, 0]])
        with pytest.raises(MatrixError):
            as_matrix([[0, 1j * np.inf], [0, 0]])


def test_adjoint_is_involution():
    A = _cmat(5)
    assert np.array_equal(adjoint(adjoint(A)), as_matrix(A))


def test_hermitian_part_is_exactly_hermitian():
    for n in (2, 3, 6):
        A = _cmat(n)
        for theta in (0.0, 0.7, 2.0, -1.3):
            H = hermitian_part(A, theta)
            assert np.array_equal(H, np.conj(H.T))


def test_hermitian_part_quadratic_form_identity():
    # <H_theta x, x> = Re(e^{i theta} <T x, x>)
    A = _cmat(4)
    for theta in (0.0, 1.1, 4.4):
        H = hermitian_part(A, theta)
        for _ in range(5):
            x = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
            lhs = np.vdot(x, H @ x).real
            rhs = (np.exp(1j * theta) * np.vdot(x, A @ x)).real
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("n", [2, 3])
def test_hermitian_part_rejects_non_finite_theta(theta, n):
    with pytest.raises(ValueError):
        hermitian_part(_cmat(n), theta)


def test_hermitian_part_antipodal_angles_negate():
    A = _cmat(3)
    H0 = hermitian_part(A, 0.9)
    H1 = hermitian_part(A, 0.9 + math.pi)
    assert np.abs(H0 + H1).max() < 1e-15


class TestHermEigMax:
    def test_known_2x2(self):
        lam, v = herm_eig_max([[2.0, 1.0], [1.0, 2.0]])
        assert abs(lam - 3.0) < 1e-12
        assert abs(abs(np.vdot(v, np.array([1, 1]) / math.sqrt(2))) - 1.0) < 1e-10

    def test_eigenpair_residual(self):
        for n in (2, 4, 7):
            A = _cmat(n)
            H = 0.5 * (A + np.conj(A.T))
            lam, v = herm_eig_max(H)
            assert np.linalg.norm(H @ v - lam * v) < 1e-10 * max(1.0, abs(lam))
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_matches_numpy(self):
        for n in (3, 5, 8):
            A = _cmat(n)
            H = 0.5 * (A + np.conj(A.T))
            lam, _ = herm_eig_max(H)
            assert abs(lam - np.linalg.eigvalsh(H)[-1]) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            herm_eig_max([[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
    def test_hermitian_check_is_relative(self, c):
        # the asymmetry of c [[1,1],[0,1]] is all of it, at any scale; a
        # rounding-level asymmetry passes at any scale
        with pytest.raises(NonHermitianError):
            herm_eig_max(c * np.array([[1.0, 1.0], [0.0, 1.0]]))
        A = _cmat(4)
        H = c * (0.5 * (A + np.conj(A.T)))
        H[0, 1] *= 1.0 + 4.0 * np.finfo(float).eps
        lam, _ = herm_eig_max(H)
        assert abs(lam - np.linalg.eigvalsh(H)[-1]) <= 1e-12 * c


def test_jacobi_full_spectrum_matches_numpy():
    for n in (2, 3, 6):
        A = _cmat(n)
        H = 0.5 * (A + np.conj(A.T))
        w, V = jacobi_eigh(H)
        assert np.allclose(w, np.linalg.eigvalsh(H), atol=1e-10)
        # columns are an orthonormal eigenbasis
        assert np.abs(np.conj(V.T) @ V - np.eye(n)).max() < 1e-10
        assert np.abs(H @ V - V @ np.diag(w)).max() < 1e-9


def test_jacobi_spectral_norm_matches_public_at_max_dim():
    A = oracle.generators(64).matrix(linalg.MAX_DIM)
    w, _ = jacobi_eigh(np.conj(A.T) @ A)
    nrm = spectral_norm(A)
    assert abs(math.sqrt(w[-1]) - nrm) < 1e-12 * nrm


def test_spectral_norm_matches_svd():
    for n in (2, 3, 5, 8):
        A = _cmat(n)
        assert abs(spectral_norm(A) - np.linalg.svd(A, compute_uv=False)[0]) < 1e-10


@pytest.mark.parametrize("k", [-1000, -600, -26, 26, 600])
def test_spectral_norm_scales_exactly(k):
    # T*T of 2^k A under- or overflows for |k| >= 512 unless A is scaled
    # first; every other radius threshold is relative to this norm
    for n in (2, 3, 5):
        A = _cmat(n)
        assert spectral_norm(2.0**k * A) == 2.0**k * spectral_norm(A)


def test_spectral_norm_pinned_values():
    assert abs(spectral_norm([[0, 1], [0, -1]]) - math.sqrt(2.0)) < 1e-12
    assert abs(spectral_norm([[1, 0], [0, 0]]) - 1.0) < 1e-12


def _eig3_stacks():
    """(name, Hermitian (K, 3, 3) stack, its ascending eigenvalues as
    constructed, or None where only LAPACK's are known)."""
    rng = np.random.default_rng(333)

    def rotated(w):  # U diag(w) U*, U unitary, made exactly Hermitian
        Z = rng.standard_normal((len(w), 3, 3)) + 1j * rng.standard_normal((len(w), 3, 3))
        U = np.linalg.qr(Z)[0]
        H = (U * w[:, None, :]) @ np.conj(np.swapaxes(U, 1, 2))
        return 0.5 * (H + np.conj(np.swapaxes(H, 1, 2)))

    w = np.sort(rng.standard_normal((1000, 3)), axis=1)
    yield "random", rotated(w), w
    w = np.sort(np.abs(rng.standard_normal((400, 3))), axis=1)
    w[:100, 0] = 0.0
    yield "positive", rotated(w), w
    M = rng.standard_normal((400, 3, 3)) + 1j * rng.standard_normal((400, 3, 3))
    yield "gram", np.conj(np.swapaxes(M, 1, 2)) @ M, None
    # a pair 1 to 1e-12 apart at the top, then at the bottom, its third
    # eigenvalue 0.5 to 2 beyond it
    gap = np.repeat(10.0 ** -np.arange(13.0), 30)
    b = rng.uniform(-1.0, 1.0, gap.size)
    far = rng.uniform(0.5, 2.0, gap.size)
    for name, w in (("near-double-top", (b - far, b, b + gap)),
                    ("near-double-bottom", (b, b + gap, b + gap + far))):
        w = np.stack(w, axis=1)
        yield name, rotated(w), w
    w = np.stack((b - far, b, b), axis=1)[:100]
    yield "double", rotated(np.concatenate((w, -w[:, ::-1]))), np.concatenate((w, -w[:, ::-1]))
    c = np.array([1.0, -2.0, 0.5, 0.1, 3.0, -1.0 / 3.0])
    w = np.repeat(c[:, None], 3, axis=1)
    yield "triple", rotated(w), w
    yield "scalar-identity", c[:, None, None] * np.eye(3), w
    yield "zero", np.zeros((10, 3, 3), dtype=np.complex128), np.zeros((10, 3))
    w = rng.standard_normal((200, 3))
    yield "diagonal", w[:, :, None] * np.eye(3), np.sort(w, axis=1)


def test_3x3_kernel_matches_constructed_and_lapack_eigenvalues(monkeypatch):
    # the 3x3 closed form linalg._eig3_rot, at z = 1, is within 4 n u ||H||
    # of the constructed eigenvalues and of LAPACK's; exactly the lanes
    # whose top or bottom gap is below p / 4 go to LAPACK
    # (p = sqrt(tr((H - q I)^2) / 6)), each lane's bits are the same in a
    # stack and alone, and no lane, the zero and scalar ones included,
    # raises a RuntimeWarning (pytest turns it into an error)
    u = np.finfo(float).eps
    eigvalsh, reached = np.linalg.eigvalsh, []

    def counting(H):
        reached.append(len(H))
        return eigvalsh(H)

    for name, H, w in _eig3_stacks():
        H = H.astype(np.complex128)
        lapack = eigvalsh(H)
        lo, hi = linalg._eig3_rot(H, 1.0, 0.0)
        for ref in (lapack,) if w is None else (lapack, w):
            tol = 12.0 * u * np.abs(ref).max(axis=1)
            assert (np.abs(lo - ref[:, 0]) <= tol).all(), name
            assert (np.abs(hi - ref[:, -1]) <= tol).all(), name
        ref = lapack if w is None else w
        p = np.sqrt(((ref - ref.mean(axis=1, keepdims=True)) ** 2).sum(axis=1) / 6.0)
        short = np.minimum(ref[:, 1] - ref[:, 0], ref[:, 2] - ref[:, 1]) - 0.25 * p
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        for k in range(len(H)):
            reached.clear()
            one = linalg._eig3_rot(H[k : k + 1], 1.0, 0.0)
            assert (one[0][0], one[1][0]) == (lo[k], hi[k]), (name, k)
            # a lane within rounding of the guard, or a triple eigenvalue
            # up to rounding, may go either way
            if ref[k, 2] - ref[k, 0] > 1e-6 * np.abs(ref[k]).max() and abs(short[k]) > 1e-6 * p[k]:
                assert reached == ([1] if short[k] < 0.0 else []), (name, k)
            elif name in ("zero", "scalar-identity") and 3.0 * ref[k, 0] / 3.0 == ref[k, 0]:
                # H - q I is exactly zero: p = 0, and LAPACK is not called
                assert reached == [], (name, k)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)


class TestRankOne:
    def test_action_is_inner_product_projection(self):
        x = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
        y = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
        z = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
        M = rank_one(x, y)
        assert np.allclose(M @ z, np.vdot(y, z) * x)

    def test_norm_is_product_of_lengths(self):
        x = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        y = RNG.standard_normal(3) + 1j * RNG.standard_normal(3)
        nrm = spectral_norm(rank_one(x, y))
        assert abs(nrm - np.linalg.norm(x) * np.linalg.norm(y)) < 1e-10

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            rank_one([1, 0], [1, 0, 0])


def test_max_dim_constant():
    assert linalg.MAX_DIM == 64
