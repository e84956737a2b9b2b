import os
import subprocess
import sys

import numpy as np
import pytest

import caponplus
from caponplus import linalg
from caponplus.errors import (
    DimensionMismatch,
    DomainError,
    NotPositiveDefinite,
)
from caponplus.linalg import cholesky, hermitian_matrix, quadratic_form, solve_chol
from helpers import (
    random_cvector,
    random_hpd,
    rank1_update_inverse,
    reference_cholesky,
    solve_hpd,
)

SQRT2 = 1.4142135623730951
INV_SQRT2 = 0.7071067811865475
SQRT_3_2 = 1.224744871391589  # sqrt(3/2)


class TestHermitianMatrix:
    def test_accepts_and_symmetrizes(self):
        a = np.array([[2.0, 1.0 + 1e-13j], [1.0, 3.0]], dtype=complex)
        out = hermitian_matrix(a)
        assert np.array_equal(out, out.conj().T)

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            hermitian_matrix(np.array([[1.0, 2.0], [0.5, 1.0]]))

    def test_posdef_hint_checks_diagonal(self):
        with pytest.raises(NotPositiveDefinite):
            hermitian_matrix(np.diag([1.0, -2.0]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            hermitian_matrix(np.ones((2, 3)))

    @pytest.mark.parametrize("scale", [1e4, 1e8])
    def test_tolerance_scales_with_matrix(self, scale):
        # G D G^H + s I is Hermitian up to rounding that grows with s.
        rng = np.random.default_rng(12)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = (g * (scale * rng.uniform(0.5, 2.0, 6))) @ g.conj().T + scale * np.eye(6)
        assert np.abs(a - a.conj().T).max() > 1e-12
        out = hermitian_matrix(a)
        assert np.array_equal(out, out.conj().T)


class TestCholesky:
    def test_identity(self):
        fac = cholesky(np.eye(2, dtype=complex))
        assert np.allclose(fac, np.eye(2))

    def test_hand_2x2(self):
        fac = cholesky(np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex))
        expected = np.array([[SQRT2, 0.0], [INV_SQRT2, SQRT_3_2]])
        assert np.allclose(fac, expected, rtol=1e-14)

    def test_indefinite_reports_pivot(self):
        with pytest.raises(NotPositiveDefinite) as exc:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex))
        assert exc.value.pivot_index == 1

    def test_rank_deficient_scm_rejected(self):
        # T <= M sample covariance is singular and must not factor
        rng = np.random.default_rng(3)
        x = random_cvector(rng, 4)
        scm1 = np.outer(x, x.conj())
        with pytest.raises(NotPositiveDefinite):
            cholesky(scm1)

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 16, 33, 64])
    def test_reconstruction(self, m):
        rng = np.random.default_rng(m)
        a = random_hpd(rng, m)
        fac = cholesky(a)
        rec = fac @ fac.conj().T
        assert np.linalg.norm(rec - a) <= 1e-10 * np.linalg.norm(a)
        assert np.all(fac.diagonal().imag == 0.0)
        assert np.all(fac.diagonal().real > 0.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: cholesky(np.float64(2.0)),
            lambda: cholesky(np.ones(3, dtype=complex)),
            lambda: cholesky(np.ones((2, 3), dtype=complex)),
            lambda: solve_chol(np.eye(2, dtype=complex), np.complex128(1.0)),
        ],
        ids=["cholesky-0d", "cholesky-1d", "cholesky-2x3", "solve_chol-0d-rhs"],
    )
    def test_rank_checked_before_shape(self, call):
        with pytest.raises(DimensionMismatch):
            call()

    def test_log_det(self):
        rng = np.random.default_rng(11)
        a = random_hpd(rng, 6)
        _sign, ref = np.linalg.slogdet(a)
        log_det = 2.0 * np.sum(np.log(cholesky(a).real.diagonal()))
        assert log_det == pytest.approx(ref, rel=1e-12)


def _pivot_index(factor, a):
    """``None`` when ``factor(a)`` succeeds, else the reported failing pivot."""
    try:
        factor(a)
    except NotPositiveDefinite as exc:
        return exc.pivot_index
    return None


class TestCholeskyMatchesReference:
    """The LAPACK factorization against the column-loop reference."""

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 13, 25, 40, 64])
    def test_hpd_factors_agree(self, m):
        rng = np.random.default_rng(200 + m)
        for _ in range(5):
            a = random_hpd(rng, m)
            ref = reference_cholesky(a)
            got = cholesky(a)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
            assert np.array_equal(np.triu(got, 1), np.zeros_like(got))

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 13, 25, 40, 64])
    def test_indefinite_same_pivot(self, m):
        rng = np.random.default_rng(300 + m)
        for _ in range(5):
            a = random_hpd(rng, m)
            a -= np.quantile(np.linalg.eigvalsh(a), rng.uniform(0.05, 0.95)) * np.eye(m)
            ref = _pivot_index(reference_cholesky, a)
            assert ref is not None
            assert _pivot_index(cholesky, a) == ref

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 13, 25, 40, 64])
    def test_rank_deficient_scm_keeps_valid_pivots(self, m):
        # A T < M sample covariance has rank T: pivots 0..T-1 are positive
        # and pivot T is zero in exact arithmetic.  Neither path may reject
        # a pivot below T.  At and after T the computed pivots are rounding
        # residue of the order of the threshold, so the decision there is
        # not reproducible between two summation orders and is not compared.
        rng = np.random.default_rng(400 + m)
        for t in range(1, m):
            x = rng.standard_normal((t, m)) + 1j * rng.standard_normal((t, m))
            s = x.T @ x.conj() / t
            for factor in (reference_cholesky, cholesky):
                idx = _pivot_index(factor, s)
                assert idx is None or idx >= t


class TestSolveHpd:
    def test_identity(self):
        b = np.array([1.0 + 2.0j, -3.0j])
        assert np.allclose(solve_hpd(np.eye(2, dtype=complex), b), b)

    def test_analytic_2x2(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
        y = solve_hpd(a, np.array([1.0, 1.0], dtype=complex))
        assert np.allclose(y, [1.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

    def test_scaled_identity(self):
        rng = np.random.default_rng(5)
        b = random_cvector(rng, 7)
        assert np.allclose(solve_hpd(4.0 * np.eye(7, dtype=complex), b), b / 4.0)

    @pytest.mark.parametrize("m", [2, 4, 9, 17, 32, 64])
    def test_residual(self, m):
        rng = np.random.default_rng(100 + m)
        a = random_hpd(rng, m)
        b = random_cvector(rng, m)
        y = solve_hpd(a, b)
        assert np.linalg.norm(a @ y - b) <= 1e-10 * np.linalg.norm(b)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(6)
        a = random_hpd(rng, 5)
        b = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        y = solve_chol(cholesky(a), b)
        assert np.linalg.norm(a @ y - b) <= 1e-10 * np.linalg.norm(b)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_hpd(np.eye(3, dtype=complex), np.ones(4, dtype=complex))


class TestQuadraticForm:
    def test_identity_unit_vector(self):
        v = np.array([1.0, 1.0j]) / SQRT2
        assert quadratic_form(np.eye(2, dtype=complex), v) == pytest.approx(1.0)

    def test_diagonal(self):
        v = np.array([1.0, 1.0], dtype=complex)
        assert quadratic_form(np.diag([2.0, 3.0]).astype(complex), v) == pytest.approx(5.0)

    def test_matches_naive_triple_product(self):
        rng = np.random.default_rng(7)
        a = random_hpd(rng, 6)
        v = random_cvector(rng, 6)
        naive = sum(
            (v[i].conjugate() * a[i, j] * v[j]).real
            for i in range(6)
            for j in range(6)
        )
        assert quadratic_form(a, v) == pytest.approx(naive, rel=1e-12)

    def test_nonnegative_for_hpd(self):
        rng = np.random.default_rng(8)
        for k in range(50):
            m = int(rng.integers(2, 9))
            val = quadratic_form(random_hpd(rng, m), random_cvector(rng, m))
            assert val >= -1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quadratic_form(np.eye(3, dtype=complex), np.ones(2, dtype=complex))

    def test_rejects_non_hermitian_product(self):
        a = np.array([[1.0, 5.0j], [5.0j, 1.0]])  # complex-symmetric, not Hermitian
        with pytest.raises(DomainError):
            quadratic_form(a, np.array([1.0, 1.0], dtype=complex))

    def test_weak_eigenvector_of_ill_conditioned_matrix(self):
        # Along the smallest eigenvector of a cond-1e12 matrix the value is
        # 1 while rounding in A v is of order eps * 1e12.
        rng = np.random.default_rng(13)
        for _ in range(200):
            u, _r = np.linalg.qr(random_hpd(rng, 8))
            a = (u * np.geomspace(1.0, 1e12, 8)) @ u.conj().T
            assert quadratic_form(a, u[:, 0]) == pytest.approx(1.0, abs=1e-2)


class TestRank1UpdateInverse:
    def test_gamma_zero_is_identity(self):
        rng = np.random.default_rng(9)
        qinv_a = random_cvector(rng, 5)
        out, quad = rank1_update_inverse(qinv_a, 2.5, 0.0)
        assert np.array_equal(out, qinv_a)
        assert quad == 2.5

    def test_2x2_identity_case(self):
        # Q = I, a = (1,1), gamma = 1  =>  Sigma = [[2,1],[1,2]]
        a = np.array([1.0, 1.0], dtype=complex)
        minv_a, quad = rank1_update_inverse(a.copy(), 2.0, 1.0)
        sigma = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
        assert np.allclose(sigma @ minv_a, a, rtol=1e-14)
        assert quad == pytest.approx(2.0 / 3.0)

    def test_against_direct_solve(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(1000):
            m = int(rng.integers(2, 9))
            q = random_hpd(rng, m)
            a = random_cvector(rng, m)
            gamma = float(10.0 ** rng.uniform(-2, 2))
            qinv_a = solve_hpd(q, a)
            quad = float(np.vdot(a, qinv_a).real)
            got, got_quad = rank1_update_inverse(qinv_a, quad, gamma)
            sigma = q + gamma * np.outer(a, a.conj())
            ref = solve_hpd(sigma, a)
            ref_quad = float(np.vdot(a, ref).real)
            worst = max(worst, np.linalg.norm(got - ref) / np.linalg.norm(ref))
            worst = max(worst, abs(got_quad - ref_quad) / abs(ref_quad))
        assert worst <= 1e-9

    def test_rejects_nonpositive_quadratic(self):
        with pytest.raises(DomainError, match=r"a\^H Q\^\{-1\} a must be positive"):
            rank1_update_inverse(np.ones(2, dtype=complex), 0.0, 1.0)

    def test_rejects_negative_gamma(self):
        with pytest.raises(DomainError):
            rank1_update_inverse(np.ones(2, dtype=complex), 1.0, -0.5)


class TestScipyKernels:
    """``linalg`` loads scipy's compiled LAPACK/BLAS wrappers from their files."""

    def test_import_skips_scipy_linalg(self):
        src = os.path.dirname(os.path.dirname(caponplus.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        code = ("import sys, caponplus.cli; "
                "print(*sorted(k for k in ('scipy.linalg', 'numpy.f2py', "
                "'scipy.linalg._flapack', 'scipy.linalg._fblas') if k in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert out == ["scipy.linalg._fblas", "scipy.linalg._flapack"]

    def test_same_objects_as_public_scipy(self):
        from scipy.linalg import blas, lapack

        assert linalg.zpotrf is lapack.zpotrf
        assert linalg.zpotrs is lapack.zpotrs
        assert linalg.zherk is blas.zherk

    @staticmethod
    def _outputs(kernels, m, rng):
        zpotrf, zpotrs, zherk = kernels
        x = rng.standard_normal((2 * m, m)) + 1j * rng.standard_normal((2 * m, m))
        c = zherk(1.0 / (2 * m), x.T, lower=1)
        a = c + np.tril(c, -1).conj().T
        lower, info = zpotrf(a, lower=1)
        b = random_cvector(rng, m)
        return c, lower, info, zpotrs(lower, b, lower=1)[0]

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 13, 25, 40, 64])
    def test_bit_equal_to_public_scipy(self, m):
        from scipy.linalg import blas, lapack

        public = (lapack.zpotrf, lapack.zpotrs, blas.zherk)
        ours = (linalg.zpotrf, linalg.zpotrs, linalg.zherk)
        got = self._outputs(ours, m, np.random.default_rng(500 + m))
        ref = self._outputs(public, m, np.random.default_rng(500 + m))
        assert got[2] == ref[2] == 0
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)

    def test_falls_back_when_no_file_is_found(self, tmp_path):
        from scipy.linalg import blas, lapack

        kernels = linalg._scipy_kernels([str(tmp_path)])
        assert kernels == (lapack.zpotrf, lapack.zpotrs, blas.zherk)
        for m in (2, 25, 64):
            got = self._outputs(kernels, m, np.random.default_rng(600 + m))
            ref = self._outputs((linalg.zpotrf, linalg.zpotrs, linalg.zherk), m,
                                np.random.default_rng(600 + m))
            for g, r in zip(got, ref):
                assert np.array_equal(g, r)
