"""Dense complex linear algebra for small Hermitian positive definite systems.

Everything in this package runs through a handful of primitives: a complex
Cholesky factorization with an explicit rank-deficiency threshold, solves
against the factor, real-valued Hermitian quadratic forms, and the
Sherman-Morrison update for rank-one covariance perturbations.  Matrices are
plain ``numpy`` arrays of ``complex128``; the only wrapper type is
:class:`CholeskyFactor`, which is reused both for solving and for sampling
circular Gaussian vectors with a prescribed covariance.

The factor comes from LAPACK ``zpotrf`` and solves from ``zpotrs``.  LAPACK
only stops at a non-positive pivot, so the package's stricter rule (reject
a pivot at or below ``M * eps * max(diag)``) is applied afterwards to the
squared diagonal of LAPACK's factor, which holds the pivots.  Symmetry and
quadratic-form residues are judged relative to the scale of the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zpotrf, zpotrs

from .errors import (
    DimensionMismatch,
    DomainError,
    NonPositiveQuadraticForm,
    NotPositiveDefinite,
)

__all__ = [
    "CholeskyFactor",
    "hermitian_matrix",
    "cholesky",
    "solve_chol",
    "solve_hpd",
    "quadratic_form",
    "rank1_update_inverse",
]

_EPS = np.finfo(np.float64).eps

# Conjugate-symmetry tolerance accepted at construction time, relative to max |A|.
HERMITIAN_RTOL = 1e-12

# Imaginary residue allowed in a quadratic form, relative to max |A| ||v||^2.
_QF_IMAG_RTOL = 1e-10


def hermitian_matrix(elements, posdef_hint: bool = False) -> np.ndarray:
    """Validate and return an M x M Hermitian matrix.

    Conjugate symmetry must hold within ``1e-12 * max|A|``, so that rounding
    in a product such as ``G D G^H`` passes at any scale; the residue is then
    removed exactly by averaging with the conjugate transpose.  With
    ``posdef_hint`` the diagonal must additionally be strictly positive.
    """
    a = np.asarray(elements, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix contains non-finite entries")
    asym = np.abs(a - a.conj().T).max()
    if asym > HERMITIAN_RTOL * np.abs(a).max():
        raise DomainError(
            f"matrix is not conjugate-symmetric: max |A - A^H| = {asym:.3e}"
        )
    a = 0.5 * (a + a.conj().T)
    if posdef_hint and np.any(a.real.diagonal() <= 0.0):
        raise NotPositiveDefinite(
            "positive definite hint violated: non-positive diagonal entry",
            pivot_index=int(np.argmin(a.real.diagonal())),
        )
    return a


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor ``L`` with ``L L^H = A`` and real positive diagonal."""

    lower: np.ndarray

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def log_det(self) -> float:
        """log |A| of the factored matrix."""
        return float(2.0 * np.sum(np.log(self.lower.real.diagonal())))


def cholesky(a: np.ndarray) -> CholeskyFactor:
    """Factor a Hermitian positive definite matrix as ``L L^H``.

    A pivot is rejected when it falls at or below ``M * eps * max(diag)``,
    which flags indefinite matrices and numerically singular ones.  For a
    sample covariance of ``T < M`` snapshots the pivot at index ``T`` is
    rounding residue of about the size of that threshold, so such a matrix
    is rejected at index ``T`` or later, or occasionally not at all.  Only
    the lower triangle of ``a`` is read.

    Raises
    ------
    NotPositiveDefinite
        Reporting the index of the failing pivot.
    """
    a = np.asarray(a, dtype=np.complex128)
    m = a.shape[0]
    if a.ndim != 2 or a.shape[1] != m:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    tol = m * _EPS * a.real.diagonal().max(initial=0.0)
    lower, info = zpotrf(a, lower=1)
    # The pivots are the squared diagonal of the factor.  Squaring is monotone,
    # so the smallest diagonal entry decides when LAPACK succeeded.
    diag = lower.real.diagonal()
    if info == 0 and float(diag.min(initial=np.inf)) ** 2 > tol:
        return CholeskyFactor(lower)
    # On failure LAPACK stops at pivot info - 1; the pivots before it are valid.
    factored = info - 1 if info > 0 else m
    small = np.flatnonzero(diag[:factored] ** 2 <= tol)
    j = int(small[0]) if small.size else factored
    raise NotPositiveDefinite(
        f"pivot at index {j} is <= tolerance {tol:.3e}", pivot_index=j
    )


def solve_chol(factor: CholeskyFactor, b: np.ndarray) -> np.ndarray:
    """Solve ``A y = b`` given the Cholesky factor of ``A``."""
    b = np.asarray(b, dtype=np.complex128)
    if b.shape[0] != factor.dim:
        raise DimensionMismatch(
            f"rhs has leading dimension {b.shape[0]}, factor is {factor.dim}"
        )
    return zpotrs(factor.lower, b, lower=1)[0]


def solve_hpd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A y = b`` for Hermitian positive definite ``A``."""
    return solve_chol(cholesky(a), b)


def quadratic_form(a: np.ndarray, v: np.ndarray) -> float:
    """Real value of the Hermitian quadratic form ``v^H A v``.

    The imaginary residue of the raw product must be negligible,
    ``<= 1e-10 * max|A| * ||v||^2``: rounding in ``A v`` scales with the
    largest entries of ``A``, not with the value, which can be far smaller
    along a weak eigenvector.  The residue is asserted and discarded.
    """
    a = np.asarray(a, dtype=np.complex128)
    v = np.asarray(v, dtype=np.complex128)
    if a.ndim != 2 or v.ndim != 1 or a.shape != (v.size, v.size):
        raise DimensionMismatch(
            f"quadratic form shape mismatch: A {a.shape}, v {v.shape}"
        )
    raw = np.vdot(v, a @ v)
    if abs(raw.imag) > _QF_IMAG_RTOL * np.abs(a).max() * np.vdot(v, v).real:
        raise DomainError(
            f"quadratic form has non-negligible imaginary part {raw.imag:.3e} "
            f"(|value| = {abs(raw):.3e}); matrix is not Hermitian enough"
        )
    return float(raw.real)


def rank1_update_inverse(
    qinv_a: np.ndarray, ah_qinv_a: float, gamma: float
) -> tuple[np.ndarray, float]:
    """Sherman-Morrison update of ``Q^{-1} a`` for ``M = Q + gamma a a^H``.

    Given ``Q^{-1} a`` and the scalar ``a^H Q^{-1} a``, returns
    ``M^{-1} a = Q^{-1} a / (1 + gamma a^H Q^{-1} a)`` and the matching
    scalar ``a^H M^{-1} a``, without forming ``M``.
    """
    if gamma < 0.0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    if ah_qinv_a <= 0.0:
        raise NonPositiveQuadraticForm(
            f"a^H Q^{{-1}} a must be positive, got {ah_qinv_a}"
        )
    denom = 1.0 + gamma * ah_qinv_a
    return np.asarray(qinv_a, dtype=np.complex128) / denom, ah_qinv_a / denom
