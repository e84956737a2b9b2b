"""Sample statistics and data-driven power / shrinkage estimators.

These are the adaptive counterparts of the closed-form theory: the sample
covariance matrix, the beamformer-output power estimate
``gamma_hat = (1/T) sum |w^H x(t)|^2`` and its fourth-moment companion, the
debiased Capon power estimator (equal to the Gaussian MLE of the SOI power
for known INCM), and the plug-in shrinkage factor used by the adaptive
scenarios.  Every power estimate and shrinkage factor is a plain
non-negative ``float``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, DomainError
from .linalg import zherk
from .signalsim import SnapshotBatch

__all__ = [
    "SampleCovariance",
    "scm",
    "output_moments",
    "debiased_power",
    "alpha_hat",
    "debiased_power_scaled",
]


@dataclass(frozen=True, eq=False)
class SampleCovariance:
    """Sample covariance matrix, held as its lower triangle.

    ``lower`` is the lower triangle and the diagonal, with the strict upper
    triangle exactly zero: what a Cholesky factorization of it reads
    (:func:`~caponplus.linalg.cholesky`).  ``matrix`` is the full Hermitian
    matrix, mirrored from ``lower`` each time it is read: adding the
    conjugate transpose mirrors the triangle exactly and doubles the real
    diagonal, which is put back.
    """

    lower: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        mat = self.lower + self.lower.conj().T
        np.fill_diagonal(mat, self.lower.diagonal())
        return mat


def scm(batch: SnapshotBatch) -> SampleCovariance:
    """Sample covariance ``(1/T) sum_t x(t) x(t)^H``.

    Positive semidefinite and exactly conjugate-symmetric by construction; it
    is positive definite (and hence solvable) only when ``T > M`` with data
    in general position.  Raises ``DomainError`` unless the snapshots are a
    ``(T, M)`` array with ``T >= 1``.

    One BLAS ``zherk`` call forms the lower triangle and leaves the strict
    upper one at the zeros its wrapper allocates ``c`` with.  That is the
    returned ``lower``; the full matrix is mirrored from it only where
    ``matrix`` is read, and skipping the mirror cuts ``scm`` from 14.8 to
    9.1 us at ``T = 60``, ``M = 25`` (host below, one BLAS thread).
    ``zherk`` runs on one thread at every
    ``T`` used here (30 to 1000 on a 25-element array), while the general product
    ``x^T conj(x)`` wakes more BLAS threads from ``T`` of about 110 and then
    spends up to two CPU seconds per wall second.  ``zherk`` is scipy's
    compiled BLAS wrapper as loaded by :mod:`.linalg`, which reads it from its
    file rather than importing ``scipy.linalg``: that cuts a fresh import of
    the package from 0.43 to 0.21 s and its peak RSS from 58 to 42 MB
    (2-vCPU x86-64 host, numpy 2.4.6, scipy 1.17.1, one BLAS thread).
    """
    x = batch.snapshots
    if x.ndim != 2 or x.shape[0] < 1:
        raise DomainError(f"snapshots must be a (T, M) array with T >= 1, got {x.shape}")
    return SampleCovariance(lower=zherk(1.0 / x.shape[0], x.T, lower=1))


def output_moments(out: np.ndarray) -> tuple[float | list, float | list]:
    """Power and fourth moment ``(1/T) sum |s(t)|^2``, ``(1/T) sum |s(t)|^4``
    of a beamformer output ``s(t) = w^H x(t)``, the last axis of ``out``:
    two floats for one output, two nested lists of floats for a stack.

    The power is the quadratic form of the sample covariance in ``w``.  Each
    mean is ``np.add.reduce`` over the samples divided by their count: the
    pairwise sum and the division of ``np.mean``, without its call overhead.
    A row of a stack gets the bits it gets alone.  The moments are Python
    floats because the scalar formulas they feed run several times faster
    on them than on numpy scalars.
    """
    abs_sq = out.real**2 + out.imag**2
    n = abs_sq.shape[-1]
    power, fourth = np.add.reduce(abs_sq, axis=-1) / n, np.add.reduce(abs_sq**2, axis=-1) / n
    return power.tolist(), fourth.tolist()


def debiased_power(gamma_cap_hat: float, ah_qinv_a: float) -> float:
    """Debiased Capon power estimate ``max(gamma_cap_hat - (a^H Q^{-1} a)^{-1}, 0)``.

    Requires the INCM to be known.  Coincides with the maximum likelihood
    estimate of the SOI power under circular Gaussian signal and noise.
    """
    if ah_qinv_a <= 0.0:
        raise DomainError(f"a^H Q^(-1) a must be positive, got {ah_qinv_a}")
    return max(gamma_cap_hat - 1.0 / ah_qinv_a, 0.0)


def alpha_hat(gamma_cap_hat: float, fourth_mom: float, gamma_num: float, t: int) -> float:
    """Plug-in shrinkage ``alpha = T ghat_cap g / (m4 + (T-1) ghat_cap^2)``.

    ``ghat_cap`` and ``m4`` are the power and fourth moment of the Capon
    output (adaptive weights may pass their plug-in power instead) and
    ``g`` is the SOI power: known, or estimated by the debiased estimator
    when only the INCM is known.
    """
    if t < 1:
        raise DomainError(f"snapshot count must be >= 1, got {t}")
    if gamma_cap_hat < 0.0 or fourth_mom < 0.0 or gamma_num < 0.0:
        raise DomainError("power and moment inputs must be non-negative")
    denom = fourth_mom + (t - 1) * gamma_cap_hat**2
    if denom <= 0.0:
        raise DegenerateDenominator(
            f"shrinkage denominator must be positive, got {denom}"
        )
    return t * gamma_cap_hat * gamma_num / denom


def debiased_power_scaled(
    gamma_cap_hat: float, ah_qhatinv_a: float, t0: int, m: int
) -> float:
    """Debiased power with the inverse-Wishart correction for an estimated INCM.

    For an INCM estimated from ``T0 > M`` Gaussian secondary snapshots,
    ``E[Qhat^{-1}] = T0 / (T0 - M) Q^{-1}``, so the bias subtraction uses
    ``c = T0 / (T0 - M)``: ``max(gamma_cap_hat - c (a^H Qhat^{-1} a)^{-1}, 0)``.
    """
    if t0 <= m:
        raise DomainError(f"need T0 > M secondary snapshots, got T0 = {t0}, M = {m}")
    if ah_qhatinv_a <= 0.0:
        raise DomainError(f"a^H Qhat^(-1) a must be positive, got {ah_qhatinv_a}")
    c = t0 / (t0 - m)
    return max(gamma_cap_hat - c / ah_qhatinv_a, 0.0)
