"""Sample statistics and data-driven power / shrinkage estimators.

These are the adaptive counterparts of the closed-form theory: the sample
covariance matrix, the beamformer-output power estimate
``gamma_hat = (1/T) sum |w^H x(t)|^2`` and its fourth-moment companion, the
debiased Capon power estimator (equal to the Gaussian MLE of the SOI power
for known INCM), and the plug-in shrinkage factors used by the adaptive
scenarios.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import zherk

from .errors import (
    DegenerateDenominator,
    DegenerateSample,
    DimensionMismatch,
    DomainError,
    EmptyBatch,
    InsufficientSecondarySamples,
    NonPositiveQuadraticForm,
)
from .beamformers import BeamformerWeights, ShrinkageFactor
from .linalg import cholesky, solve_chol
from .signalsim import SnapshotBatch

__all__ = [
    "PowerEstimator",
    "PowerEstimate",
    "SampleCovariance",
    "scm",
    "power_estimate",
    "fourth_moment",
    "kurtosis_estimate",
    "debiased_power",
    "NllProfile",
    "nll_profile",
    "negative_log_likelihood",
    "alpha_hat_scenario_a",
    "alpha_hat_scenario_b",
    "debiased_power_scaled",
]


class PowerEstimator(enum.Enum):
    RAW = "raw"
    DEBIASED = "debiased"
    DEBIASED_SCALED = "debiased_scaled"
    MLE = "mle"


@dataclass(frozen=True)
class PowerEstimate:
    """A non-negative SOI power estimate tagged with the estimator that produced it."""

    value: float
    estimator: PowerEstimator

    def __post_init__(self):
        if self.value < 0.0:
            raise DomainError(f"power estimates are non-negative, got {self.value}")


@dataclass(frozen=True, eq=False)
class SampleCovariance:
    """Sample covariance matrix together with the snapshot count that formed it."""

    matrix: np.ndarray
    num_snapshots: int


def scm(batch: SnapshotBatch) -> SampleCovariance:
    """Sample covariance ``(1/T) sum_t x(t) x(t)^H``.

    Positive semidefinite and exactly conjugate-symmetric by construction; it
    is positive definite (and hence solvable) only when ``T > M`` with data
    in general position.

    One BLAS ``zherk`` call forms the lower triangle and the upper one is its
    conjugate mirror.  ``zherk`` runs on one thread at every ``T`` used here
    (30 to 1000 on a 25-element array), while the general product
    ``x^T conj(x)`` wakes more BLAS threads from ``T`` of about 110 and then
    spends up to two CPU seconds per wall second.
    """
    x = batch.snapshots
    t, m = x.shape
    if t < 1:
        raise EmptyBatch("cannot form a sample covariance from zero snapshots")
    lower = zherk(
        1.0 / t, x.T, c=np.zeros((m, m), np.complex128, order="F"),
        lower=1, overwrite_c=1,
    )
    mat = lower + np.tril(lower, -1).conj().T
    return SampleCovariance(matrix=mat, num_snapshots=t)


def _outputs(w: BeamformerWeights | np.ndarray, batch: SnapshotBatch) -> np.ndarray:
    wvec = w.w if isinstance(w, BeamformerWeights) else np.asarray(w, dtype=np.complex128)
    if wvec.size != batch.num_antennas:
        raise DimensionMismatch(
            f"weights have {wvec.size} elements, snapshots have {batch.num_antennas}"
        )
    return batch.snapshots @ wvec.conj()


def power_estimate(w: BeamformerWeights | np.ndarray, batch: SnapshotBatch) -> PowerEstimate:
    """Raw output power estimate ``(1/T) sum |w^H x(t)|^2``.

    Algebraically identical to the quadratic form of the sample covariance
    in ``w``.
    """
    out = _outputs(w, batch)
    return PowerEstimate(float(np.mean(np.abs(out) ** 2)), PowerEstimator.RAW)


def fourth_moment(w: BeamformerWeights | np.ndarray, batch: SnapshotBatch) -> float:
    """Empirical fourth moment ``(1/T) sum |w^H x(t)|^4`` of the beamformer output."""
    out = _outputs(w, batch)
    return float(np.mean(np.abs(out) ** 4))


def kurtosis_estimate(samples: np.ndarray) -> float:
    """Kurtosis of zero-mean circular complex samples: ``m4 / m2^2 - 2``.

    Zero for circular Gaussian data, exactly -1 for any constant-modulus
    sample set.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.size < 2:
        raise DegenerateSample(f"need at least 2 samples, got {samples.size}")
    mag_sq = np.abs(samples) ** 2
    m2 = float(np.mean(mag_sq))
    if m2 <= 0.0:
        raise DegenerateSample("all samples are zero; kurtosis undefined")
    return float(np.mean(mag_sq**2)) / m2**2 - 2.0


def debiased_power(gamma_cap_hat: float, ah_qinv_a: float) -> PowerEstimate:
    """Debiased Capon power estimate ``max(gamma_cap_hat - (a^H Q^{-1} a)^{-1}, 0)``.

    Requires the INCM to be known.  Coincides with the maximum likelihood
    estimate of the SOI power under circular Gaussian signal and noise.
    """
    if ah_qinv_a <= 0.0:
        raise NonPositiveQuadraticForm(f"a^H Q^(-1) a must be positive, got {ah_qinv_a}")
    return PowerEstimate(max(gamma_cap_hat - 1.0 / ah_qinv_a, 0.0), PowerEstimator.DEBIASED)


@dataclass(frozen=True)
class NllProfile:
    """Scalar profile of the negative log-likelihood in the SOI power.

    For known INCM ``Q`` and sample covariance ``S_hat``,
    ``nll(gamma) = tr((Q + gamma a a^H)^{-1} S_hat) + log|Q + gamma a a^H|``
    collapses, through the Sherman-Morrison and determinant lemmas, to

        trace0 - gamma r / (1 + gamma q) + logdet0 + log(1 + gamma q)

    with ``q = a^H Q^{-1} a``, ``r = a^H Q^{-1} S_hat Q^{-1} a``,
    ``trace0 = tr(Q^{-1} S_hat)`` and ``logdet0 = log|Q|``.  The minimizer
    over ``gamma >= 0`` is ``max(r/q^2 - 1/q, 0)``, i.e. the debiased Capon
    power estimate.
    """

    q: float
    r: float
    trace0: float
    logdet0: float

    def __call__(self, gamma) -> np.ndarray | float:
        gamma = np.asarray(gamma, dtype=np.float64)
        if np.any(gamma < 0.0):
            raise DomainError("SOI power must be >= 0")
        denom = 1.0 + gamma * self.q
        val = self.trace0 - gamma * self.r / denom + self.logdet0 + np.log(denom)
        return float(val) if val.ndim == 0 else val

    def minimizer(self) -> float:
        return max(self.r / self.q**2 - 1.0 / self.q, 0.0)


def nll_profile(q_mat: np.ndarray, sample_cov: SampleCovariance, a: np.ndarray) -> NllProfile:
    """Precompute the scalars of :class:`NllProfile` from ``Q``, the SCM and ``a``."""
    a = np.asarray(a, dtype=np.complex128)
    factor = cholesky(q_mat)
    qinv_a = solve_chol(factor, a)
    q = float(np.vdot(a, qinv_a).real)
    if q <= 0.0:
        raise NonPositiveQuadraticForm(f"a^H Q^(-1) a must be positive, got {q}")
    s_hat = sample_cov.matrix
    r = float(np.vdot(qinv_a, s_hat @ qinv_a).real)
    trace0 = float(np.trace(solve_chol(factor, s_hat)).real)
    return NllProfile(q=q, r=r, trace0=trace0, logdet0=factor.log_det())


def negative_log_likelihood(
    gamma: float, q_mat: np.ndarray, sample_cov: SampleCovariance, a: np.ndarray
) -> float:
    """Negative log-likelihood (scaled by 1/T) of the SOI power ``gamma``.

    ``tr((Q + gamma a a^H)^{-1} S_hat) + log|Q + gamma a a^H|``, evaluated
    without forming the rank-one-updated matrix.
    """
    return float(nll_profile(q_mat, sample_cov, a)(gamma))


def _alpha_hat(gamma_cap_hat: float, fourth_mom: float, gamma_num: float, t: int) -> ShrinkageFactor:
    if t < 1:
        raise DomainError(f"snapshot count must be >= 1, got {t}")
    if gamma_cap_hat < 0.0 or fourth_mom < 0.0 or gamma_num < 0.0:
        raise DomainError("power and moment inputs must be non-negative")
    denom = fourth_mom + (t - 1) * gamma_cap_hat**2
    if denom <= 0.0:
        raise DegenerateDenominator(
            f"shrinkage denominator must be positive, got {denom}"
        )
    return ShrinkageFactor(t * gamma_cap_hat * gamma_num / denom)


def alpha_hat_scenario_a(
    gamma_cap_hat: float, fourth_mom: float, gamma_deb: float, t: int
) -> ShrinkageFactor:
    """Adaptive shrinkage when the INCM is known and the SOI power is estimated.

    ``alpha = T ghat_cap ghat_deb / (m4 + (T-1) ghat_cap^2)`` with ``m4`` the
    empirical fourth moment of the Capon output and ``ghat_deb`` the debiased
    power estimate.
    """
    return _alpha_hat(gamma_cap_hat, fourth_mom, gamma_deb, t)


def alpha_hat_scenario_b(
    gamma_cap_hathat: float, fourth_mom_adaptive: float, gamma_known: float, t: int
) -> ShrinkageFactor:
    """Adaptive shrinkage when the SOI power is known and the weights are adaptive.

    Same rational form as scenario A, with the plug-in Capon output power of
    the adaptive weight and the known SOI power in the numerator.
    """
    if gamma_known < 0.0:
        raise DomainError(f"known SOI power must be >= 0, got {gamma_known}")
    return _alpha_hat(gamma_cap_hathat, fourth_mom_adaptive, gamma_known, t)


def debiased_power_scaled(
    gamma_cap_hat: float, ah_qhatinv_a: float, t0: int, m: int
) -> PowerEstimate:
    """Debiased power with the inverse-Wishart correction for an estimated INCM.

    For an INCM estimated from ``T0 > M`` Gaussian secondary snapshots,
    ``E[Qhat^{-1}] = T0 / (T0 - M) Q^{-1}``, so the bias subtraction uses
    ``c = T0 / (T0 - M)``: ``max(gamma_cap_hat - c (a^H Qhat^{-1} a)^{-1}, 0)``.
    """
    if t0 <= m:
        raise InsufficientSecondarySamples(
            f"need T0 > M secondary snapshots, got T0 = {t0}, M = {m}"
        )
    if ah_qhatinv_a <= 0.0:
        raise NonPositiveQuadraticForm(
            f"a^H Qhat^(-1) a must be positive, got {ah_qhatinv_a}"
        )
    c = t0 / (t0 - m)
    return PowerEstimate(
        max(gamma_cap_hat - c / ah_qhatinv_a, 0.0), PowerEstimator.DEBIASED_SCALED
    )
