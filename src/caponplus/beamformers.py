"""Oracle and adaptive beamformer weights, and their application to snapshots.

All weights derive from the Capon solution
``w_Cap = C^{-1} a / (a^H C^{-1} a)`` (identical whether ``C`` is the full
array covariance or the INCM), the MMSE weight ``w_MMSE = gamma S^{-1} a``
which is the same vector scaled by ``gamma / gamma_cap``, and the shrunk
Capon weight ``w_beta = sqrt(alpha) w_Cap`` whose output power is
``alpha``-times the Capon output power.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError
from .linalg import cholesky, solve_chol
from .signalsim import SnapshotBatch

__all__ = [
    "BeamformerKind",
    "ShrinkageFactor",
    "BeamformerWeights",
    "cb_weights",
    "capon_weights",
    "mmse_weights",
    "capon_plus_weights",
    "adaptive_capon_weights",
    "apply_weights",
]

UNIT_GAIN_ATOL = 1e-9


class BeamformerKind(enum.Enum):
    CB = "CB"
    CAPON = "Capon"
    MMSE = "MMSE"
    CAPON_PLUS = "CaponPlus"


@dataclass(frozen=True)
class ShrinkageFactor:
    """Power-domain shrinkage ``alpha`` with its amplitude-domain root ``beta``."""

    alpha: float

    def __post_init__(self):
        if self.alpha < 0.0:
            raise DomainError(f"shrinkage factor must be >= 0, got {self.alpha}")

    @property
    def beta(self) -> float:
        return math.sqrt(self.alpha)


@dataclass(frozen=True, eq=False)
class BeamformerWeights:
    """A weight vector, its kind, and whether it passes its steering vector with unit gain."""

    w: np.ndarray
    kind: BeamformerKind
    unit_gain: bool

    def check_unit_gain(self, a: np.ndarray) -> None:
        """Assert that unit-gain weights pass ``a`` with ``|w^H a - 1| <= 1e-9``."""
        if self.unit_gain:
            gain_err = abs(np.vdot(self.w, a) - 1.0)
            if gain_err > UNIT_GAIN_ATOL:
                raise DomainError(f"unit-gain violation: |w^H a - 1| = {gain_err:.3e}")


def cb_weights(a: np.ndarray) -> BeamformerWeights:
    """Conventional beamformer ``w = a / ||a||^2`` (unit gain by construction)."""
    a = np.asarray(a, dtype=np.complex128)
    norm_sq = np.vdot(a, a).real
    if norm_sq <= 0.0:
        raise DomainError("steering vector has zero norm")
    return BeamformerWeights(
        w=a / norm_sq,
        kind=BeamformerKind.CB,
        unit_gain=True,
    )


def _capon_like(cov: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, float]:
    """``(C^{-1} a, a^H C^{-1} a)`` for Hermitian positive definite ``C``."""
    a = np.asarray(a, dtype=np.complex128)
    cov = np.asarray(cov, dtype=np.complex128)
    if cov.shape != (a.size, a.size):
        raise DimensionMismatch(f"covariance {cov.shape} incompatible with steering {a.shape}")
    cinv_a = solve_chol(cholesky(cov), a)
    denom = np.vdot(a, cinv_a).real
    if denom <= 0.0:
        raise DomainError(f"a^H C^(-1) a must be positive, got {denom}")
    return cinv_a, float(denom)


def capon_weights(cov: np.ndarray, a: np.ndarray) -> BeamformerWeights:
    """Capon/MPDR weight ``w = C^{-1} a / (a^H C^{-1} a)``.

    ``cov`` may be the full array covariance or the INCM; by the
    Sherman-Morrison identity both produce the same weight vector.
    """
    cinv_a, denom = _capon_like(cov, a)
    return BeamformerWeights(
        w=cinv_a / denom,
        kind=BeamformerKind.CAPON,
        unit_gain=True,
    )


def mmse_weights(
    gamma: float, cov: np.ndarray, a: np.ndarray, use_incm_form: bool = False
) -> BeamformerWeights:
    """MMSE weight for SOI power ``gamma``.

    With ``use_incm_form`` false, ``cov`` is the full covariance and
    ``w = gamma S^{-1} a``; otherwise ``cov`` is the INCM and
    ``w = gamma Q^{-1} a / (1 + gamma a^H Q^{-1} a)``.  The two forms agree.
    """
    if gamma < 0.0:
        raise DomainError(f"SOI power must be >= 0, got {gamma}")
    cinv_a, denom = _capon_like(cov, a)
    if use_incm_form:
        w = gamma * cinv_a / (1.0 + gamma * denom)
    else:
        w = gamma * cinv_a
    return BeamformerWeights(w=w, kind=BeamformerKind.MMSE, unit_gain=False)


def capon_plus_weights(
    w_cap: BeamformerWeights, shrink: ShrinkageFactor
) -> BeamformerWeights:
    """Shrunk Capon weight ``sqrt(alpha) w_Cap``."""
    if w_cap.kind is not BeamformerKind.CAPON:
        raise DomainError(f"expected Capon weights, got {w_cap.kind}")
    return BeamformerWeights(
        w=shrink.beta * w_cap.w,
        kind=BeamformerKind.CAPON_PLUS,
        unit_gain=False,
    )


def adaptive_capon_weights(
    scm: np.ndarray, a: np.ndarray
) -> tuple[BeamformerWeights, float]:
    """Adaptive Capon weight from a sample covariance of ``T > M`` snapshots.

    Returns the weight ``w = gamma_hat S_hat^{-1} a`` together with the
    plug-in output power ``gamma_hat = (a^H S_hat^{-1} a)^{-1}``; the weight
    satisfies ``w^H a = 1``.  Callers must supply ``T > M``, as
    ``ScenarioConfig.validate`` enforces for regimes b, c and d: the
    Cholesky rule raises ``NotPositiveDefinite`` for most rank-deficient
    (``T < M``) sample covariances but factors a few of them.
    """
    cinv_a, denom = _capon_like(scm, a)
    gamma_hat = 1.0 / denom
    weights = BeamformerWeights(
        w=cinv_a * gamma_hat,
        kind=BeamformerKind.CAPON,
        unit_gain=True,
    )
    return weights, gamma_hat


def apply_weights(weights: BeamformerWeights, batch: SnapshotBatch) -> np.ndarray:
    """Beamformer output ``s_hat(t) = w^H x(t)`` for every snapshot of the batch."""
    if weights.w.size != batch.num_antennas:
        raise DimensionMismatch(
            f"weights have {weights.w.size} elements, snapshots have {batch.num_antennas}"
        )
    return batch.snapshots @ weights.w.conj()
