"""Oracle and adaptive beamformer weights, and their application to snapshots.

A weight is a plain complex vector ``w`` of the array size.  All weights
derive from the Capon solution
``w_Cap = C^{-1} a / (a^H C^{-1} a)`` (identical whether ``C`` is the full
array covariance or the INCM), the MMSE weight ``w_MMSE = gamma S^{-1} a``
which is the same vector scaled by ``gamma / gamma_cap``, and the shrunk
Capon weight ``w_beta = sqrt(alpha) w_Cap`` whose output power is
``alpha``-times the Capon output power.  The CB, Capon and adaptive Capon
weights pass the steering vector with unit gain, ``w^H a = 1``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, DomainError
from .linalg import cholesky, solve_chol
from .signalsim import SnapshotBatch

__all__ = [
    "cb_weights",
    "capon_weights",
    "mmse_weights",
    "capon_plus_weights",
    "adaptive_capon_weights",
    "apply_weights",
]


def cb_weights(a: np.ndarray) -> np.ndarray:
    """Conventional beamformer ``w = a / ||a||^2`` (unit gain by construction)."""
    a = np.asarray(a, dtype=np.complex128)
    norm_sq = np.vdot(a, a).real
    if norm_sq <= 0.0:
        raise DomainError("steering vector has zero norm")
    return a / norm_sq


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


def capon_weights(cov: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Capon/MPDR weight ``w = C^{-1} a / (a^H C^{-1} a)``.

    ``cov`` may be the full array covariance or the INCM; by the
    Sherman-Morrison identity both produce the same weight vector.
    """
    cinv_a, denom = _capon_like(cov, a)
    return cinv_a / denom


def mmse_weights(gamma: float, cov: np.ndarray, a: np.ndarray) -> np.ndarray:
    """MMSE weight ``w = gamma S^{-1} a`` for SOI power ``gamma`` and full
    covariance ``S``."""
    if gamma < 0.0:
        raise DomainError(f"SOI power must be >= 0, got {gamma}")
    cinv_a, _denom = _capon_like(cov, a)
    return gamma * cinv_a


def capon_plus_weights(w_cap: np.ndarray, alpha: float) -> np.ndarray:
    """Shrunk Capon weight ``sqrt(alpha) w_Cap`` for power shrinkage ``alpha >= 0``."""
    if alpha < 0.0:
        raise DomainError(f"shrinkage factor must be >= 0, got {alpha}")
    return math.sqrt(alpha) * w_cap


def adaptive_capon_weights(scm: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, float]:
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
    return cinv_a * gamma_hat, gamma_hat


def apply_weights(w: np.ndarray, batch: SnapshotBatch) -> np.ndarray:
    """Beamformer output ``s_hat(t) = w^H x(t)`` for every snapshot of the batch."""
    if w.size != batch.num_antennas:
        raise DimensionMismatch(
            f"weights have {w.size} elements, snapshots have {batch.num_antennas}"
        )
    return batch.snapshots @ w.conj()
