"""ULA steering vectors, array covariance models, and closed-form beamformer theory.

The covariance model follows the narrowband snapshot model
``x(t) = s(t) a + e(t)`` with array covariance ``S = gamma a a^H + Q``,
where ``a`` is the steering vector of the signal of interest (SOI),
``gamma`` its power, and ``Q`` the interference-plus-noise covariance
(INCM).  All powers are linear and all angles cross the public API in
degrees; dB conversions belong to the CLI layer.

The scene's sources share one :class:`WaveformKind`, and
:func:`output_moments_theory` is the one closed form of a beamformer
output's population power and fourth moment under that law.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError
from .linalg import cholesky, hermitian_matrix, quadratic_form, solve_chol

__all__ = [
    "WaveformKind",
    "ArrayGeometry",
    "SourceSpec",
    "SourceScene",
    "CovarianceModel",
    "TheoryReport",
    "steering_vector",
    "build_incm",
    "build_cov_model",
    "cov_model_from_parts",
    "capon_output_power",
    "capon_bias",
    "theory_report",
    "alpha_from_kurtosis",
    "waveform_mse_theory",
    "output_moments_theory",
]

_DUAL_FORM_RTOL = 1e-9


class WaveformKind(enum.Enum):
    """Source waveform law: circular complex Gaussian, or constant-modulus 8-PSK."""

    CIRCULAR_GAUSSIAN = "gaussian"
    PSK8 = "psk8"


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: ``antennas`` elements spaced ``d_over_lambda`` wavelengths."""

    antennas: int
    d_over_lambda: float = 0.5

    def __post_init__(self):
        try:
            antennas = operator.index(self.antennas)
        except TypeError:
            raise DomainError(f"antennas must be an integer, got {self.antennas!r}") from None
        if antennas < 2:
            raise DomainError(f"need at least 2 antennas, got {antennas}")
        if not self.d_over_lambda > 0.0:
            raise DomainError(f"element spacing must be positive, got {self.d_over_lambda}")


@dataclass(frozen=True)
class SourceSpec:
    """One far-field narrowband source: direction of arrival and linear power."""

    doa_deg: float
    power: float

    def __post_init__(self):
        if not -90.0 <= self.doa_deg < 90.0:
            raise DomainError(f"DOA must lie in [-90, 90), got {self.doa_deg}")
        if not self.power > 0.0:
            raise DomainError(f"source power must be positive, got {self.power}")


@dataclass(frozen=True)
class SourceScene:
    """SOI plus interferers plus white noise of variance ``noise_var``."""

    soi: SourceSpec
    interferers: tuple[SourceSpec, ...] = ()
    noise_var: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "interferers", tuple(self.interferers))
        if not self.noise_var > 0.0:
            raise DomainError(f"noise variance must be positive, got {self.noise_var}")
        doas = [self.soi.doa_deg] + [s.doa_deg for s in self.interferers]
        if len(set(doas)) != len(doas):
            raise DomainError(f"all DOAs must be distinct, got {doas}")


def steering_vector(geom: ArrayGeometry, doa_deg: float) -> np.ndarray:
    """ULA response ``a(theta)`` with elements ``exp(-j m 2 pi (d/lambda) sin(theta))``.

    Elements have unit modulus, so ``||a||^2 = M``.  The array is read-only;
    copy it before writing into it.
    """
    if not -90.0 <= doa_deg < 90.0:
        raise DomainError(f"DOA must lie in [-90, 90), got {doa_deg}")
    phase = 2.0 * np.pi * geom.d_over_lambda * math.sin(math.radians(doa_deg))
    a = np.exp(-1j * phase * np.arange(geom.antennas))
    a.setflags(write=False)
    return a


def build_incm(geom: ArrayGeometry, scene: SourceScene) -> np.ndarray:
    """Interference-plus-noise covariance ``Q = sum_k gamma_k a_k a_k^H + sigma^2 I``."""
    q = scene.noise_var * np.eye(geom.antennas, dtype=np.complex128)
    for src in scene.interferers:
        a_i = steering_vector(geom, src.doa_deg)
        q += src.power * np.outer(a_i, a_i.conj())
    return 0.5 * (q + q.conj().T)


@dataclass(frozen=True, eq=False)
class CovarianceModel:
    """Steering vector, SOI power, INCM ``Q`` and full covariance ``S = gamma a a^H + Q``,
    with the solves ``qinv_a = Q^{-1} a``, ``ah_qinv_a = a^H Q^{-1} a``,
    ``sinv_a = S^{-1} a`` and ``ah_sinv_a = a^H S^{-1} a``, each made once."""

    a: np.ndarray
    gamma: float
    incm: np.ndarray
    full: np.ndarray
    qinv_a: np.ndarray
    ah_qinv_a: float
    sinv_a: np.ndarray
    ah_sinv_a: float


def _solve_steering(cov: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, float]:
    """``(C^{-1} a, a^H C^{-1} a)`` through one Cholesky factor of ``C``."""
    cinv_a = solve_chol(cholesky(cov), a)
    denom = float(np.vdot(a, cinv_a).real)
    if denom <= 0.0:
        raise DomainError(f"a^H C^(-1) a must be positive, got {denom}")
    return cinv_a, denom


def cov_model_from_parts(a: np.ndarray, gamma: float, incm: np.ndarray) -> CovarianceModel:
    """Assemble a :class:`CovarianceModel` from a steering vector, SOI power and INCM."""
    a = np.asarray(a, dtype=np.complex128)
    if gamma < 0.0:
        raise DomainError(f"SOI power must be >= 0, got {gamma}")
    incm = hermitian_matrix(incm)
    if incm.shape[0] != a.size:
        raise DimensionMismatch(
            f"INCM is {incm.shape}, steering vector has length {a.size}"
        )
    full = gamma * np.outer(a, a.conj()) + incm
    full = 0.5 * (full + full.conj().T)
    qinv_a, ah_qinv_a = _solve_steering(incm, a)
    sinv_a, ah_sinv_a = _solve_steering(full, a)
    return CovarianceModel(a=a, gamma=float(gamma), incm=incm, full=full, qinv_a=qinv_a,
                           ah_qinv_a=ah_qinv_a, sinv_a=sinv_a, ah_sinv_a=ah_sinv_a)


def build_cov_model(geom: ArrayGeometry, scene: SourceScene) -> CovarianceModel:
    """Full array covariance model for a scene."""
    a = steering_vector(geom, scene.soi.doa_deg)
    return cov_model_from_parts(a, scene.soi.power, build_incm(geom, scene))


def capon_output_power(model: CovarianceModel) -> float:
    """Expected Capon beamformer output power ``1 / (a^H S^{-1} a)``.

    Equals ``gamma + 1 / (a^H Q^{-1} a)``, i.e. the true SOI power plus the
    positive bias term; the identity is exercised by the test suite.
    """
    return 1.0 / model.ah_sinv_a


def capon_bias(model: CovarianceModel) -> float:
    """Bias of the Capon power estimator, ``(a^H Q^{-1} a)^{-1} > 0``."""
    return 1.0 / model.ah_qinv_a


@dataclass(frozen=True)
class TheoryReport:
    """Closed-form quantities for a model under Gaussian snapshots."""

    gamma_cap: float
    gamma_mmse: float
    capon_bias: float
    mmse_bias: float
    mmse_waveform_mse: float
    alpha_o: float
    tau: float
    mse_min: float


def theory_report(model: CovarianceModel, snapshots: int) -> TheoryReport:
    """Evaluate the bias/MSE theory of the Capon, MMSE and shrunk-Capon beamformers.

    For circular Gaussian snapshots the optimal power shrinkage is
    ``alpha_o = (gamma / gamma_cap) T / (T + 1)`` and the attained minimum
    power-estimation MSE is ``gamma^2 / (T + 1)``, independent of the SNR.
    """
    if snapshots < 1:
        raise DomainError(f"snapshot count must be >= 1, got {snapshots}")
    t = float(snapshots)
    gamma = model.gamma
    gamma_cap = capon_output_power(model)
    bias = capon_bias(model)
    gamma_mmse = gamma**2 / gamma_cap
    tau = t / (t + 1.0)
    return TheoryReport(
        gamma_cap=gamma_cap,
        gamma_mmse=gamma_mmse,
        capon_bias=bias,
        mmse_bias=gamma_mmse - gamma,
        mmse_waveform_mse=(gamma / gamma_cap) * (gamma_cap - gamma),
        alpha_o=(gamma / gamma_cap) * tau,
        tau=tau,
        mse_min=gamma**2 / (t + 1.0),
    )


def alpha_from_kurtosis(
    gamma: float, gamma_cap: float, snapshots: int, kurt: float
) -> tuple[float, float]:
    """Optimal shrinkage for a beamformer output of known kurtosis.

    Returns ``(alpha, tau)`` with ``tau = T / (kurt + T + 1)`` and
    ``alpha = tau * gamma / gamma_cap``.  ``kurt = 0`` recovers the Gaussian
    optimum; ``kurt = -1`` (constant-modulus output) gives ``tau = 1`` and an
    unbiased shrunk power estimate.
    """
    if gamma_cap <= 0.0:
        raise DomainError(f"gamma_cap must be positive, got {gamma_cap}")
    if snapshots < 1:
        raise DomainError(f"snapshot count must be >= 1, got {snapshots}")
    if kurt < -2.0:
        raise DomainError(f"kurtosis of a complex variable is >= -2, got {kurt}")
    denom = kurt + snapshots + 1.0
    if denom <= 0.0:
        raise DomainError(f"kurt + T + 1 must be positive, got {denom}")
    tau = snapshots / denom
    return tau * gamma / gamma_cap, tau


def waveform_mse_theory(model: CovarianceModel, w: np.ndarray) -> float:
    """Expected squared waveform error ``E|s(t) - w^H x(t)|^2``.

    Evaluated through both algebraic forms,

        w^H S w + gamma (1 - 2 Re[w^H a])   and
        w^H Q w + gamma |w^H a - 1|^2,

    which are cross-checked to 1e-9 of ``max|S| ||w||^2 + gamma (1 + |w^H a|)^2``,
    the scale of their rounding (that of a quadratic form is bounded as in
    :func:`.linalg.quadratic_form`), before the (numerically benign,
    nonnegative-term) second form is returned.
    """
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != model.a.shape:
        raise DimensionMismatch(f"weight shape {w.shape} != steering shape {model.a.shape}")
    wa = np.vdot(w, model.a)
    full_qf = quadratic_form(model.full, w)
    full_soi = model.gamma * (1.0 - 2.0 * wa.real)
    incm_qf = quadratic_form(model.incm, w)
    incm_soi = model.gamma * abs(wa - 1.0) ** 2
    form_full = full_qf + full_soi
    form_incm = incm_qf + incm_soi
    scale = (float(np.abs(model.full).max()) * float(np.vdot(w, w).real)
             + model.gamma * (1.0 + abs(wa)) ** 2)
    if abs(form_full - form_incm) > _DUAL_FORM_RTOL * scale:
        raise DomainError(
            f"waveform MSE dual forms disagree: {float(form_full)!r} vs {float(form_incm)!r}"
        )
    return float(form_incm)


def output_moments_theory(
    geom: ArrayGeometry, scene: SourceScene, kind: WaveformKind, w: np.ndarray
) -> tuple[float, float]:
    """Population power ``E|w^H x(t)|^2`` and fourth moment ``E|w^H x(t)|^4``.

    The output is a sum of independent circular components, one per source
    and one of noise, with powers ``p_i``.  Its power is ``sum p_i`` and its
    fourth moment ``2 (sum p_i)^2 + sum (E|u_i|^4 - 2 p_i^2)``: Gaussian
    components add no excess, constant-modulus (8-PSK) sources ``-p_i^2``
    each.  The output's kurtosis is ``fourth / power^2 - 2``.
    """
    parts = np.array(
        [src.power * abs(np.vdot(w, steering_vector(geom, src.doa_deg))) ** 2
         for src in (scene.soi, *scene.interferers)]
        + [scene.noise_var * float(np.vdot(w, w).real)]
    )
    power = parts.sum()
    fourth = 2.0 * power**2
    if kind is WaveformKind.PSK8:
        fourth -= np.sum(parts[:-1] ** 2)
    return float(power), float(fourth)
