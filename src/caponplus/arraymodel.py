"""ULA steering vectors, array covariance models, and closed-form beamformer theory.

The covariance model follows the narrowband snapshot model
``x(t) = s(t) a + e(t)`` with array covariance ``S = gamma a a^H + Q``,
where ``a`` is the steering vector of the signal of interest (SOI),
``gamma`` its power, and ``Q`` the interference-plus-noise covariance
(INCM).  All powers are linear and all angles cross the public API in
degrees; dB conversions belong to the CLI layer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError
from .linalg import cholesky, hermitian_matrix, quadratic_form, solve_chol

__all__ = [
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
    "single_interferer_bias",
    "theory_report",
    "alpha_from_kurtosis",
    "waveform_mse_theory",
    "bias_theory",
    "power_variance_gaussian",
]

_DUAL_FORM_RTOL = 1e-9


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: ``antennas`` elements spaced ``d_over_lambda`` wavelengths."""

    antennas: int
    d_over_lambda: float = 0.5

    def __post_init__(self):
        if self.antennas < 2:
            raise DomainError(f"need at least 2 antennas, got {self.antennas}")
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

    @property
    def all_sources(self) -> tuple[SourceSpec, ...]:
        return (self.soi,) + self.interferers


def steering_vector(geom: ArrayGeometry, doa_deg: float) -> np.ndarray:
    """ULA response ``a(theta)`` with elements ``exp(-j m 2 pi (d/lambda) sin(theta))``.

    Elements have unit modulus, so ``||a||^2 = M``.
    """
    if not -90.0 <= doa_deg < 90.0:
        raise DomainError(f"DOA must lie in [-90, 90), got {doa_deg}")
    return _steering_cached(geom, float(doa_deg)).copy()


@functools.lru_cache(maxsize=1024)
def _steering_cached(geom: ArrayGeometry, doa_deg: float) -> np.ndarray:
    phase = 2.0 * np.pi * geom.d_over_lambda * math.sin(math.radians(doa_deg))
    a = np.exp(-1j * phase * np.arange(geom.antennas))
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=256)
def _steering_matrix_cached(geom: ArrayGeometry, doas_deg: tuple) -> np.ndarray:
    """Steering vectors of several DOAs as the columns of a read-only M x K matrix."""
    for d in doas_deg:
        if not -90.0 <= d < 90.0:
            raise DomainError(f"DOA must lie in [-90, 90), got {d}")
    mat = np.column_stack([_steering_cached(geom, d) for d in doas_deg])
    mat.setflags(write=False)
    return mat


def build_incm(geom: ArrayGeometry, scene: SourceScene) -> np.ndarray:
    """Interference-plus-noise covariance ``Q = sum_k gamma_k a_k a_k^H + sigma^2 I``."""
    q = scene.noise_var * np.eye(geom.antennas, dtype=np.complex128)
    for src in scene.interferers:
        a_i = steering_vector(geom, src.doa_deg)
        q += src.power * np.outer(a_i, a_i.conj())
    return 0.5 * (q + q.conj().T)


@dataclass(frozen=True, eq=False)
class CovarianceModel:
    """Steering vector, SOI power, INCM ``Q`` and full covariance ``S = gamma a a^H + Q``."""

    a: np.ndarray
    gamma: float
    incm: np.ndarray
    full: np.ndarray

    # Q factor and solves, computed on first use and kept per model under their names
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def qinv_a(self) -> np.ndarray:
        """``Q^{-1} a`` (cached)."""
        if "qinv_a" not in self._cache:
            self._cache["qinv_a"] = solve_chol(self.q_factor(), self.a)
        return self._cache["qinv_a"]

    def q_factor(self):
        if "q_factor" not in self._cache:
            self._cache["q_factor"] = cholesky(self.incm)
        return self._cache["q_factor"]

    def ah_qinv_a(self) -> float:
        if "ah_qinv_a" not in self._cache:
            val = np.vdot(self.a, self.qinv_a())
            self._cache["ah_qinv_a"] = float(val.real)
        return self._cache["ah_qinv_a"]


def cov_model_from_parts(a: np.ndarray, gamma: float, incm: np.ndarray) -> CovarianceModel:
    """Assemble a :class:`CovarianceModel` from a steering vector, SOI power and INCM."""
    a = np.asarray(a, dtype=np.complex128)
    if gamma < 0.0:
        raise DomainError(f"SOI power must be >= 0, got {gamma}")
    incm = hermitian_matrix(incm, posdef_hint=True)
    if incm.shape[0] != a.size:
        raise DimensionMismatch(
            f"INCM is {incm.shape}, steering vector has length {a.size}"
        )
    full = gamma * np.outer(a, a.conj()) + incm
    full = 0.5 * (full + full.conj().T)
    return CovarianceModel(a=a, gamma=float(gamma), incm=incm, full=full)


def build_cov_model(geom: ArrayGeometry, scene: SourceScene) -> CovarianceModel:
    """Full array covariance model for a scene."""
    a = steering_vector(geom, scene.soi.doa_deg)
    return cov_model_from_parts(a, scene.soi.power, build_incm(geom, scene))


def capon_output_power(model: CovarianceModel) -> float:
    """Expected Capon beamformer output power ``1 / (a^H S^{-1} a)``.

    Equals ``gamma + 1 / (a^H Q^{-1} a)``, i.e. the true SOI power plus the
    positive bias term; the identity is exercised by the test suite.
    """
    sinv_a = solve_chol(cholesky(model.full), model.a)
    denom = np.vdot(model.a, sinv_a).real
    if denom <= 0.0:
        raise DomainError(f"a^H S^(-1) a must be positive, got {denom}")
    return float(1.0 / denom)


def capon_bias(model: CovarianceModel) -> float:
    """Bias of the Capon power estimator, ``(a^H Q^{-1} a)^{-1} > 0``."""
    return 1.0 / model.ah_qinv_a()


def single_interferer_bias(
    geom: ArrayGeometry, soi_doa_deg: float, int_doa_deg: float, inr: float, noise_var: float = 1.0
) -> float:
    """Closed-form Capon bias for one interferer at ``int_doa_deg`` with INR ``gamma_I/sigma^2``.

    With ``Q = gamma_I a_I a_I^H + sigma^2 I`` the Sherman-Morrison identity gives

        (a^H Q^{-1} a)^{-1}
            = sigma^2 (1 + M INR) / (M (1 + M INR) - INR |a^H a_I|^2).

    At ``a_I = a`` this reduces to ``sigma^2 (1 + M INR) / M`` and for an
    orthogonal interferer to the white-noise value ``sigma^2 / M``.
    """
    if inr < 0.0:
        raise DomainError(f"INR must be >= 0, got {inr}")
    m = geom.antennas
    a = steering_vector(geom, soi_doa_deg)
    a_i = steering_vector(geom, int_doa_deg)
    cross = abs(np.vdot(a_i, a)) ** 2
    return float(noise_var * (1.0 + m * inr) / (m * (1.0 + m * inr) - inr * cross))


@dataclass(frozen=True)
class TheoryReport:
    """Closed-form quantities for a model under Gaussian snapshots."""

    gamma_cap: float
    gamma_mmse: float
    capon_bias: float
    mmse_bias: float
    capon_waveform_mse: float
    mmse_waveform_mse: float
    alpha_o: float
    tau: float
    mse_min: float
    delta_o: float


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
        capon_waveform_mse=bias,
        mmse_waveform_mse=(gamma / gamma_cap) * (gamma_cap - gamma),
        alpha_o=(gamma / gamma_cap) * tau,
        tau=tau,
        mse_min=gamma**2 / (t + 1.0),
        delta_o=tau,
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

    which are cross-checked to 1e-9 relative before the (numerically benign,
    nonnegative-term) second form is returned.
    """
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != model.a.shape:
        raise DimensionMismatch(f"weight shape {w.shape} != steering shape {model.a.shape}")
    wa = np.vdot(w, model.a)
    form_full = quadratic_form(model.full, w) + model.gamma * (1.0 - 2.0 * wa.real)
    form_incm = quadratic_form(model.incm, w) + model.gamma * abs(wa - 1.0) ** 2
    scale = max(abs(form_full), abs(form_incm), 1e-300)
    if abs(form_full - form_incm) > _DUAL_FORM_RTOL * scale:
        raise DomainError(
            f"waveform MSE dual forms disagree: {form_full!r} vs {form_incm!r}"
        )
    return float(form_incm)


def bias_theory(model: CovarianceModel, w: np.ndarray) -> float:
    """Bias of the power estimator for a fixed weight: ``gamma(|w^H a|^2 - 1) + w^H Q w``."""
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != model.a.shape:
        raise DimensionMismatch(f"weight shape {w.shape} != steering shape {model.a.shape}")
    wa = np.vdot(w, model.a)
    return float(model.gamma * (abs(wa) ** 2 - 1.0) + quadratic_form(model.incm, w))


def power_variance_gaussian(model: CovarianceModel, w: np.ndarray, snapshots: int) -> float:
    """Variance of the ``T``-snapshot power estimate for Gaussian data: ``(w^H S w)^2 / T``."""
    if snapshots < 1:
        raise DomainError(f"snapshot count must be >= 1, got {snapshots}")
    return quadratic_form(model.full, w) ** 2 / snapshots
