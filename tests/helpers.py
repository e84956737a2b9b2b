"""Shared construction helpers and independent oracles for the test suite."""

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from caponplus.arraymodel import (
    ArrayGeometry,
    CovarianceModel,
    SourceScene,
    SourceSpec,
    alpha_from_kurtosis,
    build_cov_model,
    steering_vector,
)
from caponplus.beamformers import apply_weights
from caponplus.errors import (
    DegenerateSample,
    DimensionMismatch,
    DomainError,
    NotPositiveDefinite,
)
from caponplus.estimation import (
    SampleCovariance,
    alpha_hat,
    debiased_power,
    output_moments,
)
from caponplus.linalg import cholesky, quadratic_form, solve_chol, zherk
import caponplus.signalsim as signalsim
from caponplus.signalsim import (
    SnapshotBatch,
    StreamRole,
    TrialRngs,
    WaveformKind,
    _amplitudes,
    _checked_count,
    _raw_draw,
)


def random_hpd(rng: np.random.Generator, m: int, jitter: float = 1.0) -> np.ndarray:
    """Random Hermitian positive definite matrix ``G G^H + jitter I``."""
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return g @ g.conj().T + jitter * np.eye(m)


def random_cvector(rng: np.random.Generator, m: int) -> np.ndarray:
    return rng.standard_normal(m) + 1j * rng.standard_normal(m)


def random_scene(rng: np.random.Generator, n_interferers: int = 2) -> SourceScene:
    """Random scene with distinct DOAs and powers in a moderate range."""
    doas = rng.permutation(np.arange(-85.0, 85.0, 2.5))[: n_interferers + 1]
    doas = doas + rng.uniform(-1.0, 1.0, size=doas.size)
    powers = 10.0 ** rng.uniform(-1.0, 1.0, size=n_interferers + 1)
    return SourceScene(
        soi=SourceSpec(float(doas[0]), float(powers[0])),
        interferers=tuple(
            SourceSpec(float(d), float(p)) for d, p in zip(doas[1:], powers[1:])
        ),
        noise_var=float(10.0 ** rng.uniform(-0.5, 0.5)),
    )


def random_model(rng: np.random.Generator, antennas: int = 6, n_interferers: int = 2):
    geom = ArrayGeometry(antennas, 0.5)
    scene = random_scene(rng, n_interferers)
    return geom, scene, build_cov_model(geom, scene)


def reference_cholesky(a: np.ndarray) -> np.ndarray:
    """Column-by-column complex Cholesky with the package's pivot rule.

    The reference for :func:`caponplus.linalg.cholesky`: returns the lower
    factor, or raises ``NotPositiveDefinite`` at the first pivot at or below
    ``M * eps * max(diag)``.
    """
    a = np.asarray(a, dtype=np.complex128)
    m = a.shape[0]
    tol = m * np.finfo(np.float64).eps * float(np.max(a.real.diagonal(), initial=0.0))
    lower = np.zeros_like(a)
    for j in range(m):
        col = a[j:, j] - lower[j:, :j] @ lower[j, :j].conj()
        pivot = col[0].real
        if pivot <= tol:
            raise NotPositiveDefinite(
                f"pivot {pivot:.3e} at index {j} is <= tolerance {tol:.3e}",
                pivot_index=j,
            )
        d = np.sqrt(pivot)
        lower[j, j] = d
        lower[j + 1 :, j] = col[1:] / d
    return lower


def reference_scm(x: np.ndarray) -> np.ndarray:
    """The reference for :func:`caponplus.estimation.scm`: ``zherk``'s lower
    triangle into an explicitly zeroed ``c``, mirrored by adding the
    conjugate transpose of its strict lower part (``np.tril(lower, -1)``)."""
    t, m = x.shape
    lower = zherk(
        1.0 / t, x.T, c=np.zeros((m, m), np.complex128, order="F"), lower=1, overwrite_c=1
    )
    return lower + np.tril(lower, -1).conj().T


def bits(a: np.ndarray) -> np.ndarray:
    """The raw 64-bit words of a float or complex array, in C order: equal
    exactly when every element has the same bits, signed zeros included."""
    return np.ascontiguousarray(a).view(np.uint64)


def _reference_stream(master_seed: int, trial_index: int, role: StreamRole) -> np.random.Generator:
    seq = np.random.SeedSequence(master_seed, spawn_key=(trial_index, int(role)))
    return np.random.Generator(np.random.PCG64(seq))


def _reference_waveform(
    kind: WaveformKind, gamma: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    if kind is WaveformKind.CIRCULAR_GAUSSIAN:
        z = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        return np.sqrt(gamma / 2.0) * z
    phases = rng.integers(0, 8, size=count) * (2.0 * np.pi / 8.0)
    return np.sqrt(gamma) * np.exp(1j * phases)


def _reference_interference(
    geom: ArrayGeometry,
    scene: SourceScene,
    kind: WaveformKind,
    count: int,
    wave_rng: np.random.Generator,
    noise_rng: np.random.Generator,
) -> np.ndarray:
    m = geom.antennas
    if scene.interferers:
        a_int = np.column_stack([steering_vector(geom, s.doa_deg) for s in scene.interferers])
        waves = np.column_stack(
            [_reference_waveform(kind, s.power, count, wave_rng) for s in scene.interferers]
        )
        e = waves @ a_int.T
    else:
        e = np.zeros((count, m), dtype=np.complex128)
    noise = noise_rng.standard_normal((count, m)) + 1j * noise_rng.standard_normal((count, m))
    e += np.sqrt(scene.noise_var / 2.0) * noise
    return e


def reference_synth_scene_snapshots(
    geom: ArrayGeometry, scene: SourceScene, kind: WaveformKind, count: int,
    master_seed: int, trial_index: int,
) -> SnapshotBatch:
    """The reference for :func:`caponplus.signalsim.synth_scene_snapshots`.

    One draw call per interferer and per real or imaginary part, with each
    role's stream seeded through ``np.random.SeedSequence`` directly.
    """
    s = _reference_waveform(
        kind, scene.soi.power, count, _reference_stream(master_seed, trial_index, StreamRole.SOI)
    )
    e = _reference_interference(
        geom, scene, kind, count,
        _reference_stream(master_seed, trial_index, StreamRole.INTERFERENCE),
        _reference_stream(master_seed, trial_index, StreamRole.NOISE),
    )
    e += s[:, None] * steering_vector(geom, scene.soi.doa_deg)[None, :]
    return SnapshotBatch(snapshots=e, truth=s)


def reference_synth_scene_secondary(
    geom: ArrayGeometry, scene: SourceScene, kind: WaveformKind, count: int,
    master_seed: int, trial_index: int,
) -> SnapshotBatch:
    """The reference for :func:`caponplus.signalsim.synth_scene_secondary`."""
    rng = _reference_stream(master_seed, trial_index, StreamRole.SECONDARY)
    e = _reference_interference(geom, scene, kind, count, rng, rng)
    return SnapshotBatch(snapshots=e, truth=np.empty(0, dtype=np.complex128))


def solve_hpd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A y = b`` for Hermitian positive definite ``A``."""
    return solve_chol(cholesky(a), b)


def capon_weights(cov: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Capon/MPDR weight ``w = C^{-1} a / (a^H C^{-1} a)`` from a fresh solve.

    ``cov`` may be the full array covariance or the INCM; by the
    Sherman-Morrison identity both produce the same weight vector.
    """
    cinv_a = solve_hpd(cov, a)
    return cinv_a / float(np.vdot(a, cinv_a).real)


def mmse_weights(gamma: float, cov: np.ndarray, a: np.ndarray) -> np.ndarray:
    """MMSE weight ``w = gamma S^{-1} a`` for SOI power ``gamma`` and full
    covariance ``S``, from a fresh solve."""
    return gamma * solve_hpd(cov, a)


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
        raise DomainError(f"a^H Q^{{-1}} a must be positive, got {ah_qinv_a}")
    denom = 1.0 + gamma * ah_qinv_a
    return np.asarray(qinv_a, dtype=np.complex128) / denom, ah_qinv_a / denom


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
    lower = cholesky(q_mat)
    qinv_a = solve_chol(lower, a)
    q = float(np.vdot(a, qinv_a).real)
    if q <= 0.0:
        raise DomainError(f"a^H Q^(-1) a must be positive, got {q}")
    s_hat = sample_cov.matrix
    r = float(np.vdot(qinv_a, s_hat @ qinv_a).real)
    trace0 = float(np.trace(solve_chol(lower, s_hat)).real)
    logdet0 = float(2.0 * np.sum(np.log(lower.real.diagonal())))
    return NllProfile(q=q, r=r, trace0=trace0, logdet0=logdet0)


def draw_waveform(
    kind: WaveformKind, gamma: float | Sequence[float], count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` i.i.d. waveform samples of power ``gamma``.

    Gaussian samples are CN(0, gamma) with independent real/imaginary parts
    of variance gamma/2.  8-PSK samples are ``sqrt(gamma) exp(j 2 pi k / 8)``
    with ``k`` uniform on ``{0..7}``, hence exactly constant modulus with
    population kurtosis -1.

    Given a sequence of K powers, returns a C-contiguous ``(count, K)`` array
    whose column ``k`` is a waveform of power ``gamma[k]``.  The K sources are
    drawn in order with one call: ``standard_normal((K, 2, count))`` (source
    k's real parts, then its imaginary parts) or
    ``integers(0, 8, size=(K, count))``.  This gives the same numbers as K
    single-power calls in turn on the same generator.  An 8-PSK sample's
    phasor is looked up in a table of the eight ``exp(j 2 pi k / 8)``, which
    holds the same bits as evaluating ``exp`` per sample.

    The draw and its checks are those of :mod:`caponplus.signalsim`'s
    synthesis kernel: the unscaled complex ``(count, K)`` draw of
    ``_raw_draw`` times the ``(K,)`` amplitudes of ``_amplitudes``, whose
    power check runs before anything is drawn.
    """
    powers = np.asarray(gamma, dtype=np.float64)
    amp = _amplitudes(kind, powers)
    waves = _raw_draw(kind, powers.size, _checked_count(count), rng) * amp
    return waves.reshape(count) if powers.ndim == 0 else waves


def draw_interference_noise(lower: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` Gaussian vectors ``e(t) = L z(t)`` with covariance ``Q = L L^H``."""
    if count < 1:
        raise DomainError(f"sample count must be >= 1, got {count}")
    m = lower.shape[0]
    z = (rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m))) / np.sqrt(2.0)
    return z @ lower.T


def synth_snapshots(
    model: CovarianceModel, kind: WaveformKind, count: int, rngs: TrialRngs
) -> SnapshotBatch:
    """Snapshots ``x(t) = s(t) a + e(t)`` with Gaussian interference-plus-noise.

    The SOI waveform follows ``kind``; ``e(t)`` is drawn as CN(0, Q) through
    the Cholesky factor of the model INCM, so any Hermitian positive definite
    ``Q`` can be sampled, not only one that a scene describes.  SOI and
    interference use disjoint role streams.
    """
    s = draw_waveform(kind, model.gamma, count, rngs.stream(StreamRole.SOI))
    e = draw_interference_noise(cholesky(model.incm), count, rngs.stream(StreamRole.INTERFERENCE))
    x = s[:, None] * model.a[None, :] + e
    return SnapshotBatch(snapshots=x, truth=s)


def synth_secondary(lower: np.ndarray, count: int, rng: np.random.Generator) -> SnapshotBatch:
    """SOI-free Gaussian secondary batch ``e'(t) ~ CN(0, Q)`` for ``Q = L L^H``."""
    e = draw_interference_noise(lower, count, rng)
    return SnapshotBatch(snapshots=e, truth=np.empty(0, dtype=np.complex128))


def count_draws(monkeypatch) -> dict:
    """Count the stream-draw lookups that synthesis makes.

    Synthesis looks ``signalsim._new_draws`` up at call time, so this swaps in
    a cache of the same size over the same draw function, which counts every
    lookup in ``counts["lookups"]`` and appends every miss's key, in order,
    to ``counts["made"]``.  Unlike the cache's own statistics, the counts
    survive ``clear_trial_memo``.
    """
    cached = signalsim._new_draws
    counts = {"lookups": 0, "made": []}

    def draw(*key):
        counts["made"].append(key)
        return cached.__wrapped__(*key)

    cache = functools.lru_cache(**cached.cache_parameters())(draw)

    def lookup(*key):
        counts["lookups"] += 1
        return cache(*key)

    lookup.cache_clear, lookup.cache_info = cache.cache_clear, cache.cache_info
    monkeypatch.setattr(signalsim, "_new_draws", lookup)
    return counts


def mean_abs_sq(out: np.ndarray) -> float:
    """Output power ``(1/T) sum |s_hat(t)|^2`` as one ``vdot``."""
    return float(np.vdot(out, out).real) / out.size


def kurtosis_estimate(samples: np.ndarray) -> float:
    """Kurtosis of zero-mean circular complex samples: ``m4 / m2^2 - 2``.

    Zero for circular Gaussian data, exactly -1 for any constant-modulus
    sample set.  The reference for the measured-alpha mode's kurtosis,
    which ``caponplus.montecarlo`` takes from the Capon output's moments.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.size < 2:
        raise DegenerateSample(f"need at least 2 samples, got {samples.size}")
    mag_sq = np.abs(samples) ** 2
    m2 = float(np.mean(mag_sq))
    if m2 <= 0.0:
        raise DegenerateSample("all samples are zero; kurtosis undefined")
    return float(np.mean(mag_sq**2)) / m2**2 - 2.0


def reference_records(gamma: float, truth: np.ndarray, entries) -> list[tuple]:
    """Score one trial method by method: one ``(method, rel_bias, se_nmse,
    sp_nmse)`` record per ``(method, output, gamma_hat)``, with the output
    power :func:`mean_abs_sq` where ``gamma_hat`` is ``None``."""
    if not gamma > 0.0:
        raise DomainError(f"true power must be positive, got {gamma}")
    truth_energy = float(np.vdot(truth, truth).real)
    if truth_energy <= 0.0:
        raise DegenerateSample("true waveform has zero energy")
    records = []
    for method, out, gamma_hat in entries:
        if gamma_hat is None:
            gamma_hat = mean_abs_sq(out)
        rel = (gamma_hat - gamma) / gamma
        err = out - truth
        records.append((method, rel, float(np.vdot(err, err).real) / truth_energy, rel * rel))
    return records


def reference_fixed_trial(config, ctx, idx: int) -> list[tuple]:
    """One trial of the oracle regime or regime a scored from its snapshot
    matrix: synthesise the primary batch, apply each fixed weight to it and
    score the methods one at a time.

    The reference for ``caponplus.montecarlo``'s fixed-weight trials, which
    project the trial's draws instead; the two differ by rounding only.
    """
    batch = signalsim.synth_scene_snapshots(config.geom, ctx.scene, config.waveform,
                                            config.snapshots, TrialRngs(config.master_seed, idx))
    gamma, t = ctx.model.gamma, config.snapshots
    out_cap = apply_weights(ctx.w_cap, batch)
    if config.regime.value == "oracle":
        gamma_cap_hat = mean_abs_sq(out_cap)
        alpha = ctx.alpha_oracle
        if config.waveform is WaveformKind.PSK8 and config.psk_alpha_mode.value == "measured":
            alpha, _ = alpha_from_kurtosis(gamma, ctx.theory.gamma_cap, t,
                                           kurtosis_estimate(out_cap))
        return reference_records(gamma, batch.truth, (
            ("CB", apply_weights(ctx.w_cb, batch), None),
            ("Capon", out_cap, gamma_cap_hat),
            ("MMSE", apply_weights(ctx.w_mmse, batch), None),
            ("CaponPlus", math.sqrt(alpha) * out_cap, alpha * gamma_cap_hat),
        ))
    gamma_cap_hat, m4 = output_moments(out_cap)
    q = ctx.model.ah_qinv_a
    gamma_num = debiased_power(gamma_cap_hat, q)
    mmse_scale = gamma_num * q / (1.0 + gamma_num * q)
    alpha = alpha_hat(gamma_cap_hat, m4, gamma_num, t)
    deb_scale = math.sqrt(gamma_num / gamma_cap_hat) if gamma_cap_hat > 0.0 else 0.0
    return reference_records(gamma, batch.truth, (
        ("Capon", out_cap, gamma_cap_hat),
        ("MMSE", mmse_scale * out_cap, mmse_scale**2 * gamma_cap_hat),
        ("CaponPlus", math.sqrt(alpha) * out_cap, alpha * gamma_cap_hat),
        ("Debiased", deb_scale * out_cap, gamma_num),
    ))


def reference_adaptive_trial(config, ctx, idx: int) -> list[tuple]:
    """One trial of regime b, c or d from the paper's formulas, method by
    method.

    The SCM ``C_hat`` of the training snapshots (the primary batch in regime
    b; in c and d the first T0 snapshots of a secondary batch of the run's
    ``points.secondary_draw`` snapshots, the largest T0 of a T0 sweep, a rule
    ``TestT0SweepSharesOneSecondaryDraw`` checks) gives the Capon weight
    ``C_hat^{-1} a / (a^H C_hat^{-1} a)`` and the plug-in power
    ``p = 1 / (a^H C_hat^{-1} a)``.  With ``ghat`` and ``m4`` the power and
    fourth moment of the Capon output, the SOI power is ``g = gamma`` (b, c)
    or the inverse-Wishart debiased ``max(ghat - T0 / (T0 - M) p, 0)`` (d);
    the MMSE weight is ``gamma C_hat^{-1} a`` (b) or ``g / ghat`` times the
    Capon weight (c, d); and CaponPlus shrinks the Capon output by
    ``alpha = T ghat g / (m4 + (T - 1) ghat^2)``.  In regime b, whose weight
    beamforms the batch it was trained on, ``ghat`` is ``p`` in exact
    arithmetic; ``ghat`` carries less rounding than ``p``, which grows with
    ``cond(C_hat)`` (``test_plug_in_power_is_output_power`` in
    ``test_beamformers.py`` bounds the two apart).  Regime d adds the
    Debiased row, power ``g``, waveform the Capon output rescaled to that
    power.

    The reference for ``caponplus.montecarlo``'s adaptive trials, which
    scale the one Capon output instead; the two differ by rounding only.
    """
    regime = config.regime.value
    rngs = TrialRngs(config.master_seed, idx)
    batch = signalsim.synth_scene_snapshots(config.geom, ctx.scene, config.waveform,
                                            config.snapshots, rngs)
    if regime == "b":
        train = batch.snapshots
    else:
        t0 = ctx.secondary_snapshots
        train = signalsim.synth_scene_secondary(config.geom, ctx.scene, config.waveform,
                                                ctx.points.secondary_draw, rngs).snapshots[:t0]
    cov, a = reference_scm(train), ctx.model.a
    gamma, t = ctx.model.gamma, config.snapshots
    x = batch.snapshots
    out_cap = x @ capon_weights(cov, a).conj()
    gamma_cap_hat = mean_abs_sq(out_cap)
    m4 = float(np.mean(np.abs(out_cap) ** 4))
    if regime == "d":
        plug_in = 1.0 / float(np.vdot(a, solve_hpd(cov, a)).real)
        g = max(gamma_cap_hat - t0 / (t0 - config.geom.antennas) * plug_in, 0.0)
    else:
        g = gamma
    if regime == "b":
        out_mmse = x @ mmse_weights(gamma, cov, a).conj()
    else:
        out_mmse = g / gamma_cap_hat * out_cap
    alpha = t * gamma_cap_hat * g / (m4 + (t - 1) * gamma_cap_hat**2)
    entries = [
        ("Capon", out_cap, None),
        ("MMSE", out_mmse, None),
        ("CaponPlus", math.sqrt(alpha) * out_cap, None),
    ]
    if regime == "d":
        entries.append(("Debiased", math.sqrt(g / gamma_cap_hat) * out_cap, g))
    return reference_records(gamma, batch.truth, entries)
