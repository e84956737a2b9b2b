"""Monte-Carlo orchestration of the power-estimation experiments.

Five regimes are supported, each sweeping SNR or the secondary sample count:

``oracle``
    True covariances and SOI power are known; beamformers use the exact
    weights.  Methods: CB, Capon, MMSE, CaponPlus.
``a``
    INCM known, SOI power estimated by the debiased Capon estimator; the
    shrinkage factor is its adaptive plug-in.  Adds a ``Debiased`` power row.
``b``
    SOI power known, covariance estimated by the SCM of the same snapshots
    used for beamforming (requires ``T > M``).
``c``
    SOI power known, INCM estimated from an SOI-free secondary batch of
    ``T0 > M`` snapshots; weights use the estimated INCM in the Q-form.
``d``
    As ``c`` but with the SOI power estimated via the inverse-Wishart
    corrected debiased estimator (``c = T0 / (T0 - M)``).

Regimes a to d share one trial: synthesize the batch, form the Capon
weight, beamform, take the output power and fourth moment, estimate the
shrinkage, and score Capon, MMSE and CaponPlus.  The regime picks

* the Capon weight: the exact ``w_cap`` (a), or the adaptive weight from
  the SCM of the primary batch (b) or of the secondary batch (c, d);
* the SOI power in the shrinkage numerator and the MMSE scale: the known
  ``gamma`` (b, c), the debiased estimate (a) or its inverse-Wishart
  scaled form (d);
* whether a ``Debiased`` row is added (a, d).

Regime b divides by its plug-in power ``1 / (a^H S_hat^{-1} a)``, c and d
by the measured output power; regime a scales its MMSE row by
``g q / (1 + g q)`` with ``q = a^H Q^{-1} a``.

An additional ``alpha_sweep`` mode tabulates the closed-form row of the
shrunk Capon weight ``sqrt(alpha) w_cap`` over a grid of shrinkage factors;
it needs no Monte-Carlo trials.

Reports are a pure function of the configuration: trials are seeded by
``(master_seed, trial_index)``, run independently (optionally across
processes), and aggregated in trial-index order, so the thread count never
changes any output bit.

A run with ``threads > 1`` forks one worker pool and keeps it for every
sweep point.  The parent builds each point's :class:`SweepContext` once,
sends it with that point's chunks of trials, and reuses it for the theory
rows.  Chunks are submitted one point at a time, which keeps the results
held in flight, and so the peak memory, to one point's worth.

Trials stay one at a time, each with its own ``(seed, trial, role)``
streams.  Batching trials does not pay at the reference size ``M = 25``:
on a 2-vCPU Intel Xeon, ``numpy.linalg.cholesky`` on a stack of 64 such
matrices cost 6.0 us per matrix, against 4.2 us for one ``zpotrf`` call.
"""

from __future__ import annotations

import contextlib
import enum
import math
import multiprocessing
import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .arraymodel import (
    ArrayGeometry,
    CovarianceModel,
    SourceScene,
    SourceSpec,
    TheoryReport,
    alpha_from_kurtosis,
    build_cov_model,
    theory_report,
    waveform_mse_theory,
)
from .beamformers import (
    adaptive_capon_weights,
    apply_weights,
    capon_plus_weights,
    capon_weights,
    cb_weights,
    mmse_weights,
)
from .errors import ConfigError, DomainError, NotPositiveDefinite, TrialFailureError
from .linalg import quadratic_form
from .estimation import (
    alpha_hat,
    debiased_power,
    debiased_power_scaled,
    kurtosis_estimate,
    output_moments,
    scm,
)
from .metrics import AggregateRecord, TrialRecord, aggregate, mean_abs_sq, trial_records
from .signalsim import (
    TrialRngs,
    WaveformKind,
    output_fourth_moment,
    output_kurtosis,
    synth_scene_secondary,
    synth_scene_snapshots,
)

__all__ = [
    "Regime",
    "SweepVariable",
    "PskAlphaMode",
    "SweepSpec",
    "ScenarioConfig",
    "SweepPointResult",
    "ScenarioReport",
    "snr_to_scene",
    "build_context",
    "run_trial",
    "run_scenario",
    "DEFAULT_GEOMETRY",
    "DEFAULT_SOI_DOA_DEG",
    "DEFAULT_INTERFERER_DOAS_DEG",
    "DEFAULT_INTERFERER_OFFSETS_DB",
    "DEFAULT_NOISE_VAR",
    "scene_from_db",
]

# Experiment constants of the reference setup: 25-element half-wavelength ULA,
# SOI at -45.02 deg, three interferers 2/4/6 dB below the SOI, unit noise.
DEFAULT_GEOMETRY = ArrayGeometry(antennas=25, d_over_lambda=0.5)
DEFAULT_SOI_DOA_DEG = -45.02
DEFAULT_INTERFERER_DOAS_DEG = (-30.02, -20.02, -3.0)
DEFAULT_INTERFERER_OFFSETS_DB = (2.0, 4.0, 6.0)
DEFAULT_NOISE_VAR = 1.0

MAX_FAILURE_SHARE = 0.01


class Regime(enum.Enum):
    ORACLE = "oracle"
    A = "a"
    B = "b"
    C = "c"
    D = "d"
    ALPHA_SWEEP = "alpha_sweep"


class SweepVariable(enum.Enum):
    SNR_DB = "snr_db"
    T0 = "t0"
    ALPHA = "alpha"


class PskAlphaMode(enum.Enum):
    """How the oracle-regime shrinkage is chosen for constant-modulus sources.

    ``kappa_minus_one`` applies the constant-modulus kurtosis shortcut
    (exact at high SNR), ``exact`` evaluates the population kurtosis of the
    Capon output, and ``measured`` estimates the kurtosis per trial from the
    beamformed samples.
    """

    KAPPA_MINUS_ONE = "kappa_minus_one"
    EXACT = "exact"
    MEASURED = "measured"


@dataclass(frozen=True)
class SweepSpec:
    variable: SweepVariable
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


@dataclass(frozen=True)
class ScenarioConfig:
    regime: Regime
    geom: ArrayGeometry
    base_scene: SourceScene
    waveform: WaveformKind
    snapshots: int
    secondary_snapshots: int
    trials: int
    master_seed: int
    sweep: SweepSpec
    psk_alpha_mode: PskAlphaMode = PskAlphaMode.KAPPA_MINUS_ONE

    def validate(self) -> None:
        """Raise :class:`ConfigError` listing every violated invariant."""
        problems: list[str] = []
        m = self.geom.antennas
        sweep_var = self.sweep.variable
        if not self.sweep.values:
            problems.append("sweep.values must not be empty")
        if (self.regime is Regime.ALPHA_SWEEP) != (sweep_var is SweepVariable.ALPHA):
            problems.append("the alpha sweep variable pairs exclusively with the alpha_sweep regime")
        if self.snapshots < 1:
            problems.append(f"snapshots must be >= 1, got {self.snapshots}")
        if self.regime is not Regime.ALPHA_SWEEP and self.trials < 100:
            problems.append(f"trials must be >= 100, got {self.trials}")
        if sweep_var is SweepVariable.T0 and self.regime not in (Regime.C, Regime.D):
            problems.append("sweeping T0 is only meaningful in regimes c and d")
        if sweep_var is SweepVariable.SNR_DB and self.base_scene.noise_var != 1.0:
            problems.append("SNR sweeps require unit noise variance in the base scene")
        if sweep_var is SweepVariable.ALPHA and any(v < 0.0 for v in self.sweep.values):
            problems.append("alpha sweep values must be >= 0")
        if self.regime is Regime.B and self.snapshots <= m:
            problems.append(
                f"regime b needs snapshots > antennas, got T = {self.snapshots}, M = {m}"
            )
        if self.regime in (Regime.C, Regime.D):
            if sweep_var is SweepVariable.T0:
                bad = [v for v in self.sweep.values if v != int(v) or int(v) <= m]
                if bad:
                    problems.append(
                        f"every swept T0 must be an integer > M = {m}, offending values: {bad}"
                    )
            elif self.secondary_snapshots <= m:
                problems.append(
                    f"regimes c/d need secondary_snapshots (T0) > M, got "
                    f"T0 = {self.secondary_snapshots}, M = {m}"
                )
        if problems:
            raise ConfigError("; ".join(problems))


def scene_from_db(
    snr_db: float = 0.0,
    soi_doa_deg: float = DEFAULT_SOI_DOA_DEG,
    interferer_doas_deg: Sequence[float] = DEFAULT_INTERFERER_DOAS_DEG,
    interferer_offsets_db: Sequence[float] = DEFAULT_INTERFERER_OFFSETS_DB,
    noise_var: float = DEFAULT_NOISE_VAR,
) -> SourceScene:
    """A scene given in dB: the SOI ``snr_db`` dB over the noise, each
    interferer its offset in dB below the SOI.  The defaults are the
    reference setup."""
    if len(interferer_doas_deg) != len(interferer_offsets_db):
        raise ConfigError(
            f"interferer_doas_deg has {len(interferer_doas_deg)} entries but "
            f"interferer_offsets_db has {len(interferer_offsets_db)}"
        )
    soi_power = noise_var * 10.0 ** (snr_db / 10.0)
    return SourceScene(
        soi=SourceSpec(soi_doa_deg, soi_power),
        interferers=tuple(
            SourceSpec(doa, soi_power * 10.0 ** (-off / 10.0))
            for doa, off in zip(interferer_doas_deg, interferer_offsets_db)
        ),
        noise_var=noise_var,
    )


def snr_to_scene(base_scene: SourceScene, snr_db: float) -> SourceScene:
    """Rescale a unit-noise scene so the SOI sits at ``snr_db`` dB over the noise.

    Interferer powers keep their dB offsets relative to the SOI.
    """
    if base_scene.noise_var != 1.0:
        raise DomainError(
            f"SNR is defined against unit noise variance, scene has {base_scene.noise_var}"
        )
    soi_power = 10.0 ** (snr_db / 10.0)
    ratio = soi_power / base_scene.soi.power
    return SourceScene(
        soi=SourceSpec(base_scene.soi.doa_deg, soi_power),
        interferers=tuple(
            SourceSpec(s.doa_deg, s.power * ratio) for s in base_scene.interferers
        ),
        noise_var=1.0,
    )


@dataclass(frozen=True, eq=False)
class SweepContext:
    """Precomputed per-sweep-point quantities shared by all trials."""

    scene: SourceScene
    model: CovarianceModel
    theory: TheoryReport
    secondary_snapshots: int
    w_cb: np.ndarray
    w_cap: np.ndarray
    w_mmse: np.ndarray
    alpha_oracle: float
    w_cap_plus: np.ndarray


def _oracle_alpha(config: ScenarioConfig, scene: SourceScene, model: CovarianceModel,
                  theory: TheoryReport, w_cap: np.ndarray) -> float:
    if config.waveform is WaveformKind.CIRCULAR_GAUSSIAN:
        return theory.alpha_o
    if config.psk_alpha_mode is PskAlphaMode.EXACT:
        kurt = output_kurtosis(config.geom, scene, config.waveform, w_cap)
    else:
        # constant-modulus shortcut; also the placeholder in measured mode,
        # where each trial re-estimates the kurtosis from its own output.
        kurt = -1.0
    alpha, _ = alpha_from_kurtosis(model.gamma, theory.gamma_cap, config.snapshots, kurt)
    return alpha


def build_context(config: ScenarioConfig, sweep_value: float) -> SweepContext:
    """Resolve the scene at one sweep point and precompute the oracle quantities."""
    if config.sweep.variable is SweepVariable.SNR_DB:
        scene = snr_to_scene(config.base_scene, sweep_value)
        t0 = config.secondary_snapshots
    elif config.sweep.variable is SweepVariable.T0:
        scene = config.base_scene
        t0 = int(sweep_value)
    else:
        scene = config.base_scene
        t0 = config.secondary_snapshots
    model = build_cov_model(config.geom, scene)
    theory = theory_report(model, config.snapshots)
    w_cap = capon_weights(model.full, model.a)
    alpha_oracle = _oracle_alpha(config, scene, model, theory, w_cap)
    return SweepContext(
        scene=scene,
        model=model,
        theory=theory,
        secondary_snapshots=t0,
        w_cb=cb_weights(model.a),
        w_cap=w_cap,
        w_mmse=mmse_weights(model.gamma, model.full, model.a),
        alpha_oracle=alpha_oracle,
        w_cap_plus=capon_plus_weights(w_cap, alpha_oracle),
    )


def _trial_oracle(config: ScenarioConfig, ctx: SweepContext, idx: int) -> list[TrialRecord]:
    rngs = TrialRngs(config.master_seed, idx)
    batch = synth_scene_snapshots(config.geom, ctx.scene, config.waveform, config.snapshots, rngs)
    gamma = ctx.model.gamma
    out_cap = apply_weights(ctx.w_cap, batch)
    gamma_cap_hat = mean_abs_sq(out_cap)

    alpha = ctx.alpha_oracle
    if (
        config.waveform is WaveformKind.PSK8
        and config.psk_alpha_mode is PskAlphaMode.MEASURED
    ):
        kurt = kurtosis_estimate(out_cap)
        alpha, _ = alpha_from_kurtosis(
            gamma, ctx.theory.gamma_cap, config.snapshots, kurt
        )

    return trial_records(
        idx,
        gamma,
        batch.truth,
        (
            ("CB", apply_weights(ctx.w_cb, batch), None, 1.0),
            ("Capon", out_cap, gamma_cap_hat, 1.0),
            ("MMSE", apply_weights(ctx.w_mmse, batch), None,
             (gamma / ctx.theory.gamma_cap) ** 2),
            ("CaponPlus", math.sqrt(alpha) * out_cap, alpha * gamma_cap_hat, alpha),
        ),
    )


def _trial_adaptive(config: ScenarioConfig, ctx: SweepContext, idx: int) -> list[TrialRecord]:
    """One trial of regime a, b, c or d; see the module docstring."""
    regime = config.regime
    rngs = TrialRngs(config.master_seed, idx)
    batch = synth_scene_snapshots(config.geom, ctx.scene, config.waveform, config.snapshots, rngs)
    gamma = ctx.model.gamma

    if regime is Regime.A:
        w_cap = ctx.w_cap
    else:
        training = batch if regime is Regime.B else synth_scene_secondary(
            config.geom, ctx.scene, config.waveform, ctx.secondary_snapshots, rngs
        )
        # plug_in = 1 / (a^H C_hat^{-1} a) for the SCM C_hat of the training batch
        w_cap, plug_in = adaptive_capon_weights(scm(training).matrix, ctx.model.a)
    out_cap = apply_weights(w_cap, batch)
    gamma_cap_hat, m4 = output_moments(out_cap)

    power = plug_in if regime is Regime.B else gamma_cap_hat
    if regime is Regime.A:
        q = ctx.model.ah_qinv_a()
        gamma_num = debiased_power(gamma_cap_hat, q)
        mmse_scale = gamma_num * q / (1.0 + gamma_num * q)
    else:
        gamma_num = debiased_power_scaled(
            gamma_cap_hat, 1.0 / plug_in, ctx.secondary_snapshots, config.geom.antennas
        ) if regime is Regime.D else gamma
        # gamma S_hat^{-1} a in regime b is the Capon weight scaled by gamma over
        # its plug-in power; with an estimated INCM (c/d) the measured output
        # power stands in for the plug-in one.
        mmse_scale = gamma_num / power if power > 0.0 else 0.0
    alpha = alpha_hat(power, m4, gamma_num, config.snapshots)

    entries = [
        ("Capon", out_cap, gamma_cap_hat, 1.0),
        ("MMSE", mmse_scale * out_cap, mmse_scale**2 * gamma_cap_hat, mmse_scale**2),
        ("CaponPlus", math.sqrt(alpha) * out_cap, alpha * gamma_cap_hat, alpha),
    ]
    if regime in (Regime.A, Regime.D):
        # Power-only estimator; its waveform column reports the power-matched
        # rescaling of the Capon output.
        deb_scale = math.sqrt(gamma_num / gamma_cap_hat) if gamma_cap_hat > 0.0 else 0.0
        entries.append(("Debiased", deb_scale * out_cap, gamma_num, deb_scale**2))
    return trial_records(idx, gamma, batch.truth, entries)


_TRIAL_FUNCS = {
    Regime.ORACLE: _trial_oracle,
    Regime.A: _trial_adaptive,
    Regime.B: _trial_adaptive,
    Regime.C: _trial_adaptive,
    Regime.D: _trial_adaptive,
}


def run_trial(
    config: ScenarioConfig,
    sweep_value: float,
    trial_index: int,
    ctx: SweepContext | None = None,
) -> list[TrialRecord]:
    """Run one Monte-Carlo trial and return one record per method."""
    if ctx is None:
        ctx = build_context(config, sweep_value)
    return _TRIAL_FUNCS[config.regime](config, ctx, trial_index)


def _run_chunk(args) -> list[list[TrialRecord] | None]:
    """Records of trials ``start`` to ``stop - 1`` in index order; ``None``
    for a trial whose sample covariance cannot be factored."""
    config, sweep_value, ctx, start, stop = args
    out = []
    for idx in range(start, stop):
        try:
            out.append(run_trial(config, sweep_value, idx, ctx))
        except NotPositiveDefinite:
            out.append(None)
    return out


def _theory_rows(config: ScenarioConfig, ctx: SweepContext) -> list[AggregateRecord]:
    """Closed-form overlay rows (zero-stderr, zero-trial aggregates).

    The CaponPlus row reflects the configured shrinkage rule through the
    weights stored in the context.
    """
    entries = [
        ("CaponTheory", ctx.w_cap),
        ("MMSETheory", ctx.w_mmse),
        ("CaponPlusTheory", ctx.w_cap_plus),
    ]
    if config.regime is Regime.ORACLE:
        entries.insert(0, ("CBTheory", ctx.w_cb))
    return [_theory_row(config, ctx, method, w) for method, w in entries]


def _theory_row(config: ScenarioConfig, ctx: SweepContext, method: str,
                w: np.ndarray) -> AggregateRecord:
    """Closed-form bias, SE-NMSE and SP-NMSE of the fixed weight ``w``.

    ``mean_se_nmse`` is the ratio of expectations
    ``E|w^H x - s|^2 / gamma = |w^H a - 1|^2 + w^H Q w / gamma``.  The
    Monte-Carlo column averages the per-trial ratio
    ``sum_t |w^H x(t) - s(t)|^2 / sum_t |s(t)|^2`` instead, whose mean for a
    circular Gaussian SOI is ``|w^H a - 1|^2 + T/(T-1) w^H Q w / gamma``:
    ``E[1 / sum_t |s(t)|^2] = 1 / ((T-1) gamma)``.  The two differ by about
    ``1/T`` of the noise term, which many trials resolve.
    """
    gamma = ctx.model.gamma
    t = config.snapshots
    out_power = quadratic_form(ctx.model.full, w)
    fourth = output_fourth_moment(config.geom, ctx.scene, config.waveform, w)
    var = (fourth - out_power**2) / t
    bias = out_power - gamma
    return AggregateRecord(
        method=method,
        mean_rel_bias=bias / gamma,
        mean_se_nmse=waveform_mse_theory(ctx.model, w) / gamma,
        mean_sp_nmse=(var + bias**2) / gamma**2,
        stderr_rel_bias=0.0,
        stderr_se_nmse=0.0,
        stderr_sp_nmse=0.0,
        n_trials=0,
    )


@dataclass(frozen=True)
class SweepPointResult:
    sweep_value: float
    aggregates: list[AggregateRecord]
    n_trials: int
    n_failed: int


@dataclass(frozen=True)
class ScenarioReport:
    config: ScenarioConfig
    points: list[SweepPointResult]
    wall_time_s: float
    version: str = __version__

    @property
    def sweep_variable(self) -> SweepVariable:
        return self.config.sweep.variable


def run_scenario(
    config: ScenarioConfig, threads: int = 1, emit_theory: bool = False
) -> ScenarioReport:
    """Run every sweep point of a scenario and aggregate the results.

    The report is deterministic for a fixed ``master_seed`` no matter how
    many worker processes execute the trials.  Trials whose sample
    covariance cannot be factored are excluded and counted; more than 1%
    failures at any sweep point raises :class:`TrialFailureError`.
    """
    config.validate()
    started = time.perf_counter()
    if config.regime is Regime.ALPHA_SWEEP:
        # The scene does not depend on alpha: one context serves every point.
        ctx = build_context(config, config.sweep.values[0])
        points = [
            SweepPointResult(
                sweep_value=alpha,
                aggregates=[_theory_row(config, ctx, "CaponPlusTheory",
                                        capon_plus_weights(ctx.w_cap, alpha))],
                n_trials=0,
                n_failed=0,
            )
            for alpha in config.sweep.values
        ]
    else:
        parallel = threads > 1
        chunk = math.ceil(config.trials / (threads * 4)) if parallel else config.trials
        # Forked workers inherit the imported package, so the calling script
        # needs no ``__main__`` guard.
        with (
            ProcessPoolExecutor(threads, mp_context=multiprocessing.get_context("fork"))
            if parallel
            else contextlib.nullcontext()
        ) as pool:
            map_chunks = pool.map if parallel else map
            points = [
                _mc_point(config, v, map_chunks, chunk, emit_theory)
                for v in config.sweep.values
            ]
    return ScenarioReport(
        config=config, points=points, wall_time_s=time.perf_counter() - started
    )


def _mc_point(config: ScenarioConfig, sweep_value: float, map_chunks, chunk: int,
              emit_theory: bool) -> SweepPointResult:
    """Run one sweep point's trials in chunks of ``chunk`` through ``map_chunks``."""
    ctx = build_context(config, sweep_value)
    trials = config.trials
    args = [(config, sweep_value, ctx, s, min(s + chunk, trials))
            for s in range(0, trials, chunk)]
    records: list[TrialRecord] = []
    n_failed = 0
    for part in map_chunks(_run_chunk, args):
        for recs in part:
            if recs is None:
                n_failed += 1
            else:
                records.extend(recs)
    if n_failed > MAX_FAILURE_SHARE * trials:
        raise TrialFailureError(
            f"{n_failed} of {trials} trials failed at sweep value "
            f"{sweep_value} (> {MAX_FAILURE_SHARE:.0%} threshold)"
        )
    aggregates = aggregate(records)
    if emit_theory:
        aggregates = aggregates + _theory_rows(config, ctx)
    return SweepPointResult(
        sweep_value=sweep_value,
        aggregates=aggregates,
        n_trials=trials - n_failed,
        n_failed=n_failed,
    )
