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
processes), and their records are aggregated as one list in trial order, so
the thread count never changes any output bit.

A run builds every sweep point's :class:`SweepContext` up front and reuses
it for the theory rows.  A work item is a trial range ``(start, stop)``, and
a chunk runs it trial-major: each trial runs at every sweep point in turn.

A trial's streams do not depend on the sweep point, so :mod:`.signalsim`
keeps the trial's raw draws from its first point for the others (a cache of
the four draws used last), and along a T0 sweep, where the scene is the same
at every point, its primary batch too (one batch held).  Each point's
records are still those of running its trials alone.  A chunk empties the
cache and the held batch before each trial, so they hold one trial at a
time, and when it ends or raises, so no draw outlives a run.

The config and the contexts reach a forked worker once, through the pool's
initializer, whose arguments a fork does not pickle; the serial path binds
them to the same chunk function.  The chunks go, in trial order, through one
``map`` call: the builtin ``map`` at one thread, else the ``map`` of one
forked worker pool kept for the whole run.  The pool has at most one worker
per CPU the process may run on: ``ProcessPoolExecutor`` forks all its
workers at once, so an unbounded ``threads`` would fork that many processes.
The trials are split into four chunks per worker.

A chunk returns, per sweep point, the methods of a trial's records and their
metrics as one float64 table in trial order, which pickles and holds far more
cheaply than the record tuples.  Only the last chunk completes every point,
so the failure gate and the aggregation run once all chunks are in: the
points are checked in sweep order, then each point's records are rebuilt
from its tables, aggregated, and its tables dropped.

Trials stay separate computations, each with its own ``(seed, trial, role)``
streams.  Batching different trials does not pay at the reference size
``M = 25``: on a 2-vCPU Intel Xeon, ``numpy.linalg.cholesky`` on a stack of
64 such matrices cost 6.0 us per matrix, against 4.2 us for one ``zpotrf``
call.
"""

from __future__ import annotations

import array
import enum
import functools
import itertools
import math
import multiprocessing
import operator
import os
import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arraymodel import (
    ArrayGeometry,
    CovarianceModel,
    SourceScene,
    SourceSpec,
    TheoryReport,
    WaveformKind,
    alpha_from_kurtosis,
    build_cov_model,
    output_moments_theory,
    theory_report,
    waveform_mse_theory,
)
from .beamformers import adaptive_capon_weights, apply_weights, capon_plus_weights, cb_weights
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
from .signalsim import TrialRngs, clear_trial_memo, synth_scene_secondary, synth_scene_snapshots

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
        sweep_var, values = self.sweep.variable, self.sweep.values
        try:
            if operator.index(self.master_seed) < 0:
                problems.append(f"master_seed must be >= 0, got {self.master_seed}")
        except TypeError:
            problems.append(f"master_seed must be an integer, got {self.master_seed!r}")
        if not values:
            problems.append("sweep.values must not be empty")
        if (self.regime is Regime.ALPHA_SWEEP) != (sweep_var is SweepVariable.ALPHA):
            problems.append("the alpha sweep variable pairs exclusively with the alpha_sweep regime")
        if self.snapshots < 1:
            problems.append(f"snapshots must be >= 1, got {self.snapshots}")
        if self.regime is not Regime.ALPHA_SWEEP and self.trials < 100:
            problems.append(f"trials must be >= 100, got {self.trials}")
        if self.trials > 2**32:
            problems.append(
                "trials must be <= 2**32, the number of RNG stream trial indices, "
                f"got {self.trials}"
            )
        if (
            self.regime is Regime.ORACLE
            and self.waveform is WaveformKind.PSK8
            and self.psk_alpha_mode is PskAlphaMode.MEASURED
            and self.snapshots < 2
        ):
            problems.append(
                "psk_alpha_mode 'measured' estimates each trial's kurtosis from its "
                f"snapshots and needs snapshots >= 2, got {self.snapshots}"
            )
        if sweep_var is SweepVariable.T0 and self.regime not in (Regime.C, Regime.D):
            problems.append("sweeping T0 is only meaningful in regimes c and d")
        if sweep_var is SweepVariable.SNR_DB:
            if self.base_scene.noise_var != 1.0:
                problems.append("SNR sweeps require unit noise variance in the base scene")
            else:
                for v in values:
                    try:
                        snr_to_scene(self.base_scene, v)
                    except DomainError as exc:
                        problems.append(f"SNR sweep value {v}: {exc}")
        if sweep_var is SweepVariable.ALPHA and not all(0.0 <= v < math.inf for v in values):
            problems.append("alpha sweep values must be finite and >= 0")
        if self.regime is Regime.B and self.snapshots <= m:
            problems.append(
                f"regime b needs snapshots > antennas, got T = {self.snapshots}, M = {m}"
            )
        if self.regime in (Regime.C, Regime.D):
            if sweep_var is SweepVariable.T0:
                bad = [v for v in values if not math.isfinite(v) or v != int(v) or int(v) <= m]
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


def _db_to_linear(db: float) -> float:
    """``10 ** (db / 10)``; :class:`DomainError` where that overflows a float."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise DomainError(f"{db} dB overflows a float power ratio") from None


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
    soi_power = noise_var * _db_to_linear(snr_db)
    return SourceScene(
        soi=SourceSpec(soi_doa_deg, soi_power),
        interferers=tuple(
            SourceSpec(doa, soi_power * _db_to_linear(-off))
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
    soi_power = _db_to_linear(snr_db)
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
    # oracle regime: each trial estimates alpha from its own output's kurtosis
    measure_alpha: bool


def _oracle_alpha(config: ScenarioConfig, scene: SourceScene, model: CovarianceModel,
                  theory: TheoryReport, w_cap: np.ndarray) -> float:
    if config.waveform is WaveformKind.CIRCULAR_GAUSSIAN:
        return theory.alpha_o
    if config.psk_alpha_mode is PskAlphaMode.EXACT:
        power, fourth = output_moments_theory(config.geom, scene, config.waveform, w_cap)
        kurt = fourth / power**2 - 2.0
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
    w_cap = model.sinv_a / model.ah_sinv_a
    alpha_oracle = _oracle_alpha(config, scene, model, theory, w_cap)
    return SweepContext(
        scene=scene,
        model=model,
        theory=theory,
        secondary_snapshots=t0,
        w_cb=cb_weights(model.a),
        w_cap=w_cap,
        w_mmse=model.gamma * model.sinv_a,
        alpha_oracle=alpha_oracle,
        w_cap_plus=capon_plus_weights(w_cap, alpha_oracle),
        measure_alpha=(
            config.regime is Regime.ORACLE
            and config.waveform is WaveformKind.PSK8
            and config.psk_alpha_mode is PskAlphaMode.MEASURED
        ),
    )


def _trial_oracle(config: ScenarioConfig, ctx: SweepContext, idx: int) -> list[TrialRecord]:
    rngs = TrialRngs(config.master_seed, idx)
    batch = synth_scene_snapshots(config.geom, ctx.scene, config.waveform, config.snapshots, rngs)
    gamma = ctx.model.gamma
    out_cap = apply_weights(ctx.w_cap, batch)
    gamma_cap_hat = mean_abs_sq(out_cap)

    alpha = ctx.alpha_oracle
    if ctx.measure_alpha:
        kurt = kurtosis_estimate(out_cap)
        alpha, _ = alpha_from_kurtosis(
            gamma, ctx.theory.gamma_cap, config.snapshots, kurt
        )

    return trial_records(gamma, batch.truth, (
        ("CB", apply_weights(ctx.w_cb, batch), None),
        ("Capon", out_cap, gamma_cap_hat),
        ("MMSE", apply_weights(ctx.w_mmse, batch), None),
        ("CaponPlus", math.sqrt(alpha) * out_cap, alpha * gamma_cap_hat),
    ))


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
        q = ctx.model.ah_qinv_a
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
        ("Capon", out_cap, gamma_cap_hat),
        ("MMSE", mmse_scale * out_cap, mmse_scale**2 * gamma_cap_hat),
        ("CaponPlus", math.sqrt(alpha) * out_cap, alpha * gamma_cap_hat),
    ]
    if regime in (Regime.A, Regime.D):
        # Power-only estimator; its waveform column reports the power-matched
        # rescaling of the Capon output.
        deb_scale = math.sqrt(gamma_num / gamma_cap_hat) if gamma_cap_hat > 0.0 else 0.0
        entries.append(("Debiased", deb_scale * out_cap, gamma_num))
    return trial_records(gamma, batch.truth, entries)


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


# One run's ``(config, sweep values, contexts)``, one value and one context
# per sweep point; a work item is a trial range ``(start, stop)`` of every point.
_Run = tuple[ScenarioConfig, Sequence[float], Sequence[SweepContext]]
_WorkItem = tuple[int, int]
# One sweep point's share of a chunk: the methods of a trial's records, the
# records' metrics as a float64 ``(n_records, 3)`` table in trial order, and
# the number of failed trials.
_PointPart = tuple[tuple[str, ...], np.ndarray, int]

_METRICS = operator.itemgetter(1, 2, 3)

# The run a forked pool worker serves, set by the pool's initializer.
_worker_run: _Run | None = None


def _init_worker(run: _Run) -> None:
    global _worker_run
    _worker_run = run


def _worker_chunk(item: _WorkItem) -> list[_PointPart]:
    """:func:`_run_chunk` in a pool worker, on the run it was forked with."""
    return _run_chunk(_worker_run, item)


def _run_chunk(run: _Run, item: _WorkItem) -> list[_PointPart]:
    """For ``item = (start, stop)``, run trials ``start`` to ``stop - 1``, each
    at every sweep point in turn, and return one :data:`_PointPart` per point.

    Every trial of a run scores the same methods in the same order, so a
    point's records are its ``methods`` repeated beside the table's rows; a
    trial whose sample covariance cannot be factored adds none and is counted.
    """
    config, values, contexts = run
    start, stop = item
    methods: list[tuple[str, ...]] = [()] * len(contexts)
    tables = [array.array("d") for _ in contexts]
    failed = [0] * len(contexts)
    try:
        for idx in range(start, stop):
            clear_trial_memo()
            for point, ctx in enumerate(contexts):
                try:
                    records = run_trial(config, values[point], idx, ctx)
                except NotPositiveDefinite:
                    failed[point] += 1
                    continue
                if not methods[point]:
                    methods[point] = tuple(rec[0] for rec in records)
                tables[point].extend(itertools.chain.from_iterable(map(_METRICS, records)))
    finally:
        clear_trial_memo()
    return [(names, np.frombuffer(table).reshape(-1, 3), n_failed)
            for names, table, n_failed in zip(methods, tables, failed)]


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
    _, fourth = output_moments_theory(config.geom, ctx.scene, config.waveform, w)
    var = (fourth - out_power**2) / t
    bias = out_power - gamma
    return AggregateRecord(
        method=method,
        mean_rel_bias=bias / gamma,
        stderr_rel_bias=0.0,
        mean_se_nmse=waveform_mse_theory(ctx.model, w) / gamma,
        stderr_se_nmse=0.0,
        mean_sp_nmse=(var + bias**2) / gamma**2,
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


def _usable_cpus() -> int:
    """CPUs this process may run on; all of them where affinity is unknown."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_scenario(
    config: ScenarioConfig, threads: int = 1, emit_theory: bool = False
) -> ScenarioReport:
    """Run every sweep point of a scenario and aggregate the results.

    The trials run in ``threads`` worker processes, capped at the number of
    CPUs this process may run on, as one stream of trial-range chunks that
    each cover every sweep point (see the module docstring).  The report is
    deterministic for a fixed ``master_seed`` no matter how many worker
    processes execute the trials.  Trials whose sample covariance cannot be
    factored are excluded and counted; more than 1% failures at any sweep
    point raises :class:`TrialFailureError` naming the first such point in
    sweep order.  No point is complete before the last chunk, so a failing
    run still runs every trial; a trial that raises any other error ends the
    run at once, and the chunks no worker has taken yet never run.
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
        values, trials = config.sweep.values, config.trials
        workers = min(threads, _usable_cpus())
        chunk = math.ceil(trials / (workers * 4)) if workers > 1 else trials
        contexts = [build_context(config, v) for v in values]
        run = (config, values, contexts)
        work = [(s, min(s + chunk, trials)) for s in range(0, trials, chunk)]
        # Forked workers inherit the imported package and, through the
        # initializer's arguments, the run, so neither is pickled and the
        # calling script needs no ``__main__`` guard.
        pool = (ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                    initializer=_init_worker, initargs=(run,))
                if workers > 1 else None)
        try:
            chunks = list(pool.map(_worker_chunk, work) if pool is not None
                          else map(functools.partial(_run_chunk, run), work))
        finally:
            if pool is not None:
                # A trial that raises leaves later chunks queued: drop them.
                pool.shutdown(cancel_futures=True)
        points = _mc_points(config, contexts, chunks, emit_theory)
    return ScenarioReport(
        config=config, points=points, wall_time_s=time.perf_counter() - started
    )


def _mc_points(config: ScenarioConfig, contexts: Sequence[SweepContext],
               chunks: list[list[_PointPart]], emit_theory: bool) -> list[SweepPointResult]:
    """Gate and aggregate every sweep point from the chunks, which are in
    trial order.

    More than 1% failed trials at any point raises :class:`TrialFailureError`
    for the first such point in sweep order.  A point's records are rebuilt
    as the tuples its trials returned, so :func:`aggregate` sees the list a
    point-by-point run would give it, and its tables are dropped once it is
    aggregated.
    """
    values, trials = config.sweep.values, config.trials
    failed = [sum(chunk[point][2] for chunk in chunks) for point in range(len(values))]
    for sweep_value, n_failed in zip(values, failed):
        if n_failed > MAX_FAILURE_SHARE * trials:
            raise TrialFailureError(
                f"{n_failed} of {trials} trials failed at sweep value "
                f"{sweep_value} (> {MAX_FAILURE_SHARE:.0%} threshold)"
            )
    points = []
    for point, (sweep_value, ctx, n_failed) in enumerate(zip(values, contexts, failed)):
        records: list[TrialRecord] = []
        for chunk in chunks:
            methods, table, _ = chunk[point]
            chunk[point] = None
            records.extend(zip(itertools.cycle(methods), *table.T.tolist()))
        aggregates = aggregate(records)
        if emit_theory:
            aggregates = aggregates + _theory_rows(config, ctx)
        points.append(SweepPointResult(
            sweep_value=sweep_value,
            aggregates=aggregates,
            n_trials=trials - n_failed,
            n_failed=n_failed,
        ))
    return points
