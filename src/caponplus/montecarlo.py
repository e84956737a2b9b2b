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

In the oracle regime and in regime a the weights are fixed: the oracle
regime scores the exact CB, Capon and MMSE weights and the Capon output
shrunk by ``sqrt(alpha)``; regime a scores the exact Capon weight.  A
trial's outputs at every sweep point are then fixed linear maps of its three
raw draws.  A run stacks the conjugate weights of every point, scaled by
each point's source amplitudes, into one :class:`~.signalsim.OutputMap`,
once.  These regimes run their trials in blocks of up to ``_FIXED_BLOCK``:
a block draws each trial's streams into arrays its chunk reuses, projects
them through the map with stacked products, one BLAS call per trial, and scores
every trial, point and method of the block from those outputs with one
:func:`~.metrics.score_outputs` call, without forming a snapshot matrix.  A
trial's records do not depend on its block.  In the measured-alpha 8-PSK
mode each point's alpha comes from that point's Capon output; regime a
applies :func:`_capon_rows` to each trial and point of the block.

Regimes b to d train an adaptive Capon weight on the SCM of the primary
batch (b) or of the first T0 snapshots of one secondary batch drawn at the
run's largest T0 (c, d; :mod:`.signalsim`'s contract version 2, under which
the points of a T0 curve are correlated), read as its lower triangle, and
beamform the primary batch.  The weights of a run of equal scenes (every
point of a T0 sweep) beamform their one batch as one stack, and a trial's
Capon outputs at every point are scored as one stack, each row with the
bits it has alone.  In regimes a to d every other row is the one Capon
output times a scalar, by one rule (:func:`_capon_rows`) that each regime
feeds its SOI power.

An additional ``alpha_sweep`` mode tabulates the closed-form row of the
shrunk Capon weight ``sqrt(alpha) w_cap`` over a grid of shrinkage factors;
it needs no Monte-Carlo trials.

Reports are a pure function of the configuration: trials are seeded by
``(master_seed, trial_index)``, run independently (optionally across
processes), and their records are aggregated as one list in trial order, so
the thread count never changes any output bit.

A run builds every sweep point's :class:`SweepContext` up front and reuses
it for the theory rows; the contexts share the run's points, and in the
fixed-weight regimes their one projection.  A context built alone, as
:func:`run_trial` builds one without a context, is the one point of its
run, and its records have the bits of the same point in a multi-point run
(see :func:`~.signalsim.output_map`).  A work item is a trial range
``(start, stop)``, and a chunk runs it trial-major: each trial runs at every
sweep point in turn, one :func:`run_trial` call per ``(point, trial)`` pair.

A chunk runs on its own copy of the run's points, which records its end
``stop``, holds the arrays its blocks draw into (a
:class:`~.signalsim.Workspace`) and holds the block run last.  It runs its
trials in blocks from ``start``: blocks of ``_FIXED_BLOCK`` trials in the
fixed-weight regimes, the last one cut at ``stop``, and of one trial in
regimes b to d.  A block's first pair runs the block at every point of its
run, inside its own :func:`run_trial` call, and the points hold what each
trial gave at each point: its records, or the :class:`NotPositiveDefinite`
its sample covariance raised; its later pairs read their own entry.  Along
a T0 sweep, where the scene is the same at every point, a trial builds its
primary and its secondary batch once.  A trial's streams do not depend on
the sweep point, so in regimes b to d a trial synthesises every point's
batches on one :class:`~.signalsim.TrialRngs`, which reads each stream at
the first point and holds its raw draws for the others until the trial
returns.  Each point's records are still those of running its trials alone,
since a point run alone draws its secondary batch at the same count.  The
chunk's points, with the block and the arrays they hold, go when it returns,
so nothing outlives a run.

The config and the contexts reach a forked worker once, through the pool's
initializer, whose arguments a fork does not pickle; the serial path binds
them to the same chunk function.  The chunks go, in trial order, through one
``map`` call: the builtin ``map`` at one thread, else the ``map`` of one
forked worker pool kept for the whole run.  The pool has at most one worker
per CPU the process may run on: ``ProcessPoolExecutor`` forks all its
workers at once, so an unbounded ``threads`` would fork that many processes.
The trials are split into four chunks per worker.  The chunks run BLAS on
one thread, since a trial's products are too small for more threads to pay:
the run sets the caller's OpenBLAS copies to one thread, forks its workers,
which inherit that count, and restores the caller's counts at its end.  A
caller who set a BLAS thread variable keeps its count everywhere (see the
package docstring).

A chunk returns, per sweep point, the methods of a trial's records and their
metrics as one float64 table in trial order, which pickles and holds far more
cheaply than the record tuples.  Only the last chunk completes every point,
so the failure gate and the aggregation run once all chunks are in: the
points are checked in sweep order, then each point is aggregated straight
from its tables (:func:`~.metrics.aggregate_table`), and its tables dropped.

Trials stay separate computations, each with its own ``(seed, trial, role)``
streams and, in a fixed-weight block, its own BLAS product.  Batching the
adaptive regimes' trials does not pay at the reference size ``M = 25``: on a
2-vCPU Intel Xeon, ``numpy.linalg.cholesky`` on a stack of 64 such matrices
cost 6.0 us per matrix, against 4.2 us for one ``zpotrf`` call.
"""

from __future__ import annotations

import array
import dataclasses
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
from .errors import (ConfigError, DegenerateSample, DomainError, NotPositiveDefinite,
                     TrialFailureError)
from .linalg import pin_blas_threads, quadratic_form, set_blas_threads
from .estimation import (
    alpha_hat,
    debiased_power,
    debiased_power_scaled,
    output_moments,
    scm,
)
from .metrics import AggregateRecord, TrialRecord, aggregate, aggregate_table, score_outputs
from .signalsim import (
    OutputMap,
    TrialRngs,
    Workspace,
    output_map,
    synth_outputs,
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
    # re-exported: aggregates the records run_trial returns
    "aggregate",
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
        counts = {}  # the integer counts: any other gets no bound check
        for name in ("snapshots", "secondary_snapshots", "trials"):
            try:
                counts[name] = operator.index(getattr(self, name))
            except TypeError:
                problems.append(f"{name} must be an integer, got {getattr(self, name)!r}")
        t, t0, trials = map(counts.get, ("snapshots", "secondary_snapshots", "trials"))
        if not values:
            problems.append("sweep.values must not be empty")
        if (self.regime is Regime.ALPHA_SWEEP) != (sweep_var is SweepVariable.ALPHA):
            problems.append("the alpha sweep variable pairs exclusively with the alpha_sweep regime")
        if t is not None and t < 1:
            problems.append(f"snapshots must be >= 1, got {t}")
        if trials is not None and self.regime is not Regime.ALPHA_SWEEP and trials < 100:
            problems.append(f"trials must be >= 100, got {trials}")
        if trials is not None and trials > 2**32:
            problems.append(
                f"trials must be <= 2**32, the number of RNG stream trial indices, got {trials}"
            )
        if (
            self.regime is Regime.ORACLE
            and self.waveform is WaveformKind.PSK8
            and self.psk_alpha_mode is PskAlphaMode.MEASURED
            and t is not None and t < 2
        ):
            problems.append(
                "psk_alpha_mode 'measured' estimates each trial's kurtosis from its "
                f"snapshots and needs snapshots >= 2, got {t}"
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
        if self.regime is Regime.B and t is not None and t <= m:
            problems.append(f"regime b needs snapshots > antennas, got T = {t}, M = {m}")
        if self.regime in (Regime.C, Regime.D):
            if sweep_var is SweepVariable.T0:
                bad = [v for v in values if not math.isfinite(v) or v != int(v) or int(v) <= m]
                if bad:
                    problems.append(
                        f"every swept T0 must be an integer > M = {m}, offending values: {bad}"
                    )
            elif t0 is not None and t0 <= m:
                problems.append(
                    f"regimes c/d need secondary_snapshots (T0) > M, got T0 = {t0}, M = {m}"
                )
        if problems:
            raise ConfigError("; ".join(problems))


def _db_to_linear(db: float) -> float:
    """``10 ** (db / 10)``; :class:`DomainError` where ``db`` is not finite
    or that overflows a float."""
    try:
        if math.isfinite(db):
            return 10.0 ** (db / 10.0)
    except OverflowError:
        pass
    raise DomainError(f"{db} dB is not finite or overflows a float power ratio")


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
    # the sweep points of the run this context belongs to, and its place among them
    points: _Points | None = None
    point: int = 0


@dataclass(eq=False)
class _Points:
    """The sweep points of one run: their contexts, and in the oracle regime
    and regime a the fixed weights of every point (oracle regime: CB, Capon
    and MMSE; regime a: Capon) stacked into one :class:`~.signalsim.OutputMap`.

    They also keep what :func:`run_trial` carries from one pair to the next:
    the end of the chunk running on them (``None`` outside a chunk), the
    arrays its blocks draw into, and the block run last.
    """

    contexts: tuple[SweepContext, ...]
    outputs: OutputMap | None
    # the secondary snapshots regimes c and d draw per trial, whose first T0 each point reads
    secondary_draw: int
    stop: int | None = None
    # Not arguments, so a dataclasses.replace copy starts with fresh arrays
    # and no block.  ``held`` is ``(config, trials, entries)``: the block of
    # ``trials`` run last under ``config``, and what each gave at every point.
    work: Workspace = dataclasses.field(default_factory=Workspace, init=False)
    held: tuple = dataclasses.field(default=(None, range(0), None), init=False)


# The weights a fixed-weight regime projects, as named in a SweepContext.
_PROJECTED = {Regime.ORACLE: ("w_cb", "w_cap", "w_mmse"), Regime.A: ("w_cap",)}


def _join(config: ScenarioConfig, contexts: Sequence[SweepContext]) -> list[SweepContext]:
    """``contexts`` as the points of one run, each carrying the run's :class:`_Points`."""
    names = _PROJECTED.get(config.regime)
    outputs = None if names is None else output_map(
        config.geom, [ctx.scene for ctx in contexts], config.waveform,
        [[getattr(ctx, name) for name in names] for ctx in contexts])
    # the largest T0 of the run's sweep, and of its points should one lie outside it
    draw = max([ctx.secondary_snapshots for ctx in contexts]
               + [int(v) for v in config.sweep.values if config.sweep.variable is SweepVariable.T0])
    points = _Points(tuple(contexts), outputs, draw)
    return [dataclasses.replace(ctx, points=points, point=point)
            for point, ctx in enumerate(contexts)]


def _oracle_alpha(config: ScenarioConfig, scene: SourceScene, model: CovarianceModel,
                  theory: TheoryReport, w_cap: np.ndarray) -> float:
    if config.waveform is WaveformKind.CIRCULAR_GAUSSIAN:
        return theory.alpha_o
    if config.psk_alpha_mode is PskAlphaMode.EXACT:
        kurt = _kurtosis(*output_moments_theory(config.geom, scene, config.waveform, w_cap))
    else:
        # constant-modulus shortcut; also the placeholder in measured mode,
        # where each trial re-estimates the kurtosis from its own output.
        kurt = -1.0
    alpha, _ = alpha_from_kurtosis(model.gamma, theory.gamma_cap, config.snapshots, kurt)
    return alpha


def build_context(config: ScenarioConfig, sweep_value: float) -> SweepContext:
    """Resolve the scene at one sweep point and precompute the oracle quantities.

    The context is the one point of its run; a run's contexts share one
    :class:`_Points` of all its points.
    """
    if config.sweep.variable is SweepVariable.SNR_DB:
        scene = snr_to_scene(config.base_scene, sweep_value)
        t0 = config.secondary_snapshots
    elif config.sweep.variable is SweepVariable.T0:
        scene = config.base_scene
        t0 = int(sweep_value)
    else:
        scene = config.base_scene
        t0 = config.secondary_snapshots
    try:
        model = build_cov_model(config.geom, scene)
    except NotPositiveDefinite as exc:
        raise DomainError(f"sweep value {sweep_value}: the point's array covariance "
                          f"cannot be factored ({exc})") from None
    theory = theory_report(model, config.snapshots)
    w_cap = model.sinv_a / model.ah_sinv_a
    alpha_oracle = _oracle_alpha(config, scene, model, theory, w_cap)
    ctx = SweepContext(
        scene=scene,
        model=model,
        theory=theory,
        secondary_snapshots=t0,
        w_cb=cb_weights(model.a),
        w_cap=w_cap,
        w_mmse=model.gamma * model.sinv_a,
        alpha_oracle=alpha_oracle,
        w_cap_plus=capon_plus_weights(w_cap, alpha_oracle),
    )
    return _join(config, [ctx])[0]


def _build_contexts(config: ScenarioConfig) -> list[SweepContext]:
    """Every sweep point's context, sharing one :class:`_Points`."""
    return _join(config, [build_context(config, v) for v in config.sweep.values])


_ORACLE_METHODS = ("CB", "Capon", "MMSE", "CaponPlus")
# The rows of _capon_rows, in its order; Debiased in regimes a and d only.
_CAPON_ROWS = ("Capon", "MMSE", "CaponPlus", "Debiased")


def _kurtosis(power: float, fourth: float) -> float:
    """Kurtosis ``m4 / m2^2 - 2`` of zero-mean circular complex samples of
    power ``m2`` and fourth moment ``m4``: zero for circular Gaussian data,
    -1 for constant-modulus data."""
    if power <= 0.0:
        raise DegenerateSample("all samples are zero; kurtosis undefined")
    return fourth / power**2 - 2.0


def _trial_fixed(config: ScenarioConfig, points: _Points, trials: range,
                 work: Workspace) -> list[list[list[TrialRecord]]]:
    """A block of trials of the oracle regime or regime a: each trial's
    records at every point, from one projection of the block's draws and one
    scoring of all its outputs; see the module docstring."""
    t = config.snapshots
    contexts = points.contexts
    outs, truth = synth_outputs(points.outputs, t, config.master_seed, trials, work)
    b, n_points = outs.shape[:2]
    pairs = b * n_points
    if config.regime is Regime.ORACLE:
        powers, fourths = output_moments(outs)
        if config.waveform is WaveformKind.PSK8 and config.psk_alpha_mode is PskAlphaMode.MEASURED:
            # each trial estimates alpha from its own Capon output's kurtosis
            alpha = [[alpha_from_kurtosis(ctx.model.gamma, ctx.theory.gamma_cap, t,
                                          _kurtosis(p[1], m4[1]))[0]
                      for ctx, p, m4 in zip(contexts, *trial)] for trial in zip(powers, fourths)]
        else:
            alpha = [[ctx.alpha_oracle for ctx in contexts]] * b
        scored = work("scored", (b, n_points, 4, t), np.complex128)
        scored[:, :, :3] = outs
        np.multiply(np.sqrt(alpha)[..., None], outs[:, :, 1], out=scored[:, :, 3])
        records = score_outputs(_ORACLE_METHODS, [ctx.model.gamma for ctx in contexts] * b,
                                truth.reshape(pairs, t), scored.reshape(pairs, 4, t),
                                [[*row, a * row[1]] for trial, trial_alpha in zip(powers, alpha)
                                 for row, a in zip(trial, trial_alpha)])
    else:
        # regime a: every row scales the Capon output by a scalar of the trial
        records = _score_capon(config, contexts * b, [None] * pairs,
                               outs[:, :, 0].reshape(pairs, t), truth.reshape(pairs, t),
                               work("scored", (pairs, len(_CAPON_ROWS), t), np.complex128))
    return [records[i:i + n_points] for i in range(0, pairs, n_points)]


def _capon_rows(config: ScenarioConfig, ctx: SweepContext, gamma_cap_hat: float, m4: float,
                plug_in: float | None) -> tuple[list[float], list[float]]:
    """The scales of the Capon output that give one point's Capon, MMSE and
    CaponPlus rows in regimes a to d, plus the Debiased row in a and d, and
    those rows' power estimates.

    ``gamma_cap_hat`` (``ghat``) and ``m4`` are the Capon output's power and
    fourth moment, and ``plug_in = 1 / (a^H C_hat^{-1} a)`` the plug-in power
    of an adaptive Capon weight, read in regime d only.  The regimes differ
    only in the SOI power ``g``: ``debiased_power(ghat, a^H Q^{-1} a)`` in a,
    the known ``gamma`` in b and c, ``debiased_power_scaled(ghat, 1 / plug_in,
    T0, M)`` in d.  The MMSE row scales the Capon output by ``g / ghat``, the
    CaponPlus row by ``sqrt(alpha_hat(ghat, m4, g, T))`` and the Debiased row
    (power ``g``) by ``sqrt(g / ghat)``.  This is the paper's rule: in a,
    ``g q / (1 + g q)`` with ``g = ghat - 1/q`` is ``g / ghat``; in b, whose
    weight beamforms the batch it was trained on, ``ghat`` is the plug-in
    power, with less rounding, and ``(g / ghat) w_cap`` is ``gamma S_hat^{-1} a``.
    """
    regime = config.regime
    if regime is Regime.A:
        g = debiased_power(gamma_cap_hat, ctx.model.ah_qinv_a)
    elif regime is Regime.D:
        g = debiased_power_scaled(gamma_cap_hat, 1.0 / plug_in, ctx.secondary_snapshots,
                                  config.geom.antennas)
    else:
        g = ctx.model.gamma
    mmse_scale = g / gamma_cap_hat if gamma_cap_hat > 0.0 else 0.0
    alpha = alpha_hat(gamma_cap_hat, m4, g, config.snapshots)
    scales = [1.0, mmse_scale, math.sqrt(alpha)]
    powers = [gamma_cap_hat, mmse_scale**2 * gamma_cap_hat, alpha * gamma_cap_hat]
    if regime in (Regime.A, Regime.D):
        scales.append(math.sqrt(mmse_scale))
        powers.append(g)
    return scales, powers


def _score_capon(config: ScenarioConfig, contexts: Sequence[SweepContext],
                 plug_ins: Sequence[float | None], out_cap: np.ndarray,
                 truth: np.ndarray, scaled: np.ndarray | None = None) -> list[list[TrialRecord]]:
    """The records of regimes a to d at the points of ``contexts``, from their
    Capon outputs ``out_cap`` ``(P, T)`` and true waveforms ``truth``, with
    one :func:`output_moments` and one :func:`score_outputs` call for all
    points: each row scales its point's Capon output by the scales of
    :func:`_capon_rows`, into ``scaled`` where given, and has the bits it has
    scored alone."""
    scales, powers = zip(*(_capon_rows(config, ctx, gamma_cap_hat, m4, plug_in)
                           for ctx, plug_in, gamma_cap_hat, m4
                           in zip(contexts, plug_ins, *output_moments(out_cap))))
    return score_outputs(_CAPON_ROWS, [ctx.model.gamma for ctx in contexts], truth,
                         np.multiply(np.array(scales)[:, :, None], out_cap[:, None], out=scaled),
                         powers)


def _trial_adaptive(config: ScenarioConfig, points: _Points, trials: range,
                    work: Workspace) -> list[list[list[TrialRecord] | NotPositiveDefinite]]:
    """A block of one trial of regime b, c or d: its records at every point,
    or the :class:`NotPositiveDefinite` a point's sample covariance raised.  The
    primary batch, and in c and d the secondary one at the run's largest T0
    (``points.secondary_draw``), are synthesised once per run of equal
    scenes, so once per trial along a T0 sweep.  Each point trains its Capon
    weight on the lower triangle of the SCM of its training batch (in c and
    d, of its first T0 snapshots).  The weights of a run of equal scenes
    beamform its batch as one stack, and every point that trained is scored
    in one :func:`_score_capon` call; a point whose SCM raised keeps the
    error at its own index."""
    (idx,) = trials
    rngs = TrialRngs(config.master_seed, idx)
    entries = [None] * len(points.contexts)
    # (point, context, plug-in power) per point that trained; Capon outputs and truths per scene
    trained, outs, truths = [], [], []
    for scene, group in itertools.groupby(enumerate(points.contexts), lambda pc: pc[1].scene):
        batch = secondary = None  # drop the last scene's batches first
        batch = synth_scene_snapshots(config.geom, scene, config.waveform, config.snapshots, rngs)
        if config.regime is not Regime.B:
            secondary = synth_scene_secondary(config.geom, scene, config.waveform,
                                              points.secondary_draw, rngs)
        weights = []
        for point, ctx in group:
            # the SCM C_hat of the training batch: the primary one (b) or a secondary prefix (c, d)
            cov = scm(batch if secondary is None else secondary._replace(
                snapshots=secondary.snapshots[:ctx.secondary_snapshots])).lower
            try:
                # plug_in = 1 / (a^H C_hat^{-1} a)
                w_cap, plug_in = adaptive_capon_weights(cov, ctx.model.a)
            except NotPositiveDefinite as exc:
                entries[point] = exc.with_traceback(None)
                continue
            weights.append(w_cap)
            trained.append((point, ctx, plug_in))
        if weights:
            outs.append(apply_weights(np.array(weights), batch))
            # the points of one scene share its truth: broadcast, not copied
            truths.append(np.broadcast_to(batch.truth, outs[-1].shape))
    if not trained:
        return [entries]
    # joined in C order, so each point's truth is a contiguous row
    out_cap = np.concatenate(outs)
    truth = np.concatenate([np.ascontiguousarray(t) for t in truths])
    trained_points, contexts, plug_ins = zip(*trained)
    for point, records in zip(trained_points,
                              _score_capon(config, contexts, plug_ins, out_cap, truth)):
        entries[point] = records
    return [entries]


# Per regime, the function that runs a block of trials at every point of a run.
_TRIAL_FUNCS = {
    Regime.ORACLE: _trial_fixed,
    Regime.A: _trial_fixed,
    Regime.B: _trial_adaptive,
    Regime.C: _trial_adaptive,
    Regime.D: _trial_adaptive,
}

# The trials of a fixed-weight block.  tools/pair_cpu.py fig1 400, four
# alternating runs each (2-vCPU Intel Xeon, one BLAS thread), read a median
# of 28.1 us per (point, trial) pair one trial at a time, 23.6 in blocks of
# 4, 21.8 in blocks of 8 and 21.4 in blocks of 16.  Only blocks of 16 read
# minor page faults in every run (0.11 per pair): at T = 60 and five points,
# no per-block temporary of a block of 8 reaches glibc's 128 KiB mmap
# threshold, and the arrays above it are the chunk's Workspace.
_FIXED_BLOCK = 8


def run_trial(
    config: ScenarioConfig,
    sweep_value: float,
    trial_index: int,
    ctx: SweepContext | None = None,
) -> list[TrialRecord]:
    """Run one Monte-Carlo trial at one sweep point and return one record per method.

    Without ``ctx`` the point's context is built alone at ``sweep_value``,
    which is read only then.  The first call for a trial runs it at every
    point of ``ctx``'s run, and the run's points hold what each point gave;
    each call then returns its own point's records, or raises the
    :class:`NotPositiveDefinite` its point's sample covariance raised.  Inside
    a chunk (:func:`_run_chunk`), in the fixed-weight regimes, that first call
    runs the block of up to ``_FIXED_BLOCK`` trials from ``trial_index`` that
    ends at the chunk's end at the latest, and the points hold all of them.
    Outside a chunk only the call's own trial runs, and the block and the
    arrays it was drawn into live as long as the caller's context.  The raw
    draws of a regime b to d trial are held by its
    :class:`~.signalsim.TrialRngs` and go before the call returns.
    """
    trial = _TRIAL_FUNCS.get(config.regime)
    if trial is None:
        raise ConfigError(f"regime {config.regime.value!r} runs no Monte-Carlo trials")
    if ctx is None:
        ctx = build_context(config, sweep_value)
    try:
        idx = operator.index(trial_index)
    except TypeError:
        raise DomainError(f"trial index must be an integer, got {trial_index!r}") from None
    points = ctx.points
    held_config, trials, entries = points.held
    if held_config is not config or idx not in trials:
        trials = range(idx, idx + 1)
        if points.stop is not None and config.regime in _PROJECTED:
            trials = range(idx, min(idx + _FIXED_BLOCK, points.stop))
        entries = trial(config, points, trials, points.work)
        points.held = (config, trials, entries)
    entry = entries[idx - trials.start][ctx.point]
    if isinstance(entry, NotPositiveDefinite):
        # a new error: the held one would hold, in its traceback, this frame and the points
        raise NotPositiveDefinite(*entry.args, entry.pivot_index)
    return list(entry)


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

    The run's contexts share one :class:`_Points`, as :func:`_join` builds
    them.  The chunk runs on a copy of it, which records ``stop`` and holds
    fresh arrays and no block, and on copies of the contexts that carry it,
    so the block and the arrays go when the chunk returns; after it raises,
    they, and the draws of the trial it raised in, live only as long as the
    error's traceback.  Every trial of a run scores the same methods in the
    same order, so a point's records are its ``methods`` repeated beside the
    table's rows; a trial whose sample covariance cannot be factored adds
    none and is counted.
    """
    config, values, contexts = run
    start, stop = item
    points = dataclasses.replace(contexts[0].points, stop=stop)
    contexts = [dataclasses.replace(ctx, points=points) for ctx in contexts]
    methods: list[tuple[str, ...]] = [()] * len(contexts)
    tables = [array.array("d") for _ in contexts]
    failed = [0] * len(contexts)
    for idx in range(start, stop):
        for point, ctx in enumerate(contexts):
            try:
                records = run_trial(config, values[point], idx, ctx)
            except NotPositiveDefinite:
                failed[point] += 1
                continue
            if not methods[point]:
                methods[point] = tuple(rec[0] for rec in records)
            tables[point].extend(itertools.chain.from_iterable(map(_METRICS, records)))
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

    Raises :class:`DomainError` where a value overflows a float, as a huge
    weight (say ``alpha = 1e160`` in an alpha sweep) makes it.
    """
    gamma = ctx.model.gamma
    t = config.snapshots
    try:
        with np.errstate(over="raise"):
            out_power = quadratic_form(ctx.model.full, w)
            _, fourth = output_moments_theory(config.geom, ctx.scene, config.waveform, w)
            var = (fourth - out_power**2) / t
            bias = out_power - gamma
            row = (bias / gamma, waveform_mse_theory(ctx.model, w) / gamma,
                   (var + bias**2) / gamma**2)
        if not all(map(math.isfinite, row)):
            raise OverflowError
    except (OverflowError, FloatingPointError):
        raise DomainError(f"the closed-form {method} row overflows a float") from None
    rel_bias, se_nmse, sp_nmse = row
    return AggregateRecord(
        method=method,
        mean_rel_bias=rel_bias,
        stderr_rel_bias=0.0,
        mean_se_nmse=se_nmse,
        stderr_se_nmse=0.0,
        mean_sp_nmse=sp_nmse,
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
        contexts = _build_contexts(config)
        run = (config, values, contexts)
        work = [(s, min(s + chunk, trials)) for s in range(0, trials, chunk)]
        # The chunks run BLAS on one thread, and the caller gets its counts
        # back.  A worker forked while the caller is pinned starts on one
        # thread; setting the count in the worker instead would restart
        # OpenBLAS's thread pool there, whose helpers spin.
        counts = pin_blas_threads()
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
            set_blas_threads(counts)
        points = _mc_points(config, contexts, chunks, emit_theory)
    return ScenarioReport(
        config=config, points=points, wall_time_s=time.perf_counter() - started
    )


def _mc_points(config: ScenarioConfig, contexts: Sequence[SweepContext],
               chunks: list[list[_PointPart]], emit_theory: bool) -> list[SweepPointResult]:
    """Gate and aggregate every sweep point from the chunks, which are in
    trial order.

    More than 1% failed trials at any point raises :class:`TrialFailureError`
    for the first such point in sweep order.  A point is aggregated straight
    from its chunks' tables, joined in trial order, which gives the bits
    :func:`aggregate` gives on its records; its tables are dropped once it
    is aggregated.
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
        methods, tables = (), []
        for chunk in chunks:
            names, table, _ = chunk[point]
            chunk[point] = None
            methods = methods or names
            tables.append(table)
        aggregates = aggregate_table(methods, np.concatenate(tables))
        if emit_theory:
            aggregates = aggregates + _theory_rows(config, ctx)
        points.append(SweepPointResult(
            sweep_value=sweep_value,
            aggregates=aggregates,
            n_trials=trials - n_failed,
            n_failed=n_failed,
        ))
    return points
