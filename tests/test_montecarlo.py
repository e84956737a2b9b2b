import functools
import itertools
import math
import multiprocessing
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caponplus.montecarlo as mc
import caponplus.signalsim as signalsim
from caponplus.arraymodel import (
    ArrayGeometry,
    SourceScene,
    SourceSpec,
    build_cov_model,
    capon_bias,
    capon_output_power,
    output_moments_theory,
    theory_report,
)
from caponplus.cli import build_run_config
from caponplus.errors import (
    ConfigError,
    DegenerateSample,
    DomainError,
    NotPositiveDefinite,
    TrialFailureError,
)
from caponplus.estimation import output_moments, scm
from caponplus.linalg import cholesky, solve_chol
from caponplus.metrics import aggregate
from caponplus.montecarlo import (
    DEFAULT_GEOMETRY,
    PskAlphaMode,
    Regime,
    ScenarioConfig,
    SweepSpec,
    SweepVariable,
    run_scenario,
    run_trial,
    scene_from_db,
    snr_to_scene,
)
from caponplus.presets import PRESETS
from caponplus.signalsim import StreamRole, TrialRngs, WaveformKind
from helpers import (
    bits,
    capon_weights,
    count_draws,
    kurtosis_estimate,
    mmse_weights,
    random_model,
    reference_adaptive_trial,
    reference_fixed_trial,
)

SMALL_GEOM = ArrayGeometry(4, 0.5)
SMALL_SCENE = SourceScene(
    soi=SourceSpec(-20.0, 1.0),
    interferers=(SourceSpec(30.0, 0.5),),
    noise_var=1.0,
)


def config(**overrides):
    base = dict(
        regime=Regime.ORACLE,
        geom=SMALL_GEOM,
        base_scene=SMALL_SCENE,
        waveform=WaveformKind.CIRCULAR_GAUSSIAN,
        snapshots=60,
        secondary_snapshots=0,
        trials=200,
        master_seed=101,
        sweep=SweepSpec(SweepVariable.SNR_DB, (0.0,)),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def agg_by_method(point):
    return {a.method: a for a in point.aggregates}


class TestSnrToScene:
    def test_zero_db(self):
        scene = snr_to_scene(scene_from_db(0.0), 0.0)
        assert scene.soi.power == pytest.approx(1.0)
        powers = [s.power for s in scene.interferers]
        assert powers == pytest.approx([0.6309573444801932, 0.3981071705534972,
                                        0.251188643150958])

    def test_minus_six_db(self):
        scene = snr_to_scene(scene_from_db(0.0), -6.0)
        assert scene.soi.power == pytest.approx(0.251188643150958)

    def test_offsets_preserved(self):
        base = scene_from_db(0.0)
        for snr in (-10.0, -3.3, 4.0):
            scene = snr_to_scene(base, snr)
            for orig, scaled in zip(base.interferers, scene.interferers):
                assert scaled.power / scene.soi.power == pytest.approx(
                    orig.power / base.soi.power
                )

    def test_overflowing_db_raises_domain_error(self):
        with pytest.raises(DomainError, match="overflows"):
            snr_to_scene(scene_from_db(0.0), 4000.0)
        with pytest.raises(DomainError, match="overflows"):
            scene_from_db(4000.0)
        with pytest.raises(DomainError, match="overflows"):
            scene_from_db(0.0, interferer_offsets_db=(2.0, 4.0, -4000.0))
        with pytest.raises(DomainError, match="overflows"):
            snr_to_scene(scene_from_db(0.0), math.inf)
        with pytest.raises(DomainError, match="overflows"):
            scene_from_db(math.inf)
        with pytest.raises(DomainError, match="overflows"):
            scene_from_db(0.0, interferer_offsets_db=(2.0, 4.0, -math.inf))

    def test_requires_unit_noise(self):
        bad = SourceScene(soi=SourceSpec(0.0, 1.0), interferers=(), noise_var=2.0)
        with pytest.raises(DomainError):
            snr_to_scene(bad, 0.0)


class TestConfigValidation:
    def test_trials_floor(self):
        with pytest.raises(ConfigError, match="trials"):
            config(trials=50).validate()

    def test_trials_ceiling(self):
        # trial indices 0 .. trials - 1 must fit the 32-bit stream index
        config(trials=2**32).validate()
        with pytest.raises(ConfigError, match=r"trials must be <= 2\*\*32, .*got 4294967297"):
            config(trials=2**32 + 1).validate()

    def test_regime_b_needs_t_above_m(self):
        with pytest.raises(ConfigError, match="snapshots > antennas"):
            config(regime=Regime.B, snapshots=4).validate()

    def test_regime_c_needs_t0(self):
        with pytest.raises(ConfigError, match="T0"):
            config(regime=Regime.C, secondary_snapshots=3).validate()

    def test_swept_t0_values_checked(self):
        cfg = config(regime=Regime.C, sweep=SweepSpec(SweepVariable.T0, (3.0, 12.5)))
        with pytest.raises(ConfigError, match="T0"):
            cfg.validate()

    def test_alpha_sweep_pairing(self):
        with pytest.raises(ConfigError, match="alpha"):
            config(sweep=SweepSpec(SweepVariable.ALPHA, (0.5,))).validate()
        with pytest.raises(ConfigError, match="alpha"):
            config(regime=Regime.ALPHA_SWEEP).validate()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_t0_and_alpha_rejected(self, bad):
        t0 = config(regime=Regime.C, sweep=SweepSpec(SweepVariable.T0, (bad, 30.0)))
        with pytest.raises(ConfigError, match="T0"):
            t0.validate()
        alpha = config(regime=Regime.ALPHA_SWEEP,
                       sweep=SweepSpec(SweepVariable.ALPHA, (bad, 0.5)))
        with pytest.raises(ConfigError, match="alpha sweep values must be finite"):
            alpha.validate()

    def test_every_unscalable_snr_listed(self):
        cfg = config(sweep=SweepSpec(SweepVariable.SNR_DB, (0.0, 4000.0, -4000.0, math.inf)))
        with pytest.raises(ConfigError) as info:
            cfg.validate()
        assert "SNR sweep value 4000.0" in str(info.value)
        assert "SNR sweep value -4000.0" in str(info.value)
        assert "SNR sweep value inf" in str(info.value)
        assert "SNR sweep value 0.0" not in str(info.value)

    def test_measured_psk_alpha_needs_two_snapshots(self):
        measured = dict(waveform=WaveformKind.PSK8, psk_alpha_mode=PskAlphaMode.MEASURED)
        with pytest.raises(ConfigError, match="snapshots >= 2, got 1"):
            config(snapshots=1, **measured).validate()
        config(snapshots=2, **measured).validate()
        config(snapshots=1, waveform=WaveformKind.PSK8).validate()

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="master_seed must be >= 0"):
            config(master_seed=-1).validate()

    @pytest.mark.parametrize("seed", [7.0, "7", None])
    def test_non_integer_seed(self, seed):
        with pytest.raises(ConfigError, match="master_seed must be an integer"):
            config(master_seed=seed).validate()
        config(master_seed=np.int64(7)).validate()

    @pytest.mark.parametrize("counts", [
        dict(trials=100.0), dict(snapshots=60.0), dict(secondary_snapshots=40.5),
        dict(trials=100.0, snapshots=60.0, secondary_snapshots=40.5),
        dict(snapshots="60"), dict(trials="100"), dict(secondary_snapshots="40"),
        dict(snapshots=None, trials=None, secondary_snapshots=None),
    ])
    def test_non_integer_counts_listed(self, counts):
        regime_d = dict(regime=Regime.D, secondary_snapshots=40)
        with pytest.raises(ConfigError) as info:
            config(**{**regime_d, **counts}).validate()
        for name, value in counts.items():
            assert f"{name} must be an integer, got {value!r}" in str(info.value)
        valid = dict(trials=100, snapshots=60, secondary_snapshots=40)
        config(**{**regime_d, **{name: np.int64(valid[name]) for name in counts}}).validate()

    def test_empty_sweep(self):
        with pytest.raises(ConfigError, match="empty"):
            config(sweep=SweepSpec(SweepVariable.SNR_DB, ())).validate()

    def test_valid_configs_pass(self):
        config().validate()
        config(regime=Regime.B, snapshots=16).validate()
        config(regime=Regime.D, secondary_snapshots=9).validate()
        config(
            regime=Regime.ALPHA_SWEEP, sweep=SweepSpec(SweepVariable.ALPHA, (0.1, 1.0))
        ).validate()


class TestRunTrial:
    def test_pure_function_of_coordinates(self):
        cfg = config()
        r1 = run_trial(cfg, 0.0, 7)
        r2 = run_trial(cfg, 0.0, 7)
        assert r1 == r2

    def test_oracle_methods(self):
        records = run_trial(config(), 0.0, 0)
        assert [r[0] for r in records] == ["CB", "Capon", "MMSE", "CaponPlus"]

    def test_scenario_a_has_debiased_row(self):
        records = run_trial(config(regime=Regime.A), 0.0, 0)
        assert [r[0] for r in records] == ["Capon", "MMSE", "CaponPlus", "Debiased"]

    def test_scenario_b_methods(self):
        records = run_trial(config(regime=Regime.B, snapshots=32), 0.0, 0)
        assert [r[0] for r in records] == ["Capon", "MMSE", "CaponPlus"]

    def test_scenario_d_has_debiased_row(self):
        cfg = config(regime=Regime.D, secondary_snapshots=16)
        records = run_trial(cfg, 0.0, 0)
        assert set(r[0] for r in records) == {"Capon", "MMSE", "CaponPlus", "Debiased"}

    def test_alpha_sweep_runs_no_trial(self):
        cfg = build_run_config(PRESETS["fig2"]).scenario
        with pytest.raises(ConfigError, match="regime 'alpha_sweep' runs no Monte-Carlo trials"):
            run_trial(cfg, 0.1, 0)

    @pytest.mark.parametrize("regime", [Regime.ORACLE, Regime.A, Regime.B, Regime.C, Regime.D])
    def test_records_are_plain_tuples(self, regime):
        cfg = config(regime=regime, snapshots=32, secondary_snapshots=16)
        for record in run_trial(cfg, 0.0, 0):
            assert type(record) is tuple
            method, *metrics = record
            assert isinstance(method, str)
            assert len(metrics) == 3 and all(type(v) is float for v in metrics)


class TestDeterminism:
    def test_report_reproducible(self):
        cfg = config(trials=150)
        r1 = run_scenario(cfg)
        r2 = run_scenario(cfg)
        assert r1.points[0].aggregates == r2.points[0].aggregates

    def test_thread_count_invariance(self):
        cfg = config(trials=120, sweep=SweepSpec(SweepVariable.SNR_DB, (0.0, -4.0)))
        serial = run_scenario(cfg, threads=1)
        parallel = run_scenario(cfg, threads=2)
        for p_ser, p_par in zip(serial.points, parallel.points):
            assert p_ser.aggregates == p_par.aggregates

    def test_single_value_sweep_shape(self):
        rep = run_scenario(config(trials=100))
        assert len(rep.points) == 1
        assert rep.points[0].n_trials == 100
        assert rep.points[0].n_failed == 0


def point_records(parts, point):
    """One sweep point's records from ``_run_chunk`` parts, rebuilt as the
    ``(method, rel_bias, se_nmse, sp_nmse)`` tuples its trials returned."""
    return [(method, *row) for methods, table, _failed in (part[point] for part in parts)
            for method, row in zip(itertools.cycle(methods), table.tolist())]


def exact(records):
    """Records with each float as its ``float.hex``, so equal means equal bits."""
    return [(method, *(v.hex() for v in values)) for method, *values in records]


def scenario_run(doc, trials):
    """The ``(config, values, contexts)`` run of a config document, as
    :func:`run_scenario` builds it."""
    cfg = build_run_config({**doc, "trials": trials}).scenario
    return cfg, (cfg, cfg.sweep.values, mc._build_contexts(cfg))


CHUNK_TRIALS = 120
# Multi-point runs of the oracle regime (Gaussian, three SNRs) and of regime d
# (8-PSK sources, T0 from 30, close to M = 25, to 120).
CHUNK_POINTS = {
    "oracle": {**PRESETS["fig1"], "sweep": {"variable": "snr_db", "values": [0.0, -4.0, -8.5]}},
    "d_psk8_t0_30": {**PRESETS["fig6"], "sweep": {"variable": "t0", "values": [30.0, 120.0]}},
}


@functools.cache
def _chunk_point(name):
    """The run and its per-point parts as one chunk of all trials."""
    _cfg, run = scenario_run(CHUNK_POINTS[name], CHUNK_TRIALS)
    return run, mc._run_chunk(run, (0, CHUNK_TRIALS))


class TestChunkInvariance:
    """Each point's records and failure count do not depend on where the
    trial range is cut into chunks."""

    @pytest.mark.parametrize("name", sorted(CHUNK_POINTS))
    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(cuts=st.lists(st.integers(1, CHUNK_TRIALS - 1), unique=True, max_size=8))
    def test_split_trial_range_gives_same_records(self, name, cuts):
        run, whole = _chunk_point(name)
        bounds = [0, *sorted(cuts), CHUNK_TRIALS]
        parts = [mc._run_chunk(run, (start, stop)) for start, stop in itertools.pairwise(bounds)]
        for point in range(len(run[1])):
            records = point_records(parts, point)
            assert records == point_records([whole], point)
            assert sum(part[point][2] for part in parts) == whole[point][2]
            assert aggregate(records) == aggregate(point_records([whole], point))


    @pytest.mark.parametrize("name", sorted(CHUNK_POINTS))
    @settings(derandomize=True, database=None, deadline=None, max_examples=15)
    @given(cuts=st.lists(st.integers(1, CHUNK_TRIALS - 1), unique=True, max_size=8),
           fails=st.sets(st.tuples(st.integers(0, 2), st.integers(0, CHUNK_TRIALS - 1)),
                         max_size=8))
    def test_failed_trials_split_alike(self, name, cuts, fails):
        run, whole = _chunk_point(name)
        bounds = [0, *sorted(cuts), CHUNK_TRIALS]
        with pytest.MonkeyPatch.context() as patch:
            fail_at(patch, run, fails)
            parts = [mc._run_chunk(run, (start, stop))
                     for start, stop in itertools.pairwise(bounds)]
        for point in range(len(run[1])):
            assert point_records(parts, point) == surviving_records(whole, point, fails)
            failed = sum(part[point][2] for part in parts)
            assert failed == sum(p == point for p, _ in fails)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_trials_alike_at_any_thread_count(self, monkeypatch, threads):
        # one failure per point, within the 1 % gate; at threads 2 the 120
        # trials run in chunks of 15, so trials 0, 15 and 119 open or close one
        run, whole = _chunk_point("oracle")
        fails = {(0, 0), (1, 15), (2, 119)}
        fail_at(monkeypatch, run, fails)
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        report = run_scenario(run[0], threads=threads)
        for point, result in enumerate(report.points):
            assert result.n_failed == 1 and result.n_trials == CHUNK_TRIALS - 1
            assert result.aggregates == aggregate(surviving_records(whole, point, fails))


def fail_at(patch, run, fails):
    """Wrap ``mc.run_trial``, which ``_run_chunk`` looks up at call time, to
    raise ``NotPositiveDefinite`` at each ``(point, trial)`` of ``fails``
    after the pair has run, as a trial whose sample covariance cannot be
    factored does."""
    _, values, _ = run
    original = mc.run_trial

    def failing(cfg, value, idx, ctx=None):
        records = original(cfg, value, idx, ctx)
        if (values.index(value), idx) in fails:
            raise NotPositiveDefinite("synthetic failure", pivot_index=0)
        return records

    patch.setattr(mc, "run_trial", failing)


def surviving_records(whole, point, fails):
    """A point's records in a one-chunk run without failures, less those of
    the trials that ``fails`` fails at that point."""
    methods = whole[point][0]
    records = point_records([whole], point)
    return [rec for i, rec in enumerate(records)
            if (point, i // len(methods)) not in fails]


TRIAL_MAJOR_TRIALS = 12
# (config document, distinct stream draws a trial makes over all its points)
TRIAL_MAJOR_RUNS = {
    "oracle_gauss": (
        {**PRESETS["fig1"], "sweep": {"variable": "snr_db", "values": [0.0, -4.0, -8.5]}}, 3),
    "oracle_psk8_measured": (
        {**PRESETS["fig1"], "waveform": "psk8", "psk_alpha_mode": "measured",
         "sweep": {"variable": "snr_db", "values": [0.0, -6.0]}}, 3),
    "a_snr": ({**PRESETS["fig3"], "sweep": {"variable": "snr_db", "values": [0.0, -10.0]}}, 3),
    "b_snr": ({**PRESETS["fig4a"], "sweep": {"variable": "snr_db", "values": [5.0, -10.0]}}, 3),
    # over T0 the primary draws and the one secondary draw, at the largest T0, are shared
    "c_t0": ({**PRESETS["fig5"], "sweep": {"variable": "t0", "values": [30.0, 60.0, 120.0]}}, 4),
    "d_t0": ({**PRESETS["fig6"], "sweep": {"variable": "t0", "values": [30.0, 120.0]}}, 4),
    # one T0 at every SNR: the secondary draws are shared too
    "d_snr": ({**PRESETS["fig6"], "secondary_snapshots": 40,
               "sweep": {"variable": "snr_db", "values": [0.0, -5.0, -10.0]}}, 4),
    # a repeated SNR value: its points share one scene, so one batch, and are
    # scored beside the next scene's point
    "b_snr_repeated": ({**PRESETS["fig4a"], "waveform": "gaussian", "snapshots": 60,
                        "sweep": {"variable": "snr_db", "values": [0.0, 0.0, -5.0]}}, 3),
    "d_snr_repeated": ({**PRESETS["fig6"], "waveform": "gaussian", "secondary_snapshots": 40,
                        "sweep": {"variable": "snr_db", "values": [0.0, 0.0, -5.0]}}, 4),
}


class TestTrialMajorEqualsPointMajor:
    """A chunk that runs each trial at every point, reusing the trial's draws,
    along a T0 sweep its primary batch and its one secondary batch, drawn at
    the largest T0, and in the oracle regime and regime a
    one projection of its draws for all points, returns per point the
    records of :func:`run_trial` on that point's context built alone, each
    trial on an empty memo, bit for bit.

    For the fixed-weight regimes this compares a row of a matrix product
    that stacks every point's weights with the same row in a product of one
    point's weights; :func:`caponplus.signalsim.output_map` keeps the two
    alike (a map of one weight holds it twice)."""

    @pytest.mark.parametrize("name", sorted(TRIAL_MAJOR_RUNS))
    def test_chunk_equals_one_point_at_a_time(self, monkeypatch, name):
        doc, streams_per_trial = TRIAL_MAJOR_RUNS[name]
        n = TRIAL_MAJOR_TRIALS
        cfg, run = scenario_run(doc, 100)  # a config needs >= 100 trials; 12 of them run
        _, values, contexts = run
        counts = count_draws(monkeypatch)
        parts = mc._run_chunk(run, (0, n))
        assert len(counts["made"]) == n * streams_per_trial
        # three primary draws per run of equal scenes, plus the secondary one
        # in c and d: both batches are built at a run's first point only (at
        # every point of a T0 sweep the scene is the same), and a fixed-weight
        # trial projects its draws once for all points
        fixed = cfg.regime in (Regime.ORACLE, Regime.A)
        runs = 1 if fixed else len(list(itertools.groupby(ctx.scene for ctx in contexts)))
        secondary_runs = runs * (cfg.regime in (Regime.C, Regime.D))
        assert counts["lookups"] == n * (3 * runs + secondary_runs)
        for point, value in enumerate(values):
            reference = []
            for i in range(n):
                mc._clear_trial()
                reference.extend(run_trial(cfg, value, i))
            assert parts[point][2] == 0
            assert exact(point_records([parts], point)) == exact(reference), values[point]


def memo_is_empty():
    return (signalsim._new_draws.cache_info().currsize == 0
            and mc._held_rows == (None, None, None, None))


class TestTrialMemo:
    """The draw cache of :mod:`.signalsim` and the rows :func:`run_trial`
    holds hold one trial; a trial runs once for all points, a T0 sweep's
    primary batch is built once per trial, and a fixed-weight trial builds
    no batch; both are empty once a chunk ends or raises."""

    @pytest.mark.parametrize("name, builds_per_trial", [
        ("c_t0", 1), ("b_snr", 2), ("oracle_gauss", 0), ("a_snr", 0)])
    def test_primary_batch_built_once_per_trial_and_scene(self, monkeypatch, name,
                                                          builds_per_trial):
        _, run = scenario_run(TRIAL_MAJOR_RUNS[name][0], 100)
        built, batches = [], []
        synth = mc.synth_scene_snapshots

        def counted(geom, scene, kind, count, rngs):
            # (trial, whether the cache and the held rows are empty, whether
            # an earlier batch is still alive)
            built.append((rngs.trial_index, memo_is_empty(),
                          any(ref() is not None for ref in batches)))
            batch = synth(geom, scene, kind, count, rngs)
            batches.append(weakref.ref(batch.snapshots))
            return batch

        monkeypatch.setattr(mc, "synth_scene_snapshots", counted)
        mc._run_chunk(run, (0, TRIAL_MAJOR_TRIALS))
        # the chunk empties both before each trial, so only a trial's first
        # build finds them empty; a batch is dropped before the next is built
        assert built == [(i, j == 0, False) for i in range(TRIAL_MAJOR_TRIALS)
                         for j in range(builds_per_trial)]

    @pytest.mark.parametrize("points", [6, 12])
    def test_t0_sweep_holds_only_the_last_four_draws(self, monkeypatch, points):
        # fig6 at its first `points` T0 values: one primary batch (3 draws)
        # and one secondary draw, at the largest of those T0, for all points
        doc = PRESETS["fig6"]
        doc = {**doc, "sweep": {**doc["sweep"], "values": doc["sweep"]["values"][:points]}}
        cfg, (_, values, contexts) = scenario_run(doc, 100)
        assert len(values) == points
        counts = count_draws(monkeypatch)
        signalsim.clear_trial_memo()
        for value, ctx in zip(values, contexts):
            run_trial(cfg, value, 0, ctx)
        made = counts["made"]
        assert len(made) == 4
        assert [key[5] for key in made if key[2] is StreamRole.SECONDARY] == [int(max(values))]
        # looking the four draws up makes none: the cache holds them and
        # nothing else, whatever the number of points
        for key in made:
            signalsim._new_draws(*key)
        assert len(made) == 4
        assert signalsim._new_draws.cache_info().currsize == 4
        signalsim.clear_trial_memo()

    def test_empty_after_run_scenario(self):
        cfg = config(regime=Regime.D, trials=100, secondary_snapshots=0,
                     sweep=SweepSpec(SweepVariable.T0, (8.0, 16.0)))
        run_scenario(cfg, threads=1)
        assert memo_is_empty()

    @pytest.mark.parametrize("name", ["oracle_gauss", "a_snr", "b_snr", "d_t0"])
    def test_each_trial_runs_once_for_all_points(self, monkeypatch, name):
        cfg, run = scenario_run(TRIAL_MAJOR_RUNS[name][0], 100)
        ran, calls = [], []
        trial, pair = mc._TRIAL_FUNCS[cfg.regime], mc.run_trial

        def counted_trial(config, points, idx):
            # (trial, whether the draws and the held rows are empty)
            ran.append((idx, memo_is_empty()))
            return trial(config, points, idx)

        def counted_pair(config, value, idx, ctx=None):
            calls.append((idx, ctx.point))
            return pair(config, value, idx, ctx)

        monkeypatch.setitem(mc._TRIAL_FUNCS, cfg.regime, counted_trial)
        monkeypatch.setattr(mc, "run_trial", counted_pair)
        mc._run_chunk(run, (0, TRIAL_MAJOR_TRIALS))
        assert ran == [(i, True) for i in range(TRIAL_MAJOR_TRIALS)]
        # still one run_trial call per (point, trial) pair, trial-major
        assert calls == [(i, p) for i in range(TRIAL_MAJOR_TRIALS) for p in range(len(run[1]))]

    def test_empty_after_chunk_raises(self, monkeypatch):
        for name in ("d_t0", "oracle_gauss"):
            _, run = scenario_run(TRIAL_MAJOR_RUNS[name][0], 100)
            original = mc.run_trial

            def raising(cfg, value, idx, ctx=None, original=original):
                records = original(cfg, value, idx, ctx)
                if idx == 3:
                    raise RuntimeError("synthetic error")
                return records

            monkeypatch.setattr(mc, "run_trial", raising)
            with pytest.raises(RuntimeError, match="synthetic error"):
                mc._run_chunk(run, (0, TRIAL_MAJOR_TRIALS))
            assert memo_is_empty(), name
            monkeypatch.undo()


class TestT0SweepSharesOneSecondaryDraw:
    """Along a T0 sweep a trial draws its secondary batch once, at the
    sweep's largest T0, and each point trains on its first T0 snapshots;
    off a T0 sweep it draws at ``secondary_snapshots``."""

    @pytest.mark.parametrize("name", ["c_t0", "d_t0", "d_snr"])
    def test_point_scm_is_scm_of_a_prefix_of_the_largest_draw(self, monkeypatch, name):
        cfg, (_, values, contexts) = scenario_run(TRIAL_MAJOR_RUNS[name][0], 100)
        largest = (int(max(values)) if cfg.sweep.variable is SweepVariable.T0
                   else cfg.secondary_snapshots)
        seen, original = [], mc.scm
        monkeypatch.setattr(mc, "scm", lambda batch: seen.append(original(batch)) or seen[-1])
        for i in range(3):
            mc._clear_trial()
            run_trial(cfg, values[0], i, contexts[0])
            assert len(seen) == len(values)
            for ctx, cov in zip(contexts, seen):
                full = signalsim.synth_scene_secondary(cfg.geom, ctx.scene, cfg.waveform,
                                                       largest, TrialRngs(cfg.master_seed, i))
                expected = scm(full._replace(snapshots=full.snapshots[:ctx.secondary_snapshots]))
                assert bits(cov.matrix).tolist() == bits(expected.matrix).tolist()
            seen.clear()
        mc._clear_trial()

    @pytest.mark.parametrize("preset", ["fig5", "fig6"])
    def test_sweep_order_does_not_change_a_points_records(self, preset):
        records = []
        for order in ([30.0, 60.0, 120.0], [120.0, 30.0, 60.0]):
            doc = {**PRESETS[preset], "sweep": {"variable": "t0", "values": order}}
            _, run = scenario_run(doc, 100)
            parts = mc._run_chunk(run, (0, TRIAL_MAJOR_TRIALS))
            records.append({value: exact(point_records([parts], point))
                            for point, value in enumerate(order)})
        assert records[0] == records[1]


def fail_inside_trial(patch, run, fails):
    """Wrap ``mc.adaptive_capon_weights``, where a regime-b to -d trial
    factors its sample covariance, to raise the error ``fails`` maps a
    ``(point, trial)`` to.  A trial calls it once per point, in point order,
    so its calls count the pairs off from trial 0."""
    _, values, _ = run
    original, calls = mc.adaptive_capon_weights, itertools.count()

    def failing(matrix, a):
        idx, point = divmod(next(calls), len(values))
        if (point, idx) in fails:
            raise fails[point, idx]
        return original(matrix, a)

    patch.setattr(mc, "adaptive_capon_weights", failing)


class TestHeldFailure:
    """A regime-b to -d trial runs at every point at once and scores the
    points that trained as one stack, so a sample covariance that cannot be
    factored at one point is held as that point's entry, and every other
    point keeps its own records."""

    def test_counts_only_at_its_point(self, monkeypatch):
        run, whole = _chunk_point("d_psk8_t0_30")
        fails = {(0, 5): NotPositiveDefinite("synthetic failure", pivot_index=0),
                 (1, 7): NotPositiveDefinite("synthetic failure", pivot_index=0)}
        fail_inside_trial(monkeypatch, run, fails)
        parts = mc._run_chunk(run, (0, CHUNK_TRIALS))
        for point in range(len(run[1])):
            assert parts[point][2] == sum(p == point for p, _ in fails)
            assert (exact(point_records([parts], point))
                    == exact(surviving_records(whole, point, fails)))
        assert memo_is_empty()

    @pytest.mark.parametrize("name, fails", [
        ("c_t0", {(1, 2), (2, 5)}),  # the middle and the last point of a T0 sweep
        ("c_t0", {(0, 4), (1, 4), (2, 4)}),  # every point of one trial
        ("b_snr", {(1, 3)}),  # one point of an SNR sweep, one scene per point
    ])
    def test_failed_point_keeps_its_place_in_the_stack(self, monkeypatch, name, fails):
        _, run = scenario_run(TRIAL_MAJOR_RUNS[name][0], 100)
        whole = mc._run_chunk(run, (0, TRIAL_MAJOR_TRIALS))
        fail_inside_trial(monkeypatch, run, {
            key: NotPositiveDefinite("synthetic failure", pivot_index=0) for key in fails})
        parts = mc._run_chunk(run, (0, TRIAL_MAJOR_TRIALS))
        for point in range(len(run[1])):
            assert parts[point][2] == sum(p == point for p, _ in fails)
            assert (exact(point_records([parts], point))
                    == exact(surviving_records(whole, point, fails)))
        assert memo_is_empty()

    def test_other_error_at_a_later_point_ends_the_run(self, monkeypatch):
        run, _ = _chunk_point("d_psk8_t0_30")
        fails = {(0, 3): NotPositiveDefinite("synthetic failure", pivot_index=0),
                 (1, 3): RuntimeError("synthetic error")}
        fail_inside_trial(monkeypatch, run, fails)
        with pytest.raises(RuntimeError, match="synthetic error"):
            mc._run_chunk(run, (0, CHUNK_TRIALS))
        assert memo_is_empty()


# Fixed-weight runs checked against the snapshot-matrix reference: the oracle
# regime with Gaussian and with 8-PSK sources under each shrinkage rule, and
# regime a with either waveform.
PROJECTED_RUNS = {
    "oracle_gauss": PRESETS["fig1"],
    **{f"oracle_psk8_{mode}": {**PRESETS["fig1"], "waveform": "psk8", "psk_alpha_mode": mode}
       for mode in ("kappa_minus_one", "exact", "measured")},
    "a_psk8": PRESETS["fig3"],
    "a_gauss": {**PRESETS["fig3"], "waveform": "gaussian"},
}
PROJECTED_SNRS = [20.0, 0.0, -10.0, -30.0]
PROJECTED_TRIALS = 40


class TestProjectedTrialsMatchSnapshotReference:
    """A fixed-weight trial projects its draws through every point's stacked
    weights instead of forming the snapshot matrix and applying each weight
    to it (:func:`helpers.reference_fixed_trial`), so its metrics differ from
    the reference's by rounding only.

    Bound: each metric of each record is within ``16 eps (1 + m)`` of the
    reference's, ``m`` being the largest magnitude of that metric among the
    methods the trial scores at that point.  An output moves by a few ``eps``
    of the largest output, which moves every relative bias by a few ``eps``
    of the largest output power over ``gamma``.  The largest deviation seen
    on these runs, from 20 to -30 dB, is 6.2 ``eps (1 + m)``."""

    @pytest.mark.parametrize("name", sorted(PROJECTED_RUNS))
    def test_records_match_within_rounding(self, name):
        doc = {**PROJECTED_RUNS[name], "sweep": {"variable": "snr_db", "values": PROJECTED_SNRS}}
        cfg, run = scenario_run(doc, 100)
        parts = mc._run_chunk(run, (0, PROJECTED_TRIALS))
        eps = np.finfo(np.float64).eps
        for point, ctx in enumerate(run[2]):
            records = point_records([parts], point)
            n = len(records) // PROJECTED_TRIALS
            for i in range(PROJECTED_TRIALS):
                ref = reference_fixed_trial(cfg, ctx, i)
                got = records[i * n:(i + 1) * n]
                assert [r[0] for r in got] == [r[0] for r in ref]
                got, ref = np.array([r[1:] for r in got]), np.array([r[1:] for r in ref])
                bound = 16 * eps * (1.0 + np.abs(ref).max(axis=0))
                assert (np.abs(got - ref) <= bound).all(), (name, PROJECTED_SNRS[point], i)


ADAPTIVE_RUNS = {
    "b_fig4c": PRESETS["fig4c"],
    "c_t0": {**PRESETS["fig5"], "sweep": {"variable": "t0", "values": [30.0, 60.0, 120.0]}},
    "d_t0": {**PRESETS["fig6"], "sweep": {"variable": "t0", "values": [30.0, 60.0, 120.0]}},
    # -20 dB clamps the debiased power at zero in some trials
    "d_snr": {**PRESETS["fig6"], "secondary_snapshots": 60,
              "sweep": {"variable": "snr_db", "values": [5.0, 0.0, -10.0, -20.0]}},
}
ADAPTIVE_TRIALS = 30


class TestAdaptiveTrialsMatchReference:
    """An adaptive trial scales its one Capon output by the rule of
    ``_capon_rows``; :func:`helpers.reference_adaptive_trial` scores each
    method from the paper's formulas, training on a prefix of the secondary
    batch drawn at the sweep's largest T0 in regimes c and d.

    Bound: as for the projected trials, each metric of each record is within
    ``16 eps (1 + m)`` of the reference's, ``m`` being the largest magnitude
    of that metric among the methods at that point.  The largest deviation
    seen on these runs is 10.8 ``eps (1 + m)``, on regime b's MMSE bias at
    5 dB, where the reference's own MMSE weight ``gamma C_hat^{-1} a``
    carries the rounding of its plug-in ``1 / (a^H C_hat^{-1} a)`` and the
    trial's the smaller one of the Capon output's power; regimes c and d
    reach 5.1, on regime d's CaponPlus SP-NMSE at T0 = 30.  The largest
    relative change is 7.8e-12, on a CaponPlus SP-NMSE of 3.2e-9 (regime d
    at 0 dB)."""

    @pytest.mark.parametrize("name", sorted(ADAPTIVE_RUNS))
    def test_records_match_within_rounding(self, name):
        cfg, (_, values, contexts) = scenario_run(ADAPTIVE_RUNS[name], 100)
        eps = np.finfo(np.float64).eps
        for i in range(ADAPTIVE_TRIALS):
            for value, ctx in zip(values, contexts):
                ref = reference_adaptive_trial(cfg, ctx, i)
                got = run_trial(cfg, value, i, ctx)
                assert [r[0] for r in got] == [r[0] for r in ref]
                got, ref = np.array([r[1:] for r in got]), np.array([r[1:] for r in ref])
                bound = 16 * eps * (1.0 + np.abs(ref).max(axis=0))
                assert (np.abs(got - ref) <= bound).all(), (name, value, i)


@pytest.fixture(scope="module")
def oracle_report():
    return run_scenario(config(trials=2500, master_seed=7,
                               sweep=SweepSpec(SweepVariable.SNR_DB, (-3.0,))))


class TestOracleStatistics:
    def test_capon_and_mmse_bias_match_theory(self, oracle_report):
        scene = snr_to_scene(SMALL_SCENE, -3.0)
        model = build_cov_model(SMALL_GEOM, scene)
        rep = theory_report(model, 60)
        aggs = agg_by_method(oracle_report.points[0])
        cap = aggs["Capon"]
        assert abs(cap.mean_rel_bias - rep.capon_bias / model.gamma) <= 3 * cap.stderr_rel_bias
        mmse = aggs["MMSE"]
        assert abs(mmse.mean_rel_bias - rep.mmse_bias / model.gamma) <= 3 * mmse.stderr_rel_bias

    def test_sign_ordering(self, oracle_report):
        aggs = agg_by_method(oracle_report.points[0])
        assert aggs["Capon"].mean_rel_bias > 3 * aggs["Capon"].stderr_rel_bias
        assert aggs["MMSE"].mean_rel_bias < -3 * aggs["MMSE"].stderr_rel_bias

    def test_capon_plus_mse_near_theory(self, oracle_report):
        aggs = agg_by_method(oracle_report.points[0])
        cp = aggs["CaponPlus"]
        assert abs(cp.mean_sp_nmse - 1.0 / 61.0) <= 3 * cp.stderr_sp_nmse

    def test_se_nmse_ordering_mmse_best(self, oracle_report):
        aggs = agg_by_method(oracle_report.points[0])
        assert aggs["MMSE"].mean_se_nmse < aggs["Capon"].mean_se_nmse


class TestScenarioBConvergence:
    def test_large_t_matches_oracle(self):
        # executable form of the B -> oracle equivalence for T >> M
        common = dict(
            geom=SMALL_GEOM, base_scene=SMALL_SCENE, snapshots=5000, trials=250,
            master_seed=11, sweep=SweepSpec(SweepVariable.SNR_DB, (0.0,)),
        )
        rep_b = run_scenario(config(regime=Regime.B, **common))
        rep_o = run_scenario(config(regime=Regime.ORACLE, **common))
        aggs_b = agg_by_method(rep_b.points[0])
        aggs_o = agg_by_method(rep_o.points[0])
        for method in ("Capon", "MMSE", "CaponPlus"):
            tol = 3.0 * math.hypot(
                aggs_b[method].stderr_rel_bias, aggs_o[method].stderr_rel_bias
            )
            assert abs(aggs_b[method].mean_rel_bias - aggs_o[method].mean_rel_bias) <= tol


class TestScenarioBExactGaussian:
    """Regime b against the exact moments of the adaptive Capon power.

    For Gaussian snapshots ``T gamma_hat / gamma_cap``, with the plug-in
    power ``gamma_hat = 1 / (a^H S_hat^{-1} a)``, is Gamma(T - M + 1)
    distributed (Capon & Goodman 1970; Reed, Mallett & Brennan 1974): mean
    ``(T-M+1)/T gamma_cap`` and variance ``(T-M+1)/T^2 gamma_cap^2``.  The
    Capon row measures ``w^H S_hat w``, which equals ``gamma_hat``.  The
    MMSE row's power ``gamma^2 / gamma_hat`` has mean
    ``gamma^2 T/(T-M) / gamma_cap`` by the inverse-Wishart mean
    ``E[S_hat^{-1}] = T/(T-M) S^{-1}``.  It is heavy-tailed for ``T`` near
    ``M`` (relative spread ``1/sqrt(T-M-1)`` per trial), so it is checked at
    ``T = 60`` alone.
    """

    @pytest.mark.parametrize("t", [30, 60])
    def test_capon_and_mmse_rows(self, t):
        m = DEFAULT_GEOMETRY.antennas
        rep = run_scenario(config(
            regime=Regime.B, geom=DEFAULT_GEOMETRY, base_scene=scene_from_db(0.0),
            snapshots=t, trials=1000, master_seed=8,
            sweep=SweepSpec(SweepVariable.SNR_DB, (0.0, -6.0)),
        ))
        k = (t - m + 1) / t
        for point in rep.points:
            scene = snr_to_scene(scene_from_db(0.0), point.sweep_value)
            model = build_cov_model(DEFAULT_GEOMETRY, scene)
            ratio = capon_output_power(model) / model.gamma
            aggs = agg_by_method(point)
            capon, mmse = aggs["Capon"], aggs["MMSE"]
            expected = {
                "capon bias": (capon.mean_rel_bias, capon.stderr_rel_bias, k * ratio - 1.0),
                "capon sp_nmse": (capon.mean_sp_nmse, capon.stderr_sp_nmse,
                                  k / t * ratio**2 + (k * ratio - 1.0) ** 2),
            }
            if t == 60:
                expected["mmse bias"] = (mmse.mean_rel_bias, mmse.stderr_rel_bias,
                                         t / (t - m) / ratio - 1.0)
            for name, (mean, stderr, target) in expected.items():
                z = (mean - target) / stderr
                assert abs(z) <= 5.0, (name, point.sweep_value, z)


class TestScenarioA:
    def test_high_snr_psk_capon_plus_unbiased(self):
        cfg = config(
            regime=Regime.A, waveform=WaveformKind.PSK8, trials=400, master_seed=3,
            sweep=SweepSpec(SweepVariable.SNR_DB, (12.0,)),
        )
        aggs = agg_by_method(run_scenario(cfg).points[0])
        cp = aggs["CaponPlus"]
        assert abs(cp.mean_rel_bias) <= 3 * cp.stderr_rel_bias
        # debiased estimator tracks the shrunk estimate closely
        deb = aggs["Debiased"]
        assert abs(deb.mean_rel_bias - cp.mean_rel_bias) <= 5e-3


class TestPskAlphaModes:
    def test_modes_produce_distinct_alphas(self):
        alphas = {}
        for mode in PskAlphaMode:
            cfg = config(waveform=WaveformKind.PSK8, psk_alpha_mode=mode,
                         sweep=SweepSpec(SweepVariable.SNR_DB, (-3.0,)))
            rel = {method: rel for method, rel, _, _ in run_trial(cfg, -3.0, 4)}
            # CaponPlus scales the Capon power estimate by alpha
            alphas[mode] = (1.0 + rel["CaponPlus"]) / (1.0 + rel["Capon"])
        scene = snr_to_scene(SMALL_SCENE, -3.0)
        model = build_cov_model(SMALL_GEOM, scene)
        gamma_cap = capon_output_power(model)
        assert alphas[PskAlphaMode.KAPPA_MINUS_ONE] == pytest.approx(model.gamma / gamma_cap)
        # exact population kurtosis is negative but above -1 at modest SNR
        assert alphas[PskAlphaMode.EXACT] < alphas[PskAlphaMode.KAPPA_MINUS_ONE]
        assert alphas[PskAlphaMode.MEASURED] != alphas[PskAlphaMode.KAPPA_MINUS_ONE]

    def test_kappa_minus_one_exact_at_high_snr(self):
        """At 40 dB in the reference scene the Capon output is constant-modulus
        to 1e-4 in kurtosis, so ``exact`` and ``kappa_minus_one`` agree."""
        scene = snr_to_scene(scene_from_db(0.0), 40.0)
        model = build_cov_model(DEFAULT_GEOMETRY, scene)
        w_cap = model.sinv_a / model.ah_sinv_a
        power, fourth = output_moments_theory(DEFAULT_GEOMETRY, scene, WaveformKind.PSK8, w_cap)
        assert abs(fourth / power**2 - 2.0 + 1.0) <= 1e-4
        alphas = {
            mode: mc.build_context(config(
                geom=DEFAULT_GEOMETRY, base_scene=scene_from_db(0.0),
                waveform=WaveformKind.PSK8, psk_alpha_mode=mode,
                sweep=SweepSpec(SweepVariable.SNR_DB, (40.0,)),
            ), 40.0).alpha_oracle
            for mode in (PskAlphaMode.EXACT, PskAlphaMode.KAPPA_MINUS_ONE)
        }
        assert alphas[PskAlphaMode.EXACT] == pytest.approx(
            alphas[PskAlphaMode.KAPPA_MINUS_ONE], rel=1e-6)

    def test_kurtosis_from_moments_matches_samples(self):
        """The measured mode's kurtosis, from the output moments, agrees with
        the sample kurtosis to rounding; a zero output has none."""
        rng = np.random.default_rng(5)
        psk = 2.0 * np.exp(1j * np.pi / 4.0 * rng.integers(0, 8, 64))
        gauss = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        for s in (psk, gauss, psk + 0.1 * gauss):
            assert mc._kurtosis(*output_moments(s)) == pytest.approx(
                kurtosis_estimate(s), rel=1e-13, abs=1e-13)
        assert mc._kurtosis(*output_moments(psk)) == pytest.approx(-1.0, abs=1e-14)
        with pytest.raises(DegenerateSample):
            mc._kurtosis(*output_moments(np.zeros(8, dtype=complex)))


class TestAlphaSweep:
    def test_minimum_at_gaussian_optimum(self):
        scene = snr_to_scene(scene_from_db(0.0), -6.0)
        model = build_cov_model(DEFAULT_GEOMETRY, scene)
        rep = theory_report(model, 60)
        grid = tuple(np.linspace(0.05, 1.3, 126)) + (rep.alpha_o,)
        cfg = config(
            regime=Regime.ALPHA_SWEEP, geom=DEFAULT_GEOMETRY, base_scene=scene,
            sweep=SweepSpec(SweepVariable.ALPHA, grid),
        )
        out = run_scenario(cfg)
        nmse = np.array([p.aggregates[0].mean_sp_nmse for p in out.points])
        best = grid[int(np.argmin(nmse))]
        assert abs(best - rep.alpha_o) <= (grid[1] - grid[0])
        # the exact optimum sits on the appended grid point
        assert nmse.min() == pytest.approx(1.0 / 61.0, rel=1e-9)
        assert out.points[0].n_trials == 0

    def test_capon_and_mmse_alphas_recover_their_nmse(self):
        scene = snr_to_scene(SMALL_SCENE, -6.0)
        model = build_cov_model(SMALL_GEOM, scene)
        rep = theory_report(model, 60)
        alpha_mmse = (model.gamma / rep.gamma_cap) ** 2
        cfg = config(
            regime=Regime.ALPHA_SWEEP, base_scene=scene,
            sweep=SweepSpec(SweepVariable.ALPHA, (1.0, alpha_mmse)),
        )
        out = run_scenario(cfg)
        # alpha = 1 is the plain Capon estimator: NMSE = (var + bias^2)/gamma^2
        var = rep.gamma_cap**2 / 60.0
        expect_capon = (var + rep.capon_bias**2) / model.gamma**2
        assert out.points[0].aggregates[0].mean_sp_nmse == pytest.approx(expect_capon, rel=1e-9)


class TestEmitTheory:
    def test_theory_rows_appended(self):
        rep = run_scenario(config(trials=100), emit_theory=True)
        methods = [a.method for a in rep.points[0].aggregates]
        assert methods[:4] == ["CB", "Capon", "MMSE", "CaponPlus"]
        assert set(methods[4:]) == {"CBTheory", "CaponTheory", "MMSETheory", "CaponPlusTheory"}
        theory = agg_by_method(rep.points[0])["CaponTheory"]
        scene = snr_to_scene(SMALL_SCENE, 0.0)
        model = build_cov_model(SMALL_GEOM, scene)
        assert theory.mean_rel_bias == pytest.approx(
            capon_bias(model) / model.gamma, rel=1e-9
        )
        assert theory.n_trials == 0
        assert theory.stderr_rel_bias == 0.0

    def test_mc_agrees_with_theory_rows(self):
        rep = run_scenario(config(trials=2000, master_seed=19), emit_theory=True)
        aggs = agg_by_method(rep.points[0])
        t = 60
        for method in ("CB", "Capon", "MMSE", "CaponPlus"):
            mcval = aggs[method]
            th = aggs[method + "Theory"]
            assert abs(mcval.mean_rel_bias - th.mean_rel_bias) <= 3 * mcval.stderr_rel_bias
            assert abs(mcval.mean_sp_nmse - th.mean_sp_nmse) <= 4 * mcval.stderr_sp_nmse
            # SE-NMSE is a per-trial ratio whose mean carries an O(1/T) bias
            # relative to the per-sample theory value
            slack = 4 * mcval.stderr_se_nmse + 2.0 * th.mean_se_nmse / t
            assert abs(mcval.mean_se_nmse - th.mean_se_nmse) <= slack


class TestFailureHandling:
    """Failed trials are counted and left out alike through the serial map and
    the worker pool, whose forked workers inherit the patched ``run_trial``.
    The sweep has three points, and every ``run_trial`` call is counted per point in
    shared memory, so calls made in workers are seen."""

    SNRS = (0.0, 1.0, 2.0)
    TRIALS = 1000
    # At threads = 2 the 1000 trials run in chunks of 125: trials 0, 124, 125
    # and 999 open or close a chunk; at threads = 1, 0 and 999 do.
    FAILING = (0, 3, 124, 125, 999)

    def _run(self, monkeypatch, fails, threads):
        """Run the sweep with trial ``idx`` of point ``p`` failing where
        ``fails[p](idx)``; return the report, or the error it raised, and the
        trial calls made at each point."""
        original = mc.run_trial
        calls = [multiprocessing.Value("q", 0) for _ in self.SNRS]

        def counted(cfg, value, idx, ctx=None):
            point = self.SNRS.index(value)
            with calls[point].get_lock():
                calls[point].value += 1
            if point in fails and fails[point](idx):
                raise NotPositiveDefinite("synthetic failure", pivot_index=0)
            return original(cfg, value, idx, ctx)

        monkeypatch.setattr(mc, "run_trial", counted)
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = config(trials=self.TRIALS, sweep=SweepSpec(SweepVariable.SNR_DB, self.SNRS))
        try:
            outcome = run_scenario(cfg, threads=threads)
        except TrialFailureError as exc:
            outcome = exc
        return outcome, [c.value for c in calls]

    def test_failures_counted_and_excluded(self, monkeypatch):
        cfg = config(trials=self.TRIALS)
        expected = []
        for point, snr in enumerate(self.SNRS):
            ctx = mc.build_context(cfg, snr)
            expected.append(mc.aggregate([
                r for i in range(self.TRIALS) if point != 1 or i not in self.FAILING
                for r in run_trial(cfg, snr, i, ctx)
            ]))
        for threads in (1, 2):
            report, calls = self._run(monkeypatch, {1: self.FAILING.__contains__}, threads)
            assert calls == [self.TRIALS] * 3
            assert [p.n_failed for p in report.points] == [0, len(self.FAILING), 0]
            assert [p.n_trials for p in report.points] == [
                self.TRIALS, self.TRIALS - len(self.FAILING), self.TRIALS]
            assert [p.aggregates for p in report.points] == expected
            # the run reached the workers through the fork, not through this process
            assert mc._worker_run is None

    def test_failure_threshold_hard_error(self, monkeypatch):
        # 50 of 1000 trials fail at point 1, over the 1 % gate.  Every chunk
        # runs every point, so the gate is checked once all trials have run.
        very_flaky = lambda idx: idx % 20 == 0  # noqa: E731
        for threads in (1, 2):
            error, calls = self._run(monkeypatch, {1: very_flaky}, threads)
            assert isinstance(error, TrialFailureError)
            assert str(error) == "50 of 1000 trials failed at sweep value 1.0 (> 1% threshold)"
            assert calls == [self.TRIALS] * 3

    def test_first_failing_point_in_sweep_order_named(self, monkeypatch):
        # Point 2 fails first (at trial 0; point 1 at trial 19) and twice as
        # often as point 1; the error still names point 1.
        fails = {1: lambda idx: idx % 20 == 19, 2: lambda idx: idx % 10 == 0}
        for threads in (1, 2):
            error, calls = self._run(monkeypatch, fails, threads)
            assert isinstance(error, TrialFailureError)
            assert str(error) == "50 of 1000 trials failed at sweep value 1.0 (> 1% threshold)"
            assert calls == [self.TRIALS] * 3


class TestWorkerCap:
    """The pool gets at most one worker per usable CPU, one ``map`` call
    carries every chunk, and a work item is a trial range ``(start, stop)``
    only.  No process is started: the executor is replaced by a recorder that
    runs the initializer and maps in-process."""

    def test_threads_capped_by_affinity(self, monkeypatch):
        pools = []
        # the recorder's initializer sets the worker's run in this process
        monkeypatch.setattr(mc, "_worker_run", None)

        class RecordingPool:
            def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
                self.max_workers, self.maps, self.chunks = max_workers, 0, 0
                self.shut_down = False
                initializer(*initargs)
                pools.append(self)

            def map(self, fn, args):
                self.maps += 1
                self.chunks += len(args)
                assert all(len(item) == 2 and all(type(x) is int for x in item)
                           for item in args)
                return map(fn, args)

            def shutdown(self, wait=True, *, cancel_futures=False):
                self.shut_down = cancel_futures

        monkeypatch.setattr(mc, "ProcessPoolExecutor", RecordingPool)
        cfg = config(trials=200, sweep=SweepSpec(SweepVariable.SNR_DB, (0.0, 1.0, 2.0)))
        serial = run_scenario(cfg, threads=1).points
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert run_scenario(cfg, threads=100_000).points == serial
        assert pools == []
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert run_scenario(cfg, threads=100_000).points == serial
        # 200 trials over 3 workers: 12 chunks of ceil(200 / 12) = 17 trials,
        # each of all three points, through one map call.
        assert [(p.max_workers, p.maps, p.chunks, p.shut_down) for p in pools] == [
            (3, 1, 12, True)]

    def test_forked_workers_get_the_run_unpickled(self, monkeypatch):
        def refuse(self, protocol):
            raise pickle.PicklingError(f"{type(self).__name__} pickled")

        cfg = config(trials=200, sweep=SweepSpec(SweepVariable.SNR_DB, (0.0, 1.0)))
        serial = run_scenario(cfg, threads=1).points
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for cls in (mc.ScenarioConfig, mc.SweepContext):
            monkeypatch.setattr(cls, "__reduce_ex__", refuse, raising=False)
        assert run_scenario(cfg, threads=2).points == serial


class TestContextSolvesOnce:
    """The context's Capon and MMSE weights and the theory's Capon power come
    from the model's single S solve, bit for bit equal to fresh solves."""

    @staticmethod
    def _check(model, w_cap, w_mmse, gamma_cap):
        a = model.a
        assert np.array_equal(w_cap, capon_weights(model.full, a))
        assert np.array_equal(w_mmse, mmse_weights(model.gamma, model.full, a))
        assert gamma_cap == 1.0 / float(np.vdot(a, solve_chol(cholesky(model.full), a)).real)
        qinv_a = solve_chol(cholesky(model.incm), a)
        assert np.array_equal(model.qinv_a, qinv_a)
        assert model.ah_qinv_a == float(np.vdot(a, qinv_a).real)

    @pytest.mark.parametrize("preset", ["fig1", "fig3", "fig4a", "fig5"])
    def test_preset_contexts(self, preset):
        cfg = build_run_config(PRESETS[preset]).scenario
        for value in (cfg.sweep.values[0], cfg.sweep.values[-1]):
            ctx = mc.build_context(cfg, value)
            self._check(ctx.model, ctx.w_cap, ctx.w_mmse, ctx.theory.gamma_cap)

    def test_random_models(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            _geom, _scene, model = random_model(rng)
            self._check(model, model.sinv_a / model.ah_sinv_a, model.gamma * model.sinv_a,
                        theory_report(model, 60).gamma_cap)
