import math

import numpy as np
import pytest

import caponplus.montecarlo as mc
from caponplus.arraymodel import (
    ArrayGeometry,
    SourceScene,
    SourceSpec,
    build_cov_model,
    capon_bias,
    capon_output_power,
    theory_report,
)
from caponplus.errors import ConfigError, DomainError, NotPositiveDefinite, TrialFailureError
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
from caponplus.signalsim import WaveformKind

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

    def test_requires_unit_noise(self):
        bad = SourceScene(soi=SourceSpec(0.0, 1.0), interferers=(), noise_var=2.0)
        with pytest.raises(DomainError):
            snr_to_scene(bad, 0.0)


class TestConfigValidation:
    def test_trials_floor(self):
        with pytest.raises(ConfigError, match="trials"):
            config(trials=50).validate()

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
        assert [r.method for r in records] == ["CB", "Capon", "MMSE", "CaponPlus"]

    def test_scenario_a_has_debiased_row(self):
        records = run_trial(config(regime=Regime.A), 0.0, 0)
        assert [r.method for r in records] == ["Capon", "MMSE", "CaponPlus", "Debiased"]

    def test_scenario_b_methods(self):
        records = run_trial(config(regime=Regime.B, snapshots=32), 0.0, 0)
        assert [r.method for r in records] == ["Capon", "MMSE", "CaponPlus"]

    def test_scenario_d_has_debiased_row(self):
        cfg = config(regime=Regime.D, secondary_snapshots=16)
        records = run_trial(cfg, 0.0, 0)
        assert set(r.method for r in records) == {"Capon", "MMSE", "CaponPlus", "Debiased"}


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
            records = run_trial(cfg, -3.0, 4)
            alphas[mode] = [r for r in records if r.method == "CaponPlus"][0].alpha_used
        scene = snr_to_scene(SMALL_SCENE, -3.0)
        model = build_cov_model(SMALL_GEOM, scene)
        gamma_cap = capon_output_power(model)
        assert alphas[PskAlphaMode.KAPPA_MINUS_ONE] == pytest.approx(model.gamma / gamma_cap)
        # exact population kurtosis is negative but above -1 at modest SNR
        assert alphas[PskAlphaMode.EXACT] < alphas[PskAlphaMode.KAPPA_MINUS_ONE]
        assert alphas[PskAlphaMode.MEASURED] != alphas[PskAlphaMode.KAPPA_MINUS_ONE]


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
    def test_failures_counted_and_excluded(self, monkeypatch):
        original = mc._TRIAL_FUNCS[Regime.ORACLE]

        def flaky(cfg, ctx, idx):
            if idx == 3:
                raise NotPositiveDefinite("synthetic failure", pivot_index=0)
            return original(cfg, ctx, idx)

        monkeypatch.setitem(mc._TRIAL_FUNCS, Regime.ORACLE, flaky)
        rep = run_scenario(config(trials=1000))
        assert rep.points[0].n_failed == 1
        assert rep.points[0].n_trials == 999

    def test_failure_threshold_hard_error(self, monkeypatch):
        original = mc._TRIAL_FUNCS[Regime.ORACLE]

        def very_flaky(cfg, ctx, idx):
            if idx % 20 == 0:
                raise NotPositiveDefinite("synthetic failure", pivot_index=0)
            return original(cfg, ctx, idx)

        monkeypatch.setitem(mc._TRIAL_FUNCS, Regime.ORACLE, very_flaky)
        with pytest.raises(TrialFailureError):
            run_scenario(config(trials=200))
