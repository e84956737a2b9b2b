"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run ``pytest tests/test_acceptance.py -v -s``
to see every line).
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from caponplus.arraymodel import (
    build_cov_model,
    capon_bias,
    capon_output_power,
    cov_model_from_parts,
    output_moments_theory,
)
from caponplus.cli import build_run_config, main
from caponplus.estimation import debiased_power, scm
from caponplus.linalg import cholesky, quadratic_form
from caponplus.montecarlo import (
    DEFAULT_GEOMETRY,
    Regime,
    ScenarioConfig,
    SweepSpec,
    SweepVariable,
    build_context,
    run_scenario,
    scene_from_db,
    snr_to_scene,
)
from caponplus.presets import PRESETS
from caponplus.signalsim import (
    SnapshotBatch,
    StreamRole,
    TrialRngs,
    WaveformKind,
    synth_scene_snapshots,
)
from helpers import capon_weights, nll_profile, random_cvector, random_hpd, solve_hpd

THREADS = 2
FIG1_SNRS = (0.0, -2.0, -4.0, -6.0, -8.5)


def report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}  {detail}")
    return ok


def agg_by_method(point):
    return {a.method: a for a in point.aggregates}


@pytest.fixture(scope="module")
def fig1_report():
    config = ScenarioConfig(
        regime=Regime.ORACLE,
        geom=DEFAULT_GEOMETRY,
        base_scene=scene_from_db(0.0),
        waveform=WaveformKind.CIRCULAR_GAUSSIAN,
        snapshots=60,
        secondary_snapshots=0,
        trials=15000,
        master_seed=20250810,
        sweep=SweepSpec(SweepVariable.SNR_DB, FIG1_SNRS),
    )
    return run_scenario(config, threads=THREADS)


def test_criterion_01_capon_plus_flat_power_nmse(fig1_report):
    """Oracle Gaussian: Capon+ power NMSE equals 1/(T+1) at every SNR, +-5%."""
    target = 1.0 / 61.0
    details = []
    ok = True
    for point in fig1_report.points:
        got = agg_by_method(point)["CaponPlus"].mean_sp_nmse
        details.append(f"{point.sweep_value:+.1f}dB: {got:.6f}")
        ok &= abs(got - target) <= 0.05 * target
    assert report(1, "oracle Capon+ sp-NMSE = 1/61 +-5% at all SNR", ok,
                  f"target {target:.6f}; " + ", ".join(details))


def test_criterion_02_capon_plus_bias(fig1_report):
    """Oracle Gaussian: Capon+ relative bias is -1/(T+1) within 3 stderrs."""
    target = -1.0 / 61.0
    ok = True
    details = []
    for point in fig1_report.points:
        agg = agg_by_method(point)["CaponPlus"]
        dev = abs(agg.mean_rel_bias - target) / agg.stderr_rel_bias
        details.append(f"{point.sweep_value:+.1f}dB: {dev:.2f}se")
        ok &= dev <= 3.0
    assert report(2, "oracle Capon+ rel-bias = -1/61 within 3 stderrs", ok,
                  ", ".join(details))


def test_criterion_03_capon_and_mmse_bias(fig1_report):
    """Oracle Capon/MMSE biases match the closed forms, with the right signs."""
    ok = True
    details = []
    for point in fig1_report.points:
        scene = snr_to_scene(scene_from_db(0.0), point.sweep_value)
        model = build_cov_model(DEFAULT_GEOMETRY, scene)
        cap_target = capon_bias(model) / model.gamma
        mmse_target = model.gamma / capon_output_power(model) - 1.0
        aggs = agg_by_method(point)
        cap, mmse = aggs["Capon"], aggs["MMSE"]
        ok &= abs(cap.mean_rel_bias - cap_target) <= 3.0 * cap.stderr_rel_bias
        ok &= cap.mean_rel_bias > 3.0 * cap.stderr_rel_bias
        ok &= abs(mmse.mean_rel_bias - mmse_target) <= 3.0 * mmse.stderr_rel_bias
        ok &= mmse.mean_rel_bias < 0.0
        details.append(
            f"{point.sweep_value:+.1f}dB cap {cap.mean_rel_bias:+.4f}/{cap_target:+.4f}"
        )
    assert report(3, "oracle Capon/MMSE biases match closed forms, signed", ok,
                  ", ".join(details))


def test_oracle_se_nmse_is_mean_of_per_trial_ratio(fig1_report):
    """Oracle Gaussian SE-NMSE: the MC column is the mean of a per-trial ratio.

    For a circular Gaussian SOI, ``E[sum|w^H x - s|^2 / sum|s|^2]`` is
    ``|w^H a - 1|^2 + T/(T-1) w^H Q w / gamma``, not the theory row's
    ratio of expectations.  Checked within 5 stderr for every method.
    """
    config = fig1_report.config
    t = config.snapshots
    worst = 0.0
    for point in fig1_report.points:
        ctx = build_context(config, point.sweep_value)
        model = ctx.model
        aggs = agg_by_method(point)
        for method, w in (("CB", ctx.w_cb), ("Capon", ctx.w_cap),
                          ("MMSE", ctx.w_mmse), ("CaponPlus", ctx.w_cap_plus)):
            expected = abs(np.vdot(w, model.a) - 1.0) ** 2 + (
                t / (t - 1) * quadratic_form(model.incm, w) / model.gamma
            )
            agg = aggs[method]
            worst = max(worst, abs(agg.mean_se_nmse - expected) / agg.stderr_se_nmse)
    assert worst <= 5.0, f"worst |z| {worst:.2f}"


def test_criterion_04_waveform_mse_dual_forms():
    """Both algebraic forms of the waveform MSE agree to 1e-9 relative."""
    rng = np.random.default_rng(4444)
    worst = 0.0
    unit_gain_worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        q = random_hpd(rng, m, jitter=float(10.0 ** rng.uniform(-1, 1)))
        a = random_cvector(rng, m)
        gamma = float(10.0 ** rng.uniform(-2, 2))
        model = cov_model_from_parts(a, gamma, q)
        w = random_cvector(rng, m) * float(10.0 ** rng.uniform(-2, 2))
        full_form = quadratic_form(model.full, w) + gamma * (
            1.0 - 2.0 * np.vdot(w, a).real
        )
        incm_form = quadratic_form(model.incm, w) + gamma * abs(np.vdot(w, a) - 1.0) ** 2
        scale = max(abs(full_form), abs(incm_form), 1e-30)
        worst = max(worst, abs(full_form - incm_form) / scale)
        w_unit = w / np.conj(np.vdot(w, a))
        mse = quadratic_form(model.full, w_unit) + gamma * (
            1.0 - 2.0 * np.vdot(w_unit, a).real
        )
        wqw = quadratic_form(model.incm, w_unit)
        unit_gain_worst = max(unit_gain_worst, abs(mse - wqw) / abs(wqw))
    ok = worst <= 1e-9 and unit_gain_worst <= 1e-9
    assert report(4, "waveform-MSE dual forms agree to 1e-9 on 1000 instances", ok,
                  f"worst {worst:.2e}, unit-gain worst {unit_gain_worst:.2e}")


def _power_estimate_variance_check(kind: WaveformKind, seed: int, trials: int = 20000):
    scene = scene_from_db(-4.0)
    geom = DEFAULT_GEOMETRY
    model = build_cov_model(geom, scene)
    w = capon_weights(model.full, model.a)
    t = 60
    gamma_cap = capon_output_power(model)
    _, fourth = output_moments_theory(geom, scene, kind, w)
    target = (fourth - gamma_cap**2) / t
    values = np.empty(trials)
    for i in range(trials):
        batch = synth_scene_snapshots(geom, scene, kind, t, TrialRngs(seed, i))
        out = batch.snapshots @ w.conj()
        values[i] = np.vdot(out, out).real / t
    var = float(np.var(values, ddof=1))
    centered = values - values.mean()
    stderr = math.sqrt(
        max(float(np.mean(centered**4)) - var**2, 0.0) / trials
    )
    return var, target, stderr


def test_criterion_05_power_variance_and_scm_covariance():
    """Lemma-level variance identity plus the vec(SCM) covariance law."""
    ok = True
    details = []
    # (a) variance of the Capon power estimate for Gaussian and PSK sources
    for kind, seed in ((WaveformKind.CIRCULAR_GAUSSIAN, 555), (WaveformKind.PSK8, 556)):
        var, target, stderr = _power_estimate_variance_check(kind, seed)
        dev = abs(var - target) / stderr
        ok &= dev <= 3.0
        details.append(f"{kind.value}: var {var:.5f} vs {target:.5f} ({dev:.2f}se)")

    # (b) M=2, T=8 Gaussian: cov(vec(SCM)) = (S* kron S)/T entrywise
    geom2 = dataclasses.replace(DEFAULT_GEOMETRY, antennas=2)
    scene2 = scene_from_db(0.0)
    scene2 = dataclasses.replace(scene2, interferers=scene2.interferers[:1])
    model2 = build_cov_model(geom2, scene2)
    s_mat = model2.full
    lower = cholesky(s_mat)
    t, n = 8, 120000
    rng = np.random.default_rng(557)
    vecs = np.empty((n, 4), dtype=complex)
    chunk = 30000
    for start in range(0, n, chunk):
        size = min(chunk, n - start)
        z = (rng.standard_normal((size, t, 2)) + 1j * rng.standard_normal((size, t, 2)))
        z /= np.sqrt(2.0)
        x = z @ lower.T
        scms = np.einsum("nta,ntb->nab", x, x.conj()) / t
        vecs[start : start + size] = scms.swapaxes(1, 2).reshape(size, 4)
    centered = vecs - vecs.mean(axis=0)
    prods = centered[:, :, None] * centered.conj()[:, None, :]
    cov_emp = prods.mean(axis=0)
    cov_target = np.kron(s_mat.conj(), s_mat) / t
    entry_se = np.sqrt(
        (np.mean(np.abs(prods) ** 2, axis=0) - np.abs(cov_emp) ** 2) / n
    )
    dev = np.abs(cov_emp - cov_target) / entry_se
    ok &= bool(np.all(dev <= 3.0))
    details.append(f"vec(SCM) worst entry dev {dev.max():.2f}se over {n} trials")
    assert report(5, "power-estimate variance law and vec(SCM) covariance", ok,
                  "; ".join(details))


def test_criterion_06_mle_equivalence():
    """Debiased power equals the NLL grid minimizer within one grid step."""
    rng = np.random.default_rng(6666)
    failures = 0
    clamped = 0
    for k in range(200):
        m = int(rng.integers(2, 7))
        q = random_hpd(rng, m)
        a = random_cvector(rng, m)
        # mix in near-zero SOI power so the max(., 0) clamp is exercised
        gamma = 0.0 if k % 4 == 0 else float(10.0 ** rng.uniform(-1.5, 1.0))
        t = int(rng.integers(m + 2, 64))
        model = cov_model_from_parts(a, gamma, q)
        lower = cholesky(model.full)
        gen = TrialRngs(7000 + k, 0).stream(StreamRole.NOISE)
        z = (gen.standard_normal((t, m)) + 1j * gen.standard_normal((t, m))) / np.sqrt(2)
        x = z @ lower.T
        sample_cov = scm(
            SnapshotBatch(snapshots=x, truth=np.zeros(t, dtype=complex))
        )
        qinv_a = solve_hpd(q, a)
        quad = float(np.vdot(a, qinv_a).real)
        w_cap = qinv_a / quad
        gamma_cap_hat = quadratic_form(sample_cov.matrix, w_cap)
        deb = debiased_power(gamma_cap_hat, quad)
        if deb == 0.0:
            clamped += 1
        profile = nll_profile(q, sample_cov, a)
        grid = np.concatenate(
            [[0.0], np.geomspace(gamma_cap_hat * 1e-6, 10.0 * gamma_cap_hat, 9999)]
        )
        j = int(np.argmin(profile(grid)))
        lo, hi = grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)]
        if not (lo <= deb <= hi):
            failures += 1
    ok = failures == 0 and clamped > 0
    assert report(6, "MLE grid minimizer equals debiased power (200 instances)", ok,
                  f"failures {failures}, clamp exercised {clamped}x")


@pytest.fixture(scope="module")
def fig5_report():
    base = build_run_config(PRESETS["fig5"]).scenario
    config = dataclasses.replace(
        base,
        trials=10000,
        master_seed=31415,
        sweep=SweepSpec(SweepVariable.T0, (30.0, 120.0)),
    )
    return run_scenario(config, threads=THREADS)


def test_criterion_07_scenario_c_regression(fig5_report):
    """Scenario C at -5 dB SNR reproduces the tabulated T0 = 30/120 values."""
    targets = {
        30.0: {"Capon": 0.6461, "CaponPlus": -0.00983},
        120.0: {"Capon": 0.1600, "MMSE": -0.1341, "CaponPlus": -0.00420},
    }
    sp_targets = {30.0: 1.0348e-4, 120.0: 1.835e-5}
    ok = True
    details = []
    for point in fig5_report.points:
        aggs = agg_by_method(point)
        for method, target in targets[point.sweep_value].items():
            agg = aggs[method]
            tol = max(0.10 * abs(target), 3.0 * agg.stderr_rel_bias)
            ok &= abs(agg.mean_rel_bias - target) <= tol
            details.append(
                f"T0={point.sweep_value:.0f} {method} {agg.mean_rel_bias:+.5f}/{target:+.5f}"
            )
        sp = aggs["CaponPlus"].mean_sp_nmse
        ok &= abs(sp - sp_targets[point.sweep_value]) <= 0.15 * sp_targets[point.sweep_value]
        details.append(f"T0={point.sweep_value:.0f} sp {sp:.3e}/{sp_targets[point.sweep_value]:.3e}")
    assert report(7, "scenario C reproduces the reference T0 sweep", ok,
                  "; ".join(details))


def test_criterion_08_scenario_b_sign_reversal():
    """Scenario B small samples: adaptive Capon under-, adaptive MMSE over-estimates."""
    config = ScenarioConfig(
        regime=Regime.B,
        geom=DEFAULT_GEOMETRY,
        base_scene=scene_from_db(0.0),
        waveform=WaveformKind.PSK8,
        snapshots=100,
        secondary_snapshots=0,
        trials=3000,
        master_seed=8888,
        sweep=SweepSpec(SweepVariable.SNR_DB, (5.0,)),
    )
    aggs = agg_by_method(run_scenario(config, threads=THREADS).points[0])
    cap, mmse = aggs["Capon"], aggs["MMSE"]
    ok = cap.mean_rel_bias < -3.0 * cap.stderr_rel_bias
    ok &= mmse.mean_rel_bias > 3.0 * mmse.stderr_rel_bias
    assert report(8, "scenario B bias sign reversal at T=100, +5 dB", ok,
                  f"Capon {cap.mean_rel_bias:+.4f}, MMSE {mmse.mean_rel_bias:+.4f}")


def _wishart_ratio(m: int, t0: int, trials: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    q = random_hpd(rng, m)
    a = random_cvector(rng, m)
    lower = cholesky(q)
    quad_true = float(np.vdot(a, solve_hpd(q, a)).real)
    total = 0.0
    chunk = max(1, min(trials, 4 * 10**6 // (t0 * m)))
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        z = (rng.standard_normal((n, t0, m)) + 1j * rng.standard_normal((n, t0, m)))
        z /= np.sqrt(2.0)
        x = z @ lower.T
        qhat = np.einsum("nta,ntb->nab", x, x.conj()) / t0
        sols = np.linalg.solve(qhat, np.broadcast_to(a, (n, m))[..., None])[..., 0]
        total += float(np.sum((sols @ a.conj()).real))
        done += n
    return total / trials / quad_true


def test_criterion_09_inverse_wishart_scaling():
    """E[a^H Qhat^{-1} a] / (a^H Q^{-1} a) = T0/(T0 - M) within 2%."""
    ok = True
    details = []
    for m, t0, trials, seed in ((4, 16, 10**5, 91), (25, 50, 10**4, 92)):
        ratio = _wishart_ratio(m, t0, trials, seed)
        target = t0 / (t0 - m)
        ok &= abs(ratio - target) <= 0.02 * target
        details.append(f"(M={m}, T0={t0}): {ratio:.4f} vs {target:.4f}")
    assert report(9, "inverse-Wishart scaling of the estimated INCM", ok,
                  "; ".join(details))


def test_criterion_10_byte_identical_across_threads(tmp_path):
    """Same preset, same seed, different --threads: byte-identical results."""
    ok = True
    details = []
    overrides = {
        "fig1": {"trials": 150, "sweep": {"variable": "snr_db", "values": [0.0, -4.0]}},
        "fig3": {"trials": 150, "sweep": {"variable": "snr_db", "values": [0.0, -6.0]}},
        "fig4c": {"trials": 150, "sweep": {"variable": "snr_db", "values": [5.0, -5.0]}},
        "fig5": {"trials": 150, "sweep": {"variable": "t0", "values": [30.0, 60.0, 120.0]}},
        "fig6": {"trials": 150, "sweep": {"variable": "t0", "values": [30.0, 60.0, 120.0]}},
    }
    for preset, override in overrides.items():
        cfg_path = tmp_path / f"{preset}_override.json"
        cfg_path.write_text(json.dumps(override))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{preset}_t{threads}.csv"
            code = main(
                ["run", str(cfg_path), "--preset", preset, "--seed", "12345",
                 "--out", str(out), "--threads", threads]
            )
            ok &= code == 0
            outputs.append(out.read_bytes())
        same = outputs[0] == outputs[1]
        ok &= same
        details.append(f"{preset}: {'identical' if same else 'DIFFER'}")
    assert report(10, "results byte-identical for --threads 1 vs 2", ok,
                  "; ".join(details))
