import dataclasses

import numpy as np
import pytest

from caponplus.arraymodel import (
    ArrayGeometry,
    SourceScene,
    SourceSpec,
    alpha_from_kurtosis,
    build_cov_model,
    build_incm,
    capon_bias,
    capon_output_power,
    cov_model_from_parts,
    steering_vector,
    theory_report,
    waveform_mse_theory,
)
from caponplus.errors import DomainError
from caponplus.linalg import quadratic_form
from caponplus.montecarlo import scene_from_db
from helpers import (
    bias_theory,
    power_variance_gaussian,
    random_cvector,
    random_model,
    single_interferer_bias,
    solve_hpd,
)


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        a = steering_vector(ArrayGeometry(4, 0.5), 0.0)
        assert np.allclose(a, np.ones(4))

    def test_30deg_half_wavelength(self):
        # sin(30 deg) = 1/2, phase step = pi/2  =>  second element = -j
        a = steering_vector(ArrayGeometry(2, 0.5), 30.0)
        assert np.allclose(a, [1.0, -1.0j], atol=1e-15)

    def test_norm_squared_is_m(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            m = int(rng.integers(2, 64))
            geom = ArrayGeometry(m, float(rng.uniform(0.1, 2.0)))
            a = steering_vector(geom, float(rng.uniform(-90.0, 90.0 - 1e-9)))
            assert np.vdot(a, a).real == pytest.approx(m)
            assert np.allclose(np.abs(a), 1.0)

    def test_rejects_out_of_range_doa(self):
        geom = ArrayGeometry(4, 0.5)
        for bad in (90.0, -90.01, 123.0):
            with pytest.raises(DomainError):
                steering_vector(geom, bad)

    def test_read_only_array(self):
        a = steering_vector(ArrayGeometry(7, 0.5), 30)
        with pytest.raises(ValueError):
            a[0] = 0.0


class TestArrayGeometry:
    @pytest.mark.parametrize("antennas", [25.0, 2.5, "25", None])
    def test_non_integer_antennas_rejected(self, antennas):
        with pytest.raises(DomainError, match="antennas must be an integer"):
            ArrayGeometry(antennas)

    def test_numpy_integer_accepted(self):
        assert ArrayGeometry(np.int64(25)).antennas == 25


class TestSourceScene:
    def test_hash_matches_across_equal_scenes_and_equality_compares_fields(self):
        scene = SourceScene(SourceSpec(0.0, 1.0), (SourceSpec(30.0, 0.5),), 1.0)
        same = SourceScene(SourceSpec(0.0, 1.0), [SourceSpec(30.0, 0.5)], 1.0)
        assert scene is not same and scene == same
        assert hash(scene) == hash(same) and len({scene, same}) == 1
        assert scene != dataclasses.replace(scene, noise_var=2.0)
        assert scene != dataclasses.replace(scene, soi=SourceSpec(0.0, 2.0))
        assert [f.name for f in dataclasses.fields(scene)] == ["soi", "interferers", "noise_var"]


class TestCovarianceConstruction:
    def test_incm_no_interferers_is_noise_identity(self):
        geom = ArrayGeometry(3, 0.5)
        scene = SourceScene(soi=SourceSpec(0.0, 1.0), interferers=(), noise_var=1.0)
        assert np.array_equal(build_incm(geom, scene), np.eye(3, dtype=complex))

    def test_incm_single_broadside_interferer(self):
        geom = ArrayGeometry(2, 0.5)
        scene = SourceScene(
            soi=SourceSpec(10.0, 1.0),
            interferers=(SourceSpec(0.0, 2.0),),
            noise_var=1.0,
        )
        assert np.allclose(build_incm(geom, scene), [[3.0, 2.0], [2.0, 3.0]])

    def test_incm_exactly_hermitian(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            geom, scene, _model = random_model(rng, antennas=5, n_interferers=3)
            q = build_incm(geom, scene)
            assert np.array_equal(q, q.conj().T)

    def test_model_gamma_zero_full_equals_incm(self):
        a = steering_vector(ArrayGeometry(4, 0.5), 12.0)
        model = cov_model_from_parts(a, 0.0, np.eye(4, dtype=complex))
        assert np.array_equal(model.full, model.incm)

    def test_model_2x2_broadside(self):
        a = steering_vector(ArrayGeometry(2, 0.5), 0.0)
        model = cov_model_from_parts(a, 1.0, np.eye(2, dtype=complex))
        assert np.allclose(model.full, [[2.0, 1.0], [1.0, 2.0]])

    def test_rank_one_difference(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            _geom, scene, model = random_model(rng)
            diff = model.full - model.incm
            ref = scene.soi.power * np.outer(model.a, model.a.conj())
            assert np.linalg.norm(diff - ref) <= 1e-10 * np.linalg.norm(ref)
            assert np.linalg.matrix_rank(diff, tol=1e-8 * np.linalg.norm(diff)) == 1

    def test_distinct_doas_enforced(self):
        with pytest.raises(DomainError):
            SourceScene(
                soi=SourceSpec(5.0, 1.0),
                interferers=(SourceSpec(5.0, 1.0),),
                noise_var=1.0,
            )


class TestCaponPower:
    def test_white_noise_closed_form(self):
        geom = ArrayGeometry(25, 0.5)
        a = steering_vector(geom, -45.02)
        model = cov_model_from_parts(a, 1.0, np.eye(25, dtype=complex))
        assert capon_output_power(model) == pytest.approx(1.04, rel=1e-12)
        assert capon_bias(model) == pytest.approx(0.04, rel=1e-12)

    def test_gamma_zero_identity_incm(self):
        a = steering_vector(ArrayGeometry(4, 0.5), 20.0)
        model = cov_model_from_parts(a, 0.0, np.eye(4, dtype=complex))
        assert capon_output_power(model) == pytest.approx(0.25, rel=1e-12)

    def test_two_solve_paths_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            _geom, _scene, model = random_model(rng)
            direct = capon_output_power(model)
            via_incm = model.gamma + capon_bias(model)
            assert direct == pytest.approx(via_incm, rel=1e-9)

    def test_bias_decreases_with_antennas(self):
        biases = []
        for m in (4, 8, 16, 32, 64, 128, 256):
            a = steering_vector(ArrayGeometry(m, 0.5), 17.0)
            model = cov_model_from_parts(a, 1.0, np.eye(m, dtype=complex))
            biases.append(capon_bias(model))
        assert all(b1 > b2 for b1, b2 in zip(biases, biases[1:]))


class TestSingleInterfererBias:
    """Resolves the closed-form cross term numerically against the exact path."""

    def test_matches_direct_inverse(self):
        rng = np.random.default_rng(4)
        geom = ArrayGeometry(12, 0.5)
        for _ in range(100):
            soi_doa = float(rng.uniform(-89, 89))
            int_doa = float(rng.uniform(-89, 89))
            if abs(soi_doa - int_doa) < 0.5:
                continue
            inr = float(10.0 ** rng.uniform(-2, 3))
            noise_var = float(10.0 ** rng.uniform(-1, 1))
            closed = single_interferer_bias(geom, soi_doa, int_doa, inr, noise_var)
            scene = SourceScene(
                soi=SourceSpec(soi_doa, 1.0),
                interferers=(SourceSpec(int_doa, inr * noise_var),),
                noise_var=noise_var,
            )
            model = build_cov_model(geom, scene)
            assert closed == pytest.approx(capon_bias(model), rel=1e-10)

    def test_aligned_interferer_limit(self):
        # a_I = a: bias = sigma^2 (1 + M INR) / M
        geom = ArrayGeometry(8, 0.5)
        got = single_interferer_bias(geom, 10.0, 10.0, 2.0, 1.0)
        assert got == pytest.approx((1.0 + 8 * 2.0) / 8.0, rel=1e-12)

    def test_weak_interferer_limit_is_white_noise(self):
        geom = ArrayGeometry(16, 0.5)
        got = single_interferer_bias(geom, -20.0, 35.0, 0.0, 2.0)
        assert got == pytest.approx(2.0 / 16.0, rel=1e-12)


class TestTheoryReport:
    def test_frozen_alpha_and_msemin(self):
        a = steering_vector(ArrayGeometry(25, 0.5), -45.02)
        model = cov_model_from_parts(a, 1.0, np.eye(25, dtype=complex))
        rep = theory_report(model, 60)
        # direct evaluation of the Gaussian optimum: (1/1.04) * 60/61
        assert rep.alpha_o == pytest.approx(0.945776, abs=5e-7)
        assert rep.alpha_o == pytest.approx(60.0 / (61.0 * 1.04), rel=1e-12)
        assert rep.mse_min == pytest.approx(1.0 / 61.0, rel=1e-12)
        assert rep.tau == pytest.approx(60.0 / 61.0, rel=1e-15)

    def test_sign_and_ordering_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            _geom, _scene, model = random_model(rng)
            rep = theory_report(model, int(rng.integers(1, 200)))
            assert rep.capon_bias > 0.0
            assert rep.mmse_bias < 0.0
            assert rep.mmse_waveform_mse < rep.capon_bias
            assert rep.alpha_o > 0.0
            assert rep.gamma_mmse == pytest.approx(model.gamma**2 / rep.gamma_cap)

    def test_mse_min_variance_form(self):
        # gamma^2 var / (var + gamma_cap^2) with the Gaussian variance
        rng = np.random.default_rng(6)
        for _ in range(20):
            _geom, _scene, model = random_model(rng)
            t = int(rng.integers(2, 300))
            rep = theory_report(model, t)
            from helpers import capon_weights

            w = capon_weights(model.full, model.a)
            var = power_variance_gaussian(model, w, t)
            ref = model.gamma**2 * var / (var + rep.gamma_cap**2)
            assert rep.mse_min == pytest.approx(ref, rel=1e-9)

    def test_rejects_bad_snapshot_count(self):
        rng = np.random.default_rng(7)
        _geom, _scene, model = random_model(rng)
        with pytest.raises(DomainError):
            theory_report(model, 0)


class TestAlphaFromKurtosis:
    def test_gaussian_matches_theory(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            _geom, _scene, model = random_model(rng)
            t = int(rng.integers(1, 100))
            rep = theory_report(model, t)
            alpha, tau = alpha_from_kurtosis(model.gamma, rep.gamma_cap, t, 0.0)
            assert alpha == pytest.approx(rep.alpha_o, rel=1e-12)
            assert tau == pytest.approx(rep.tau, rel=1e-12)

    def test_constant_modulus_unbiased(self):
        alpha, tau = alpha_from_kurtosis(0.7, 1.3, 17, -1.0)
        assert tau == 1.0
        assert alpha * 1.3 == pytest.approx(0.7)

    def test_tau_increases_to_one_with_t(self):
        taus = [alpha_from_kurtosis(1.0, 2.0, t, 0.8)[1] for t in (1, 2, 5, 20, 100, 10000)]
        assert all(t1 < t2 for t1, t2 in zip(taus, taus[1:]))
        assert taus[-1] == pytest.approx(1.0, abs=1e-3)

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            alpha_from_kurtosis(1.0, 1.0, 1, -2.5)
        with pytest.raises(DomainError):
            alpha_from_kurtosis(1.0, 1.0, 1, -2.0)  # kurt + T + 1 == 0
        with pytest.raises(DomainError):
            alpha_from_kurtosis(1.0, 0.0, 10, 0.0)


class TestWaveformMseAndBias:
    def test_zero_weight_gives_gamma(self):
        rng = np.random.default_rng(9)
        _geom, _scene, model = random_model(rng)
        w = np.zeros_like(model.a)
        assert waveform_mse_theory(model, w) == pytest.approx(model.gamma)
        assert bias_theory(model, w) == pytest.approx(-model.gamma)

    def test_unit_gain_equals_bias_equals_wqw(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            _geom, _scene, model = random_model(rng)
            w = random_cvector(rng, model.a.size)
            w = w / np.conj(np.vdot(w, model.a))  # force w^H a = 1
            mse = waveform_mse_theory(model, w)
            bias = bias_theory(model, w)
            wqw = quadratic_form(model.incm, w)
            assert mse == pytest.approx(bias, rel=1e-9)
            assert mse == pytest.approx(wqw, rel=1e-9)

    def test_dual_forms_agree_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            _geom, _scene, model = random_model(rng, antennas=int(rng.integers(2, 8)))
            w = random_cvector(rng, model.a.size) * float(10.0 ** rng.uniform(-2, 2))
            full_form = quadratic_form(model.full, w) + model.gamma * (
                1.0 - 2.0 * np.vdot(w, model.a).real
            )
            incm_form = quadratic_form(model.incm, w) + model.gamma * abs(
                np.vdot(w, model.a) - 1.0
            ) ** 2
            assert full_form == pytest.approx(incm_form, rel=1e-9, abs=1e-12)
            # the library op itself cross-checks and returns the INCM form
            assert waveform_mse_theory(model, w) == pytest.approx(incm_form, rel=1e-12)

    def test_dual_form_guard_scales_with_gamma(self):
        # At 120 dB the full-covariance form cancels terms of size gamma =
        # 1e12; its rounding is judged against those terms, not the result.
        geom = ArrayGeometry(25)
        for snr_db in (60.0, 90.0, 120.0):
            model = build_cov_model(geom, scene_from_db(snr_db))
            for w in (model.sinv_a / model.ah_sinv_a, model.gamma * model.sinv_a):
                wa = np.vdot(w, model.a)
                incm_form = quadratic_form(model.incm, w) + model.gamma * abs(wa - 1.0) ** 2
                assert waveform_mse_theory(model, w) == incm_form

    def test_corrupted_full_covariance_still_raises(self):
        model = build_cov_model(ArrayGeometry(25), scene_from_db(0.0))
        corrupted = dataclasses.replace(
            model, full=model.full + 1e-6 * np.eye(model.a.size)
        )
        w = model.sinv_a / model.ah_sinv_a
        waveform_mse_theory(model, w)
        with pytest.raises(DomainError, match="dual forms disagree"):
            waveform_mse_theory(corrupted, w)

    def test_cb_bias_closed_form(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            _geom, _scene, model = random_model(rng)
            a = model.a
            w_cb = a / np.vdot(a, a).real
            ref = quadratic_form(model.incm, a) / np.vdot(a, a).real ** 2
            assert bias_theory(model, w_cb) == pytest.approx(ref, rel=1e-12)

    def test_capon_bias_via_generic_formula(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            _geom, _scene, model = random_model(rng)
            w_cap = solve_hpd(model.incm, model.a)
            w_cap = w_cap / np.vdot(model.a, w_cap).real
            assert bias_theory(model, w_cap) == pytest.approx(
                capon_bias(model), rel=1e-9
            )


class TestPowerVarianceGaussian:
    def test_capon_weight_value(self):
        a = steering_vector(ArrayGeometry(25, 0.5), -45.02)
        model = cov_model_from_parts(a, 1.0, np.eye(25, dtype=complex))
        w = solve_hpd(model.full, a)
        w = w / np.vdot(a, w).real
        assert power_variance_gaussian(model, w, 60) == pytest.approx(
            1.04**2 / 60.0, rel=1e-10
        )

    def test_zero_weight(self):
        rng = np.random.default_rng(14)
        _geom, _scene, model = random_model(rng)
        assert power_variance_gaussian(model, np.zeros_like(model.a), 10) == 0.0

    def test_doubling_t_halves_variance(self):
        rng = np.random.default_rng(15)
        _geom, _scene, model = random_model(rng)
        w = random_cvector(rng, model.a.size)
        assert power_variance_gaussian(model, w, 20) == pytest.approx(
            power_variance_gaussian(model, w, 10) / 2.0
        )
