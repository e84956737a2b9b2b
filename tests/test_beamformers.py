import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caponplus.arraymodel import (
    ArrayGeometry,
    SourceScene,
    SourceSpec,
    build_cov_model,
    capon_output_power,
    steering_vector,
)
from caponplus.beamformers import (
    adaptive_capon_weights,
    apply_weights,
    capon_plus_weights,
    capon_weights,
    cb_weights,
    mmse_weights,
)
from caponplus.errors import DimensionMismatch, DomainError, NotPositiveDefinite
from caponplus.linalg import quadratic_form, solve_hpd
from caponplus.signalsim import SnapshotBatch, TrialRngs, WaveformKind, synth_snapshots
from helpers import random_model


def make_batch(x):
    x = np.asarray(x, dtype=complex)
    return SnapshotBatch(
        snapshots=x, truth=np.zeros(x.shape[0], dtype=complex), contains_soi=True
    )


class TestCbWeights:
    def test_broadside(self):
        w = cb_weights(steering_vector(ArrayGeometry(4, 0.5), 0.0))
        assert np.allclose(w, 0.25 * np.ones(4))

    def test_unit_gain_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            _geom, scene, model = random_model(rng)
            w = cb_weights(model.a)
            assert abs(np.vdot(w, model.a) - 1.0) <= 1e-12


def _log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


_signed_offset = st.tuples(st.floats(0.05, 10.0), st.sampled_from((-1.0, 1.0))).map(
    lambda t: t[0] * t[1]
)


@st.composite
def hard_models(draw):
    """Covariance models with M = 2..64, powers 1e-6..1e9 over noise
    1e-3..1e3, and 1 to 3 interferers 0.05 to 10 deg from the SOI."""
    soi_doa = draw(st.floats(-60.0, 60.0))
    offsets = draw(st.lists(_signed_offset, min_size=1, max_size=3, unique=True))
    power = _log_uniform(-6.0, 9.0)
    scene = SourceScene(
        soi=SourceSpec(soi_doa, draw(power)),
        interferers=tuple(SourceSpec(soi_doa + off, draw(power)) for off in offsets),
        noise_var=draw(_log_uniform(-3.0, 3.0)),
    )
    return build_cov_model(ArrayGeometry(draw(st.integers(2, 64)), 0.5), scene)


class TestUnitGainProperty:
    """``|w^H a - 1| <= 1e-9`` for every unit-gain weight over hard scenes."""

    @settings(derandomize=True, database=None, deadline=None)
    @given(hard_models())
    def test_unit_gain_over_hard_scenes(self, model):
        a = model.a
        weights = (
            cb_weights(a),
            capon_weights(model.full, a),
            capon_weights(model.incm, a),
            adaptive_capon_weights(model.full, a)[0],
        )
        for w in weights:
            assert abs(np.vdot(w, a) - 1.0) <= 1e-9


class TestCaponWeights:
    def test_identity_covariance(self):
        a = steering_vector(ArrayGeometry(5, 0.5), 25.0)
        w = capon_weights(np.eye(5, dtype=complex), a)
        assert np.allclose(w, a / 5.0)

    def test_full_and_incm_forms_identical(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            _geom, _scene, model = random_model(rng)
            w_full = capon_weights(model.full, model.a)
            w_incm = capon_weights(model.incm, model.a)
            assert np.linalg.norm(w_full - w_incm) <= 1e-9 * np.linalg.norm(w_incm)

    def test_output_power_is_gamma_cap(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            _geom, _scene, model = random_model(rng)
            w = capon_weights(model.full, model.a)
            assert quadratic_form(model.full, w) == pytest.approx(
                capon_output_power(model), rel=1e-9
            )

    def test_unit_gain_law(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            _geom, _scene, model = random_model(rng)
            w = capon_weights(model.full, model.a)
            assert abs(np.vdot(w, model.a) - 1.0) <= 1e-9


class TestMmseWeights:
    def test_gamma_zero_is_zero(self):
        rng = np.random.default_rng(5)
        _geom, _scene, model = random_model(rng)
        w = mmse_weights(0.0, model.full, model.a)
        assert np.all(w == 0.0)

    def test_dual_forms_agree(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            _geom, scene, model = random_model(rng)
            w_full = mmse_weights(model.gamma, model.full, model.a)
            # Q-form: gamma Q^{-1} a / (1 + gamma a^H Q^{-1} a)
            qinv_a = solve_hpd(model.incm, model.a)
            w_incm = model.gamma * qinv_a / (1.0 + model.gamma * np.vdot(model.a, qinv_a).real)
            assert np.linalg.norm(w_full - w_incm) <= 1e-9 * np.linalg.norm(w_full)

    def test_scale_law_vs_capon(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            _geom, _scene, model = random_model(rng)
            w_m = mmse_weights(model.gamma, model.full, model.a)
            w_c = capon_weights(model.full, model.a)
            scale = model.gamma / capon_output_power(model)
            assert np.linalg.norm(w_m - scale * w_c) <= 1e-9 * np.linalg.norm(w_m)


class TestCaponPlusWeights:
    def test_alpha_one_is_capon(self):
        rng = np.random.default_rng(8)
        _geom, _scene, model = random_model(rng)
        w_c = capon_weights(model.full, model.a)
        w_p = capon_plus_weights(w_c, 1.0)
        assert np.array_equal(w_p, w_c)

    def test_mmse_alpha_recovers_mmse(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            _geom, _scene, model = random_model(rng)
            w_c = capon_weights(model.full, model.a)
            alpha = (model.gamma / capon_output_power(model)) ** 2
            w_p = capon_plus_weights(w_c, alpha)
            w_m = mmse_weights(model.gamma, model.full, model.a)
            assert np.linalg.norm(w_p - w_m) <= 1e-9 * np.linalg.norm(w_m)

    def test_output_power_scales_by_alpha(self):
        rng = np.random.default_rng(10)
        _geom, _scene, model = random_model(rng)
        w_c = capon_weights(model.full, model.a)
        alpha = 0.37
        w_p = capon_plus_weights(w_c, alpha)
        assert quadratic_form(model.full, w_p) == pytest.approx(
            alpha * capon_output_power(model), rel=1e-10
        )

    def test_shrinkage_factor_beta(self):
        rng = np.random.default_rng(11)
        _geom, _scene, model = random_model(rng)
        w_c = capon_weights(model.full, model.a)
        w_p = capon_plus_weights(w_c, 0.49)
        assert np.linalg.norm(w_p - 0.7 * w_c) <= 1e-12 * np.linalg.norm(w_c)
        with pytest.raises(DomainError):
            capon_plus_weights(w_c, -0.1)


class TestAdaptiveCaponWeights:
    def test_exact_covariance_recovers_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            _geom, _scene, model = random_model(rng)
            w_hat, gamma_hat = adaptive_capon_weights(model.full, model.a)
            w_ref = capon_weights(model.full, model.a)
            assert np.allclose(w_hat, w_ref, rtol=1e-10)
            assert gamma_hat == pytest.approx(capon_output_power(model), rel=1e-10)

    def test_unit_gain(self):
        rng = np.random.default_rng(13)
        geom, scene, model = random_model(rng, antennas=4)
        batch = synth_snapshots(model, WaveformKind.CIRCULAR_GAUSSIAN, 64, TrialRngs(0, 0))
        x = batch.snapshots
        w_hat, _ = adaptive_capon_weights(x.T @ x.conj() / x.shape[0], model.a)
        assert abs(np.vdot(w_hat, model.a) - 1.0) <= 1e-9

    def test_consistency_large_t(self):
        rng = np.random.default_rng(14)
        geom, scene, model = random_model(rng, antennas=4)
        batch = synth_snapshots(model, WaveformKind.CIRCULAR_GAUSSIAN, 10**6, TrialRngs(1, 0))
        x = batch.snapshots
        w_hat, gamma_hat = adaptive_capon_weights(x.T @ x.conj() / x.shape[0], model.a)
        w_ref = capon_weights(model.full, model.a)
        assert np.linalg.norm(w_hat - w_ref) <= 0.01 * np.linalg.norm(w_ref)
        assert gamma_hat == pytest.approx(capon_output_power(model), rel=0.01)

    def test_singular_scm_raises(self):
        rng = np.random.default_rng(15)
        _geom, _scene, model = random_model(rng, antennas=5)
        x = (rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))  # T < M
        with pytest.raises(NotPositiveDefinite):
            adaptive_capon_weights(x.T @ x.conj() / 3.0, model.a)


class TestApplyWeights:
    def test_zero_weights(self):
        rng = np.random.default_rng(16)
        _geom, _scene, model = random_model(rng)
        w = mmse_weights(0.0, model.full, model.a)
        batch = make_batch(rng.standard_normal((7, model.a.size)))
        assert np.all(apply_weights(w, batch) == 0.0)

    def test_noiseless_unit_gain_recovers_waveform(self):
        geom = ArrayGeometry(6, 0.5)
        a = steering_vector(geom, -33.0)
        rng = np.random.default_rng(17)
        s = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        batch = SnapshotBatch(
            snapshots=s[:, None] * a[None, :], truth=s, contains_soi=True
        )
        out = apply_weights(cb_weights(a), batch)
        assert np.allclose(out, s, rtol=1e-12)

    def test_hand_computed_inner_product(self):
        w = cb_weights(np.array([1.0, 1.0j]))
        #  w = a / ||a||^2 = (0.5, 0.5j);  w^H x = 0.5*(2+1j) - 0.5j*(3-1j)
        batch = make_batch([[2.0 + 1.0j, 3.0 - 1.0j]])
        expected = 0.5 * (2.0 + 1.0j) - 0.5j * (3.0 - 1.0j)
        assert apply_weights(w, batch)[0] == pytest.approx(expected)

    def test_dimension_mismatch(self):
        w = cb_weights(np.ones(3, dtype=complex))
        with pytest.raises(DimensionMismatch):
            apply_weights(w, make_batch(np.ones((4, 2))))
