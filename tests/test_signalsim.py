import numpy as np
import pytest

from caponplus.arraymodel import (
    ArrayGeometry,
    SourceScene,
    SourceSpec,
    build_cov_model,
    build_incm,
    steering_vector,
)
from caponplus.errors import DomainError
from caponplus.estimation import kurtosis_estimate
from caponplus.linalg import cholesky
from caponplus.signalsim import (
    RngStream,
    SnapshotBatch,
    StreamRole,
    TrialRngs,
    WaveformKind,
    draw_interference_noise,
    draw_waveform,
    output_fourth_moment,
    output_kurtosis,
    synth_scene_secondary,
    synth_scene_snapshots,
    synth_secondary,
    synth_snapshots,
)

PSK_SCENE = SourceScene(
    soi=SourceSpec(-20.0, 2.0),
    interferers=(SourceSpec(15.0, 0.8), SourceSpec(40.0, 0.3)),
    noise_var=1.0,
)
GEOM = ArrayGeometry(4, 0.5)


def rngs(trial=0, seed=42):
    return TrialRngs(seed, trial)


class TestDrawWaveform:
    def test_psk8_constant_modulus(self):
        s = draw_waveform(WaveformKind.PSK8, 2.5, 1000, rngs().soi)
        assert np.allclose(np.abs(s) ** 2, 2.5, rtol=1e-12)

    def test_psk8_phases_on_grid(self):
        s = draw_waveform(WaveformKind.PSK8, 1.0, 4000, rngs().soi)
        k = np.angle(s) / (2.0 * np.pi / 8.0)
        assert np.allclose(k, np.round(k), atol=1e-9)
        assert set(np.round(k).astype(int) % 8) == set(range(8))

    def test_psk8_kurtosis_exactly_minus_one(self):
        s = draw_waveform(WaveformKind.PSK8, 3.0, 64, rngs().soi)
        assert kurtosis_estimate(s) == pytest.approx(-1.0, abs=1e-12)

    def test_gaussian_mean_power(self):
        s = draw_waveform(WaveformKind.CIRCULAR_GAUSSIAN, 1.7, 10**6, rngs().soi)
        assert np.mean(np.abs(s) ** 2) == pytest.approx(1.7, rel=0.01)

    def test_gaussian_parts_independent_and_balanced(self):
        s = draw_waveform(WaveformKind.CIRCULAR_GAUSSIAN, 2.0, 10**6, rngs(1).soi)
        assert np.var(s.real) == pytest.approx(1.0, rel=0.02)
        assert np.var(s.imag) == pytest.approx(1.0, rel=0.02)
        assert abs(np.mean(s.real * s.imag)) < 0.01

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            draw_waveform(WaveformKind.PSK8, 0.0, 10, rngs().soi)
        with pytest.raises(DomainError):
            draw_waveform(WaveformKind.PSK8, 1.0, 0, rngs().soi)


class TestDrawInterferenceNoise:
    def test_identity_covariance(self):
        fac = cholesky(np.eye(3, dtype=complex))
        e = draw_interference_noise(fac, 10**5, rngs().interference)
        sample_cov = e.T @ e.conj() / e.shape[0]
        assert np.linalg.norm(sample_cov - np.eye(3)) <= 0.02 * np.linalg.norm(np.eye(3))

    def test_diagonal_variances(self):
        fac = cholesky(np.diag([4.0, 1.0]).astype(complex))
        e = draw_interference_noise(fac, 10**5, rngs(2).interference)
        variances = np.mean(np.abs(e) ** 2, axis=0)
        assert variances[0] == pytest.approx(4.0, rel=0.02)
        assert variances[1] == pytest.approx(1.0, rel=0.02)

    def test_general_covariance(self):
        q = build_incm(GEOM, PSK_SCENE)
        e = draw_interference_noise(cholesky(q), 2 * 10**5, rngs(3).interference)
        sample_cov = e.T @ e.conj() / e.shape[0]
        assert np.linalg.norm(sample_cov - q) <= 0.03 * np.linalg.norm(q)

    def test_zero_length_rejected(self):
        with pytest.raises(DomainError):
            draw_interference_noise(cholesky(np.eye(2, dtype=complex)), 0, rngs().noise)


class TestSynthSnapshots:
    def test_population_covariance_matches_model(self):
        model = build_cov_model(GEOM, PSK_SCENE)
        batch = synth_snapshots(model, WaveformKind.CIRCULAR_GAUSSIAN, 2 * 10**5, rngs(4))
        x = batch.snapshots
        sample_cov = x.T @ x.conj() / x.shape[0]
        assert np.linalg.norm(sample_cov - model.full) <= 0.03 * np.linalg.norm(model.full)

    def test_truth_is_stored_soi_waveform(self):
        model = build_cov_model(GEOM, PSK_SCENE)
        batch = synth_snapshots(model, WaveformKind.PSK8, 500, rngs(5))
        assert batch.contains_soi
        assert batch.truth.shape == (500,)
        assert np.allclose(np.abs(batch.truth) ** 2, PSK_SCENE.soi.power)

    def test_truth_uncorrelated_with_interference(self):
        model = build_cov_model(GEOM, PSK_SCENE)
        batch = synth_snapshots(model, WaveformKind.CIRCULAR_GAUSSIAN, 10**5, rngs(6))
        a = model.a
        e = batch.snapshots - batch.truth[:, None] * a[None, :]
        cross = e.conj().T @ batch.truth / batch.truth.size
        # stderr of each component is about sqrt(gamma * q_ii / T)
        assert np.all(np.abs(cross) < 5.0 * np.sqrt(2.0 * 2.0 / batch.truth.size))

    def test_tiny_gamma_degenerates_to_interference(self):
        from caponplus.arraymodel import cov_model_from_parts

        a = steering_vector(GEOM, 0.0)
        q = build_incm(GEOM, PSK_SCENE)
        model = cov_model_from_parts(a, 1e-30, q)
        batch = synth_snapshots(model, WaveformKind.CIRCULAR_GAUSSIAN, 100, rngs(7))
        assert np.all(np.abs(batch.truth) ** 2 < 1e-20)


class TestSceneSnapshots:
    def test_covariance_matches_for_psk(self):
        model = build_cov_model(GEOM, PSK_SCENE)
        batch = synth_scene_snapshots(GEOM, PSK_SCENE, WaveformKind.PSK8, 2 * 10**5, rngs(8))
        x = batch.snapshots
        sample_cov = x.T @ x.conj() / x.shape[0]
        assert np.linalg.norm(sample_cov - model.full) <= 0.03 * np.linalg.norm(model.full)

    def test_gaussian_scene_matches_model_generator_distribution(self):
        model = build_cov_model(GEOM, PSK_SCENE)
        b1 = synth_scene_snapshots(GEOM, PSK_SCENE, WaveformKind.CIRCULAR_GAUSSIAN, 10**5, rngs(9))
        x = b1.snapshots
        sample_cov = x.T @ x.conj() / x.shape[0]
        assert np.linalg.norm(sample_cov - model.full) <= 0.04 * np.linalg.norm(model.full)

    def test_output_fourth_moment_prediction(self):
        w = steering_vector(GEOM, -20.0) / GEOM.antennas
        rng_pairs = [(WaveformKind.PSK8, 10), (WaveformKind.CIRCULAR_GAUSSIAN, 11)]
        for kind, trial in rng_pairs:
            batch = synth_scene_snapshots(GEOM, PSK_SCENE, kind, 4 * 10**5, rngs(trial))
            out = batch.snapshots @ w.conj()
            m4 = np.mean(np.abs(out) ** 4)
            predicted = output_fourth_moment(GEOM, PSK_SCENE, kind, w)
            assert m4 == pytest.approx(predicted, rel=0.03)

    def test_output_kurtosis_signs(self):
        w = steering_vector(GEOM, -20.0) / GEOM.antennas
        assert output_kurtosis(GEOM, PSK_SCENE, WaveformKind.CIRCULAR_GAUSSIAN, w) == 0.0
        assert output_kurtosis(GEOM, PSK_SCENE, WaveformKind.PSK8, w) < 0.0


class TestSecondaryData:
    def test_flags_and_empty_truth(self):
        fac = cholesky(build_incm(GEOM, PSK_SCENE))
        batch = synth_secondary(fac, 64, rngs(12).secondary)
        assert not batch.contains_soi
        assert batch.truth.size == 0

    def test_sample_covariance_matches_incm(self):
        q = build_incm(GEOM, PSK_SCENE)
        batch = synth_secondary(cholesky(q), 2 * 10**5, rngs(13).secondary)
        e = batch.snapshots
        sample_cov = e.T @ e.conj() / e.shape[0]
        assert np.linalg.norm(sample_cov - q) <= 0.03 * np.linalg.norm(q)

    def test_scene_secondary_covariance_psk(self):
        q = build_incm(GEOM, PSK_SCENE)
        batch = synth_scene_secondary(GEOM, PSK_SCENE, WaveformKind.PSK8, 2 * 10**5, rngs(14))
        e = batch.snapshots
        sample_cov = e.T @ e.conj() / e.shape[0]
        assert not batch.contains_soi
        assert np.linalg.norm(sample_cov - q) <= 0.03 * np.linalg.norm(q)

    def test_independent_from_primary_roles(self):
        trial = TrialRngs(99, 0)
        primary = synth_scene_snapshots(GEOM, PSK_SCENE, WaveformKind.PSK8, 50, trial)
        secondary = synth_scene_secondary(GEOM, PSK_SCENE, WaveformKind.PSK8, 50, trial)
        assert not np.allclose(primary.snapshots[:50], secondary.snapshots[:50])


class TestReproducibility:
    def test_same_coordinates_bit_identical(self):
        b1 = synth_scene_snapshots(GEOM, PSK_SCENE, WaveformKind.PSK8, 200, TrialRngs(7, 3))
        b2 = synth_scene_snapshots(GEOM, PSK_SCENE, WaveformKind.PSK8, 200, TrialRngs(7, 3))
        assert np.array_equal(b1.snapshots, b2.snapshots)
        assert np.array_equal(b1.truth, b2.truth)

    def test_generation_order_irrelevant(self):
        batches = [
            synth_scene_snapshots(GEOM, PSK_SCENE, WaveformKind.PSK8, 100, TrialRngs(7, t))
            for t in (0, 1, 2)
        ]
        reordered = [
            synth_scene_snapshots(GEOM, PSK_SCENE, WaveformKind.PSK8, 100, TrialRngs(7, t))
            for t in (2, 0, 1)
        ]
        assert np.array_equal(batches[0].snapshots, reordered[1].snapshots)
        assert np.array_equal(batches[2].snapshots, reordered[0].snapshots)

    def test_distinct_trials_and_roles_differ(self):
        g1 = RngStream(7, 0, StreamRole.SOI).generator().standard_normal(16)
        g2 = RngStream(7, 1, StreamRole.SOI).generator().standard_normal(16)
        g3 = RngStream(7, 0, StreamRole.NOISE).generator().standard_normal(16)
        assert not np.allclose(g1, g2)
        assert not np.allclose(g1, g3)

    def test_soi_stream_disjoint_from_interference(self):
        # changing the SOI draw must not move the interference-plus-noise part
        t = TrialRngs(11, 5)
        b_psk = synth_scene_snapshots(GEOM, PSK_SCENE, WaveformKind.PSK8, 64, t)
        a = steering_vector(GEOM, PSK_SCENE.soi.doa_deg)
        e_psk = b_psk.snapshots - b_psk.truth[:, None] * a[None, :]
        scene_boosted = SourceScene(
            soi=SourceSpec(PSK_SCENE.soi.doa_deg, 123.0),
            interferers=PSK_SCENE.interferers,
            noise_var=PSK_SCENE.noise_var,
        )
        b2 = synth_scene_snapshots(GEOM, scene_boosted, WaveformKind.PSK8, 64, t)
        e2 = b2.snapshots - b2.truth[:, None] * a[None, :]
        assert np.allclose(e_psk, e2, atol=1e-12)


class TestSnapshotBatchInvariants:
    def test_secondary_batch_truth_must_be_empty(self):
        with pytest.raises(DomainError):
            SnapshotBatch(
                snapshots=np.zeros((3, 2), dtype=complex),
                truth=np.zeros(3, dtype=complex),
                contains_soi=False,
            )

    def test_truth_length_must_match(self):
        with pytest.raises(DomainError):
            SnapshotBatch(
                snapshots=np.zeros((3, 2), dtype=complex),
                truth=np.zeros(2, dtype=complex),
                contains_soi=True,
            )

    def test_zero_snapshots_rejected(self):
        for contains_soi in (True, False):
            with pytest.raises(DomainError):
                SnapshotBatch(
                    snapshots=np.zeros((0, 2), dtype=complex),
                    truth=np.zeros(0, dtype=complex),
                    contains_soi=contains_soi,
                )
