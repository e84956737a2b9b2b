import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caponplus.arraymodel import (
    ArrayGeometry,
    SourceScene,
    SourceSpec,
    build_cov_model,
    build_incm,
    output_moments_theory,
    steering_vector,
)
import caponplus.signalsim as signalsim
from caponplus.errors import DomainError
from caponplus.beamformers import apply_weights
from caponplus.estimation import scm
from caponplus.linalg import cholesky
from caponplus.montecarlo import Regime, ScenarioConfig, SweepSpec, SweepVariable, run_trial
from caponplus.signalsim import (
    _PSK_PHASORS,
    RngStream,
    SnapshotBatch,
    StreamRole,
    TrialRngs,
    WaveformKind,
    synth_scene_secondary,
    synth_scene_snapshots,
)
from helpers import (
    bits,
    count_streams,
    draw_interference_noise,
    draw_waveform,
    kurtosis_estimate,
    reference_synth_scene_secondary,
    reference_synth_scene_snapshots,
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
        s = draw_waveform(WaveformKind.PSK8, 2.5, 1000, rngs().stream(StreamRole.SOI))
        assert np.allclose(np.abs(s) ** 2, 2.5, rtol=1e-12)

    def test_psk8_phases_on_grid(self):
        s = draw_waveform(WaveformKind.PSK8, 1.0, 4000, rngs().stream(StreamRole.SOI))
        k = np.angle(s) / (2.0 * np.pi / 8.0)
        assert np.allclose(k, np.round(k), atol=1e-9)
        assert set(np.round(k).astype(int) % 8) == set(range(8))

    def test_psk8_kurtosis_exactly_minus_one(self):
        s = draw_waveform(WaveformKind.PSK8, 3.0, 64, rngs().stream(StreamRole.SOI))
        assert kurtosis_estimate(s) == pytest.approx(-1.0, abs=1e-12)

    def test_psk8_phasor_table_bits(self):
        for k in range(8):
            expected = np.array([np.exp(1j * (k * (2.0 * np.pi / 8.0)))])
            assert np.array_equal(bits(_PSK_PHASORS[k : k + 1]), bits(expected))

    def test_gaussian_mean_power(self):
        s = draw_waveform(WaveformKind.CIRCULAR_GAUSSIAN, 1.7, 10**6,
                          rngs().stream(StreamRole.SOI))
        assert np.mean(np.abs(s) ** 2) == pytest.approx(1.7, rel=0.01)

    def test_gaussian_parts_independent_and_balanced(self):
        s = draw_waveform(WaveformKind.CIRCULAR_GAUSSIAN, 2.0, 10**6,
                          rngs(1).stream(StreamRole.SOI))
        assert np.var(s.real) == pytest.approx(1.0, rel=0.02)
        assert np.var(s.imag) == pytest.approx(1.0, rel=0.02)
        assert abs(np.mean(s.real * s.imag)) < 0.01

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            draw_waveform(WaveformKind.PSK8, 0.0, 10, rngs().stream(StreamRole.SOI))
        with pytest.raises(DomainError):
            draw_waveform(WaveformKind.PSK8, 1.0, 0, rngs().stream(StreamRole.SOI))
        with pytest.raises(DomainError):
            draw_waveform(WaveformKind.CIRCULAR_GAUSSIAN, [1.0, float("nan")], 10,
                          rngs().stream(StreamRole.SOI))
        with pytest.raises(DomainError):
            draw_waveform(WaveformKind.PSK8, [], 10, rngs().stream(StreamRole.SOI))

    @pytest.mark.parametrize("kind", list(WaveformKind))
    @pytest.mark.parametrize("count", [1, 60])
    def test_several_powers_equal_calls_in_turn(self, kind, count):
        powers = [2.0, 0.3, 1e-4]
        waves = draw_waveform(kind, powers, count, rngs(3).stream(StreamRole.SOI))
        one_by_one = rngs(3).stream(StreamRole.SOI)
        expected = np.column_stack([draw_waveform(kind, p, count, one_by_one) for p in powers])
        assert waves.shape == (count, 3) and waves.flags.c_contiguous
        assert np.array_equal(waves, expected)


class TestDrawInterferenceNoise:
    def test_identity_covariance(self):
        fac = cholesky(np.eye(3, dtype=complex))
        e = draw_interference_noise(fac, 10**5, rngs().stream(StreamRole.INTERFERENCE))
        sample_cov = e.T @ e.conj() / e.shape[0]
        assert np.linalg.norm(sample_cov - np.eye(3)) <= 0.02 * np.linalg.norm(np.eye(3))

    def test_diagonal_variances(self):
        fac = cholesky(np.diag([4.0, 1.0]).astype(complex))
        e = draw_interference_noise(fac, 10**5, rngs(2).stream(StreamRole.INTERFERENCE))
        variances = np.mean(np.abs(e) ** 2, axis=0)
        assert variances[0] == pytest.approx(4.0, rel=0.02)
        assert variances[1] == pytest.approx(1.0, rel=0.02)

    def test_general_covariance(self):
        q = build_incm(GEOM, PSK_SCENE)
        e = draw_interference_noise(cholesky(q), 2 * 10**5,
                                    rngs(3).stream(StreamRole.INTERFERENCE))
        sample_cov = e.T @ e.conj() / e.shape[0]
        assert np.linalg.norm(sample_cov - q) <= 0.03 * np.linalg.norm(q)

    def test_zero_length_rejected(self):
        with pytest.raises(DomainError):
            draw_interference_noise(cholesky(np.eye(2, dtype=complex)), 0,
                                    rngs().stream(StreamRole.NOISE))


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
            _, predicted = output_moments_theory(GEOM, PSK_SCENE, kind, w)
            assert m4 == pytest.approx(predicted, rel=0.03)

    def test_output_kurtosis_signs(self):
        w = steering_vector(GEOM, -20.0) / GEOM.antennas
        power, fourth = output_moments_theory(GEOM, PSK_SCENE, WaveformKind.CIRCULAR_GAUSSIAN, w)
        assert fourth / power**2 - 2.0 == 0.0
        power, fourth = output_moments_theory(GEOM, PSK_SCENE, WaveformKind.PSK8, w)
        assert fourth / power**2 - 2.0 < 0.0


class TestSecondaryData:
    def test_flags_and_empty_truth(self):
        fac = cholesky(build_incm(GEOM, PSK_SCENE))
        batch = synth_secondary(fac, 64, rngs(12).stream(StreamRole.SECONDARY))
        assert batch.truth.size == 0

    def test_sample_covariance_matches_incm(self):
        q = build_incm(GEOM, PSK_SCENE)
        batch = synth_secondary(cholesky(q), 2 * 10**5, rngs(13).stream(StreamRole.SECONDARY))
        e = batch.snapshots
        sample_cov = e.T @ e.conj() / e.shape[0]
        assert np.linalg.norm(sample_cov - q) <= 0.03 * np.linalg.norm(q)

    def test_scene_secondary_covariance_psk(self):
        q = build_incm(GEOM, PSK_SCENE)
        batch = synth_scene_secondary(GEOM, PSK_SCENE, WaveformKind.PSK8, 2 * 10**5, rngs(14))
        e = batch.snapshots
        sample_cov = e.T @ e.conj() / e.shape[0]
        assert batch.truth.size == 0
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


STREAM_SEEDS = [0, 1, 7, 20250810, 2**32 + 5, 2**100 + 3, 2**200 + 11]
STREAM_TRIALS = [0, 1, 255, 256, 257, 10**6, 2**32 - 1]


def numpy_stream_state(seed, trial, role):
    seq = np.random.SeedSequence(seed, spawn_key=(trial, int(role)))
    return np.random.PCG64(seq).state


class TestStreamContract:
    """Each stream is ``PCG64(SeedSequence(seed, spawn_key=(trial, role)))``."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_state_equals_numpy_seed_sequence(self, seed):
        for trial in STREAM_TRIALS:
            for role in StreamRole:
                got = RngStream(seed, trial, role).generator().bit_generator.state
                assert got == numpy_stream_state(seed, trial, role), (seed, trial, role)

    @settings(derandomize=True, database=None, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**256 - 1),
        trial=st.integers(min_value=0, max_value=2**32 - 1),
        role=st.sampled_from(list(StreamRole)),
    )
    def test_state_property(self, seed, trial, role):
        got = RngStream(seed, trial, role).generator().bit_generator.state
        assert got == numpy_stream_state(seed, trial, role)

    def test_live_generators_of_one_role_are_independent(self):
        g1 = RngStream(7, 3, StreamRole.NOISE).generator()
        g2 = RngStream(7, 300, StreamRole.NOISE).generator()
        assert g1 is not g2 and g1.bit_generator is not g2.bit_generator
        assert not np.array_equal(g1.standard_normal(8), g2.standard_normal(8))
        # drawing from one leaves a fresh generator of the same coordinates untouched
        again = RngStream(7, 3, StreamRole.NOISE).generator()
        assert again.bit_generator.state == numpy_stream_state(7, 3, StreamRole.NOISE)

    def test_negative_seed_rejected(self):
        for seed in (-1, -(2**64)):
            with pytest.raises(DomainError, match="master seed"):
                RngStream(seed, 0, StreamRole.SOI).generator()
            with pytest.raises(DomainError, match="master seed"):
                TrialRngs(seed, 0).stream(StreamRole.SOI)

    def test_trial_index_outside_uint32_rejected(self):
        for trial in (-1, 2**32, 2**40):
            with pytest.raises(DomainError, match="trial index"):
                RngStream(0, trial, StreamRole.SOI).generator()
        with pytest.raises(DomainError):
            TrialRngs(0, -5).stream(StreamRole.SOI)

    @settings(derandomize=True, database=None, deadline=None)
    @given(
        coords=st.one_of(
            st.tuples(st.integers(max_value=-1), st.integers(min_value=0, max_value=2**32 - 1)),
            st.tuples(
                st.integers(),
                st.one_of(st.integers(max_value=-1), st.integers(min_value=2**32)),
            ),
        ),
        role=st.sampled_from(list(StreamRole)),
    )
    def test_coordinates_outside_range_rejected_everywhere(self, coords, role):
        """Every entry point that draws rejects the coordinates, and a
        :class:`TrialRngs` rejects them again: it holds no draw of them."""
        seed, trial = coords
        rngs = TrialRngs(seed, trial)
        cfg = ScenarioConfig(
            regime=Regime.ORACLE, geom=GEOM, base_scene=PSK_SCENE, waveform=WaveformKind.PSK8,
            snapshots=8, secondary_snapshots=0, trials=100, master_seed=seed,
            sweep=SweepSpec(SweepVariable.SNR_DB, (0.0,)),
        )
        calls = (
            lambda: RngStream(seed, trial, role).generator(),
            lambda: rngs.stream(role),
            lambda: rngs.draws(role, WaveformKind.PSK8, 1, 8, 4),
            lambda: synth_scene_snapshots(GEOM, PSK_SCENE, WaveformKind.PSK8, 8, rngs),
            lambda: synth_scene_secondary(GEOM, PSK_SCENE, WaveformKind.PSK8, 8, rngs),
            lambda: run_trial(cfg, 0.0, trial),
        )
        for call in calls * 2:
            with pytest.raises(DomainError, match="master seed|trial index"):
                call()

    @pytest.mark.parametrize("coords", [(7.0, 3), (7, 3.0), ("7", 3), (None, 3)])
    def test_non_integer_coordinates_rejected(self, coords):
        signalsim._block_words.cache_clear()
        with pytest.raises(DomainError, match="must be integers"):
            TrialRngs(*coords).stream(StreamRole.SOI)
        # and again once seed 7's block is cached
        TrialRngs(7, 3).stream(StreamRole.SOI)
        with pytest.raises(DomainError, match="must be integers"):
            TrialRngs(*coords).stream(StreamRole.SOI)
        with pytest.raises(DomainError, match="must be integers"):
            RngStream(*coords, StreamRole.NOISE).generator()

    def test_numpy_integer_coordinates_give_the_integer_state(self):
        coords = [(np.int64(7), np.int64(3)), (np.uint64(2**63 + 5), np.uint32(2**32 - 1))]
        for seed, trial in coords:
            for role in StreamRole:
                got = RngStream(seed, trial, role).generator().bit_generator.state
                assert got == numpy_stream_state(int(seed), int(trial), role)
                got = TrialRngs(seed, trial).stream(role).bit_generator.state
                assert got == numpy_stream_state(int(seed), int(trial), role)

    def test_fields_immutable(self):
        value = RngStream(7, 3, StreamRole.NOISE)
        for name in type(value)._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert (value.master_seed, value.trial_index) == (7, 3)
        assert not hasattr(value, "__dict__")

    def test_equal_coordinates_equal_and_hash_equal(self):
        a, b = RngStream(7, 3, StreamRole.NOISE), RngStream(7, 3, StreamRole.NOISE)
        assert a is not b and a == b and hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)) == a
        assert RngStream(7, 3, StreamRole.NOISE) != RngStream(7, 3, StreamRole.SOI)
        assert RngStream(7, 3, StreamRole.NOISE) != RngStream(7, 4, StreamRole.NOISE)


class TestSynthMatchesReference:
    """Bit-identity with the per-interferer generator seeded through numpy."""

    @pytest.mark.parametrize("kind", list(WaveformKind))
    @pytest.mark.parametrize("n_interferers", [0, 1, 3])
    @pytest.mark.parametrize("count", [1, 60, 200])
    def test_batches_equal_reference(self, kind, n_interferers, count):
        geom = ArrayGeometry(25, 0.5)
        scene = SourceScene(
            soi=SourceSpec(-45.02, 0.7),
            interferers=tuple(
                SourceSpec(doa, power)
                for doa, power in zip((-30.0, 0.0, 20.0), (3.1, 0.25, 1e-3))
            )[:n_interferers],
            noise_var=0.37,
        )
        for seed, trial in ((20250810, 0), (7, 300), (2**70 + 1, 2**32 - 1)):
            got = synth_scene_snapshots(geom, scene, kind, count, TrialRngs(seed, trial))
            ref = reference_synth_scene_snapshots(geom, scene, kind, count, seed, trial)
            assert np.array_equal(bits(got.snapshots), bits(ref.snapshots))
            assert np.array_equal(bits(got.truth), bits(ref.truth))
            got = synth_scene_secondary(geom, scene, kind, count, TrialRngs(seed, trial))
            ref = reference_synth_scene_secondary(geom, scene, kind, count, seed, trial)
            assert np.array_equal(bits(got.snapshots), bits(ref.snapshots))
            assert got.truth.size == 0

    def test_one_scene_under_each_kind_and_geometry(self):
        """The per-scene constants are cached per (geom, scene, kind): the same
        scene object drawn in turn under both kinds, then under two
        geometries, matches the reference every time."""
        scene = SourceScene(
            soi=SourceSpec(-45.02, 0.7),
            interferers=(SourceSpec(-30.0, 3.1), SourceSpec(20.0, 0.25)),
            noise_var=0.37,
        )
        geom = ArrayGeometry(25, 0.5)
        turns = [(geom, kind) for kind in WaveformKind]
        turns += [(ArrayGeometry(m, 0.5), WaveformKind.PSK8) for m in (8, 25)]
        for geom, kind in turns:
            got = synth_scene_snapshots(geom, scene, kind, 60, TrialRngs(7, 300))
            ref = reference_synth_scene_snapshots(geom, scene, kind, 60, 7, 300)
            assert np.array_equal(bits(got.snapshots), bits(ref.snapshots)), (geom, kind)
            assert np.array_equal(bits(got.truth), bits(ref.truth)), (geom, kind)
            got = synth_scene_secondary(geom, scene, kind, 60, TrialRngs(7, 300))
            ref = reference_synth_scene_secondary(geom, scene, kind, 60, 7, 300)
            assert np.array_equal(bits(got.snapshots), bits(ref.snapshots)), (geom, kind)

    def test_bad_count_rejected(self):
        scene = SourceScene(soi=SourceSpec(-45.02, 0.7), interferers=(SourceSpec(-30.0, 3.1),))
        for synth in (synth_scene_snapshots, synth_scene_secondary):
            with pytest.raises(DomainError, match="sample count"):
                synth(GEOM, scene, WaveformKind.PSK8, 0, TrialRngs(7, 0))

    @pytest.mark.parametrize("which", ["snapshots", "secondary", "outputs"])
    @pytest.mark.parametrize("count", [60.0, 60.5, "60", None])
    def test_non_integer_count_rejected_cold_and_warm(self, which, count):
        """A count that is not an integer raises ``DomainError`` on a fresh
        :class:`TrialRngs`, and again once it holds the 60-sample draws."""
        geom = ArrayGeometry(4, 0.5)
        omap = signalsim.output_map(geom, [PSK_SCENE], WaveformKind.PSK8, np.ones((1, 1, 4)))
        rngs = TrialRngs(7, 3)
        synth = {
            "snapshots": lambda n: synth_scene_snapshots(geom, PSK_SCENE, WaveformKind.PSK8, n,
                                                         rngs),
            "secondary": lambda n: synth_scene_secondary(geom, PSK_SCENE, WaveformKind.PSK8, n,
                                                         rngs),
            "outputs": lambda n: signalsim.synth_outputs(omap, n, 7, range(3, 4),
                                                          signalsim.Workspace()),
        }[which]
        with pytest.raises(DomainError, match="sample count must be an integer"):
            synth(count)
        synth(60)
        with pytest.raises(DomainError, match="sample count must be an integer"):
            synth(count)
        synth(np.int64(60))


OUTPUT_SCENES = [
    SourceScene(soi=SourceSpec(-45.02, 10.0 ** (db / 10)),
                interferers=(SourceSpec(-30.0, 3.1), SourceSpec(0.0, 0.25), SourceSpec(20.0, 1e-3)),
                noise_var=0.37)
    for db in (10.0, 0.0, -10.0)
]


class TestSynthOutputs:
    """Projected outputs are the snapshots times the conjugate weights, up to
    rounding, with the batch's true waveform, and a weight's outputs have the
    same bits in any map."""

    @pytest.mark.parametrize("kind", list(WaveformKind))
    @pytest.mark.parametrize("n_interferers", [0, 1, 3])
    @pytest.mark.parametrize("count", [1, 60, 200])
    def test_outputs_equal_weights_applied_to_the_batch(self, kind, n_interferers, count):
        geom = ArrayGeometry(25, 0.5)
        scenes = [SourceScene(s.soi, s.interferers[:n_interferers], s.noise_var)
                  for s in OUTPUT_SCENES]
        rng = np.random.default_rng(count)
        weights = rng.standard_normal((3, 2, 25)) + 1j * rng.standard_normal((3, 2, 25))
        omap = signalsim.output_map(geom, scenes, kind, weights)
        trials = range(299, 302)
        outs, truth = signalsim.synth_outputs(omap, count, 7, trials, signalsim.Workspace())
        assert outs.shape == (3, 3, 2, count) and truth.shape == (3, 3, count)
        for j, trial in enumerate(trials):
            for p, scene in enumerate(scenes):
                batch = synth_scene_snapshots(geom, scene, kind, count, TrialRngs(7, trial))
                assert np.array_equal(bits(truth[j, p]), bits(batch.truth))
                for k, w in enumerate(weights[p]):
                    direct = apply_weights(w, batch)
                    scale = np.abs(batch.snapshots).max() * np.abs(w).sum()
                    assert np.abs(outs[j, p, k] - direct).max() <= 1e-14 * scale

    @pytest.mark.parametrize("kind", list(WaveformKind))
    def test_a_weight_has_the_same_bits_in_any_map(self, kind):
        geom = ArrayGeometry(25, 0.5)
        rng = np.random.default_rng(5)
        weights = rng.standard_normal((3, 3, 25)) + 1j * rng.standard_normal((3, 3, 25))
        (full,), _ = signalsim.synth_outputs(
            signalsim.output_map(geom, OUTPUT_SCENES, kind, weights), 60, 7, range(11, 12),
            signalsim.Workspace())
        for p, scene in enumerate(OUTPUT_SCENES):
            for lo, hi in ((0, 3), (1, 3), (0, 1), (2, 3)):
                (part,), _ = signalsim.synth_outputs(
                    signalsim.output_map(geom, [scene], kind, weights[p:p + 1, lo:hi]),
                    60, 7, range(11, 12), signalsim.Workspace())
                assert np.array_equal(bits(part[0]), bits(full[p, lo:hi])), (p, lo, hi)

    @pytest.mark.parametrize("kind", list(WaveformKind))
    def test_a_trials_outputs_do_not_depend_on_its_block(self, kind):
        """Blocks drawn into one Workspace, a full block and then shorter
        ones whose arrays still hold an earlier block's rows, give each trial
        the bits of the trial drawn alone."""
        geom = ArrayGeometry(25, 0.5)
        rng = np.random.default_rng(9)
        weights = rng.standard_normal((3, 3, 25)) + 1j * rng.standard_normal((3, 3, 25))
        omap = signalsim.output_map(geom, OUTPUT_SCENES, kind, weights)
        alone = [signalsim.synth_outputs(omap, 60, 7, range(i, i + 1), signalsim.Workspace())
                 for i in range(11)]
        work = signalsim.Workspace()
        for lo, hi in ((0, 8), (8, 11), (3, 11), (5, 6)):
            outs, truth = signalsim.synth_outputs(omap, 60, 7, range(lo, hi), work)
            assert outs.shape == (hi - lo, 3, 3, 60) and truth.shape == (hi - lo, 3, 60)
            for j, i in enumerate(range(lo, hi)):
                assert np.array_equal(bits(outs[j]), bits(alone[i][0][0])), (lo, hi, i)
                assert np.array_equal(bits(truth[j]), bits(alone[i][1][0])), (lo, hi, i)

    def test_one_weight_is_held_twice(self):
        omap = signalsim.output_map(GEOM, [PSK_SCENE], WaveformKind.PSK8, np.ones((1, 1, 4)))
        assert omap.noise.shape == (2, 4) and omap.shape == (1, 1)
        assert np.array_equal(omap.noise[0], omap.noise[1])
        for arr in (omap.noise, omap.interference, omap.soi, omap.soi_amp):
            assert not arr.flags.writeable

    def test_mismatched_scenes_and_weights_rejected(self):
        lone = SourceScene(soi=PSK_SCENE.soi, interferers=(), noise_var=1.0)
        with pytest.raises(DomainError, match="same number of interferers"):
            signalsim.output_map(GEOM, [PSK_SCENE, lone], WaveformKind.PSK8, np.ones((2, 1, 4)))
        with pytest.raises(DomainError, match="do not match"):
            signalsim.output_map(GEOM, [PSK_SCENE], WaveformKind.PSK8, np.ones((2, 1, 4)))
        with pytest.raises(DomainError, match="do not match"):
            signalsim.output_map(GEOM, [PSK_SCENE], WaveformKind.PSK8, np.ones((1, 1, 5)))


MEMO_SEEDS = [7, 20250810, 2**70 + 1]
MEMO_TRIALS = [0, 255, 256, 2**32 - 1]
MEMO_CALL = st.tuples(
    st.sampled_from(["snapshots", "secondary"]),
    st.sampled_from(MEMO_SEEDS),
    st.sampled_from(MEMO_TRIALS),
    st.sampled_from(list(WaveformKind)),
    st.sampled_from([0, 1, 3]),  # interferers
    st.sampled_from([1, 60, 200]),  # sample count
    st.sampled_from([8, 25]),  # antennas
    st.sampled_from([1.0, 10.0]),  # power scale: one stream's draws at two scenes
)
SYNTH = {
    "snapshots": (synth_scene_snapshots, reference_synth_scene_snapshots),
    "secondary": (synth_scene_secondary, reference_synth_scene_secondary),
}


def memo_keys(which, n_interferers, m):
    """The ``(role, waveforms, antennas)`` of each stream draw a call makes."""
    if which == "secondary":
        return [(StreamRole.SECONDARY, n_interferers, m)]
    keys = [(StreamRole.SOI, 1, 0), (StreamRole.NOISE, 0, m)]
    return keys + [(StreamRole.INTERFERENCE, n_interferers, 0)] * (n_interferers > 0)


def memo_scene(n_interferers, scale):
    return SourceScene(
        soi=SourceSpec(-45.02, 0.7 * scale),
        interferers=tuple(
            SourceSpec(doa, power * scale)
            for doa, power in zip((-30.0, 0.0, 20.0), (3.1, 0.25, 1e-3))
        )[:n_interferers],
        noise_var=0.37,
    )


class TestDrawMemo:
    """The draws a :class:`TrialRngs` holds are invisible: any interleaving
    of synthesis calls on one object per trial gives what each call gives on
    a fresh object, which is the reference, and every held array is
    read-only."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(calls=st.lists(MEMO_CALL, min_size=1, max_size=12))
    def test_interleaved_calls_equal_cold_calls(self, calls):
        shared, warm = {}, []
        with pytest.MonkeyPatch.context() as patch:
            streams = count_streams(patch)
            for which, seed, trial, kind, n_int, count, m, scale in calls:
                synth, _ = SYNTH[which]
                geom, scene = ArrayGeometry(m, 0.5), memo_scene(n_int, scale)
                rngs = shared.setdefault((seed, trial), TrialRngs(seed, trial))
                warm.append(synth(geom, scene, kind, count, rngs))
                for role, k, m_role in memo_keys(which, n_int, m):
                    read = len(streams)
                    held = rngs.draws(role, kind, k, count, m_role)
                    assert len(streams) == read  # the call above read them
                    for arr in held:
                        assert arr is None or not arr.flags.writeable
        for (which, seed, trial, kind, n_int, count, m, scale), got in zip(calls, warm):
            synth, reference = SYNTH[which]
            geom, scene = ArrayGeometry(m, 0.5), memo_scene(n_int, scale)
            cold = synth(geom, scene, kind, count, TrialRngs(seed, trial))
            ref = reference(geom, scene, kind, count, seed, trial)
            for batch in (cold, ref):
                assert np.array_equal(bits(got.snapshots), bits(batch.snapshots))
                assert np.array_equal(bits(got.truth), bits(batch.truth))

    @pytest.mark.parametrize("kind", list(WaveformKind))
    def test_draws_are_held_in_the_layout_synthesis_reads(self, kind):
        """Each draw is a read-only, C-contiguous complex ``(count, .)`` array
        whose parts are the generator's draws in the order it made them."""
        rngs = TrialRngs(7, 3)
        soi, no_noise = rngs.draws(StreamRole.SOI, kind, 1, 60, 0)
        waves, noise = rngs.draws(StreamRole.SECONDARY, kind, 3, 60, 25)
        assert no_noise is None
        for arr, shape in ((soi, (60, 1)), (waves, (60, 3)), (noise, (60, 25))):
            assert arr.shape == shape and arr.dtype == np.complex128
            assert arr.flags.c_contiguous and not arr.flags.writeable
        rng = TrialRngs(7, 3).stream(StreamRole.SECONDARY)
        if kind is WaveformKind.CIRCULAR_GAUSSIAN:
            parts = rng.standard_normal((3, 2, 60))
            assert np.array_equal(bits(waves.real), bits(parts[:, 0].T))
            assert np.array_equal(bits(waves.imag), bits(parts[:, 1].T))
        else:
            assert np.array_equal(bits(waves), bits(_PSK_PHASORS[rng.integers(0, 8, (3, 60)).T]))
        parts = rng.standard_normal((2, 60, 25))
        assert np.array_equal(bits(noise.real), bits(parts[0]))
        assert np.array_equal(bits(noise.imag), bits(parts[1]))

    @pytest.mark.parametrize("which", list(SYNTH))
    @pytest.mark.parametrize("coords", [(7.0, 3), (7, 3.0)])
    def test_float_coordinates_rejected_cold_and_warm(self, which, coords):
        synth, _ = SYNTH[which]
        with pytest.raises(DomainError, match="must be integers"):
            synth(GEOM, PSK_SCENE, WaveformKind.PSK8, 8, TrialRngs(*coords))
        # and again once seed 7's block of seed words is cached
        synth(GEOM, PSK_SCENE, WaveformKind.PSK8, 8, TrialRngs(7, 3))
        with pytest.raises(DomainError, match="must be integers"):
            synth(GEOM, PSK_SCENE, WaveformKind.PSK8, 8, TrialRngs(*coords))

    @pytest.mark.parametrize("which", list(SYNTH))
    @pytest.mark.parametrize("kind", list(WaveformKind))
    def test_numpy_integer_coordinates_give_the_integer_batch(self, which, kind):
        synth, reference = SYNTH[which]
        ref = reference(GEOM, PSK_SCENE, kind, 60, 7, 3)
        for seed, trial in ((7, 3), (np.int64(7), np.uint32(3)), (7, 3)):
            got = synth(GEOM, PSK_SCENE, kind, 60, TrialRngs(seed, trial))
            assert np.array_equal(bits(got.snapshots), bits(ref.snapshots))
            assert np.array_equal(bits(got.truth), bits(ref.truth))

    def test_each_stream_read_once_per_object_and_shape(self, monkeypatch):
        streams = count_streams(monkeypatch)
        kind, rngs = WaveformKind.CIRCULAR_GAUSSIAN, TrialRngs(7, 0)
        primary = [(0, role) for role in (StreamRole.SOI, StreamRole.INTERFERENCE,
                                          StreamRole.NOISE)]
        synth_scene_snapshots(GEOM, memo_scene(3, 1.0), kind, 60, rngs)
        assert streams == primary
        # another scene of the same trial reads the held draws
        synth_scene_snapshots(GEOM, memo_scene(3, 10.0), kind, 60, rngs)
        synth_scene_secondary(GEOM, memo_scene(3, 1.0), kind, 30, rngs)
        synth_scene_secondary(GEOM, memo_scene(3, 10.0), kind, 30, rngs)
        assert streams == primary + [(0, StreamRole.SECONDARY)]
        # another count reads its stream again, and so does a fresh object
        synth_scene_secondary(GEOM, memo_scene(3, 1.0), kind, 40, rngs)
        synth_scene_snapshots(GEOM, memo_scene(3, 1.0), kind, 60, TrialRngs(7, 0))
        assert streams == primary + [(0, StreamRole.SECONDARY)] * 2 + primary

    def test_equal_scenes_share_one_constants_entry(self):
        constants = signalsim._scene_constants
        constants.cache_clear()
        first, second = memo_scene(3, 1.0), memo_scene(3, 1.0)
        assert first is not second and first == second and hash(first) == hash(second)
        kind = WaveformKind.PSK8
        assert constants(GEOM, first, kind) is constants(GEOM, second, kind)
        info = constants.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


class TestSnapshotBatchInvariants:
    def test_zero_snapshots_rejected(self):
        w = np.ones(2, dtype=complex)
        for x in (np.zeros((0, 2), dtype=complex), np.zeros(2, dtype=complex)):
            batch = SnapshotBatch(snapshots=x, truth=np.zeros(0, dtype=complex))
            with pytest.raises(DomainError, match="snapshots must be"):
                scm(batch)
            with pytest.raises(DomainError, match="snapshots must be"):
                apply_weights(w, batch)

