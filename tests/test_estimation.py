import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caponplus.arraymodel import (
    build_cov_model,
    capon_output_power,
    cov_model_from_parts,
    theory_report,
)
from caponplus.beamformers import adaptive_capon_weights, apply_weights
from caponplus.errors import (
    DegenerateDenominator,
    DegenerateSample,
    DomainError,
)
from caponplus.estimation import (
    alpha_hat,
    debiased_power,
    debiased_power_scaled,
    kurtosis_estimate,
    output_moments,
    scm,
)
from caponplus.linalg import cholesky, quadratic_form
from caponplus.signalsim import SnapshotBatch, StreamRole, TrialRngs, WaveformKind
from helpers import (
    bits,
    capon_weights,
    draw_waveform,
    nll_profile,
    random_cvector,
    random_hpd,
    random_model,
    reference_scm,
    solve_hpd,
    synth_snapshots,
)


def make_batch(x):
    x = np.asarray(x, dtype=complex)
    return SnapshotBatch(snapshots=x, truth=np.zeros(x.shape[0], dtype=complex))


class TestScm:
    def test_single_snapshot_outer_product(self):
        x = np.array([[1.0 + 2.0j, -1.0j]])
        cov = scm(make_batch(x))
        assert np.allclose(cov.matrix, np.outer(x[0], x[0].conj()))

    def test_identical_snapshots_rank_one(self):
        rng = np.random.default_rng(0)
        v = random_cvector(rng, 4)
        cov = scm(make_batch(np.tile(v, (9, 1))))
        assert np.allclose(cov.matrix, np.outer(v, v.conj()))

    def test_large_t_consistency(self):
        rng = np.random.default_rng(1)
        _geom, _scene, model = random_model(rng, antennas=3)
        batch = synth_snapshots(model, WaveformKind.CIRCULAR_GAUSSIAN, 10**5, TrialRngs(0, 0))
        cov = scm(batch)
        assert np.linalg.norm(cov.matrix - model.full) <= 0.03 * np.linalg.norm(model.full)

    def test_hermitian_by_construction(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5))
        cov = scm(make_batch(x))
        assert np.array_equal(cov.matrix, cov.matrix.conj().T)

    @pytest.mark.parametrize("t", [30, 60, 120, 500])
    def test_matches_matrix_product(self, t):
        rng = np.random.default_rng(t)
        x = rng.standard_normal((t, 25)) + 1j * rng.standard_normal((t, 25))
        got = scm(make_batch(x)).matrix
        ref = x.T @ x.conj() / t
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.array_equal(got, got.conj().T)

    @pytest.mark.parametrize("t", [26, 30, 60, 120, 500])
    def test_bits_equal_tril_mirror(self, t):
        rng = np.random.default_rng(100 + t)
        x = rng.standard_normal((t, 25)) + 1j * rng.standard_normal((t, 25))
        got = scm(make_batch(x)).matrix
        assert np.array_equal(bits(got), bits(reference_scm(x)))
        assert np.array_equal(got, got.conj().T)


def beamform(w, x):
    """Output ``w^H x(t)`` of weight ``w`` on the snapshot rows of ``x``."""
    return np.asarray(x, dtype=complex) @ np.asarray(w, dtype=complex).conj()


class TestPowerEstimate:
    def test_zero_weight(self):
        power, _m4 = output_moments(beamform(np.zeros(3), np.ones((4, 3))))
        assert power == 0.0

    def test_single_snapshot_basis_vector(self):
        power, _m4 = output_moments(beamform([1.0, 0.0], [[3.0 - 4.0j, 7.0]]))
        assert power == pytest.approx(25.0)

    def test_equals_scm_quadratic_form(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = int(rng.integers(2, 7))
            t = int(rng.integers(1, 40))
            x = rng.standard_normal((t, m)) + 1j * rng.standard_normal((t, m))
            w = random_cvector(rng, m)
            direct, _m4 = output_moments(beamform(w, x))
            via_scm = quadratic_form(scm(make_batch(x)).matrix, w)
            assert direct == pytest.approx(via_scm, rel=1e-10)

    @pytest.mark.parametrize("t", [1, 7, 60, 200, 1000])
    def test_equals_numpy_means(self, t):
        rng = np.random.default_rng(t)
        out = random_cvector(rng, t)
        p = out.real**2 + out.imag**2
        assert output_moments(out) == (float(np.mean(p)), float(np.mean(p**2)))


class TestFourthMoment:
    def test_constant_modulus(self):
        s = draw_waveform(WaveformKind.PSK8, 2.0, 50, TrialRngs(0, 0).stream(StreamRole.SOI))
        assert output_moments(s)[1] == pytest.approx(4.0)

    def test_zero_weight(self):
        assert output_moments(beamform(np.zeros(3), np.ones((4, 3))))[1] == 0.0

    def test_gaussian_moment_identity(self):
        rng = np.random.default_rng(4)
        _geom, _scene, model = random_model(rng, antennas=3)
        w = capon_weights(model.full, model.a)
        batch = synth_snapshots(model, WaveformKind.CIRCULAR_GAUSSIAN, 10**6, TrialRngs(1, 0))
        gamma_cap = capon_output_power(model)
        m4 = output_moments(apply_weights(w, batch))[1]
        assert m4 == pytest.approx(2.0 * gamma_cap**2, rel=0.02)


class TestKurtosisEstimate:
    def test_constant_modulus_exact(self):
        s = 3.0 * np.exp(1j * np.linspace(0.0, 5.0, 17))
        assert kurtosis_estimate(s) == pytest.approx(-1.0, abs=1e-12)

    def test_two_equal_modulus_samples(self):
        assert kurtosis_estimate(np.array([1.0, 1.0j])) == pytest.approx(-1.0)

    def test_gaussian_near_zero(self):
        n = 10**6
        s = draw_waveform(WaveformKind.CIRCULAR_GAUSSIAN, 1.0, n,
                          TrialRngs(2, 0).stream(StreamRole.SOI))
        # asymptotic standard error of the kurtosis estimate is 2/sqrt(n)
        assert abs(kurtosis_estimate(s)) <= 3.0 * 2.0 / np.sqrt(n)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateSample):
            kurtosis_estimate(np.array([1.0 + 0j]))
        with pytest.raises(DegenerateSample):
            kurtosis_estimate(np.zeros(8, dtype=complex))


class TestDebiasedPower:
    def test_clamp_active(self):
        assert debiased_power(0.03, 1.0 / 0.04) == 0.0

    def test_exact_cancellation(self):
        assert debiased_power(1.04, 25.0) == pytest.approx(1.0)

    def test_rejects_bad_quadratic(self):
        with pytest.raises(DomainError, match=r"a\^H Q\^\(-1\) a must be positive"):
            debiased_power(1.0, 0.0)


class TestNegativeLogLikelihood:
    def _instance(self, rng, m=4, t=32, gamma=None):
        q = random_hpd(rng, m)
        a = random_cvector(rng, m)
        if gamma is None:
            gamma = float(10.0 ** rng.uniform(-1.5, 1.0))
        model = cov_model_from_parts(a, gamma, q)
        batch = synth_snapshots(
            model, WaveformKind.CIRCULAR_GAUSSIAN, t, TrialRngs(int(rng.integers(1 << 30)), 0)
        )
        return q, a, gamma, scm(batch), t

    def test_gamma_zero_reference_value(self):
        rng = np.random.default_rng(5)
        q, a, _gamma, sample_cov, _t = self._instance(rng)
        got = nll_profile(q, sample_cov, a)(0.0)
        qinv = np.linalg.inv(q)
        ref = np.trace(qinv @ sample_cov.matrix).real + np.linalg.slogdet(q)[1]
        assert got == pytest.approx(ref, rel=1e-10)

    def test_matches_direct_formula_at_random_gamma(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            q, a, gamma, sample_cov, _t = self._instance(rng)
            sigma = q + gamma * np.outer(a, a.conj())
            ref = (
                np.trace(np.linalg.inv(sigma) @ sample_cov.matrix).real
                + np.linalg.slogdet(sigma)[1]
            )
            assert nll_profile(q, sample_cov, a)(gamma) == pytest.approx(
                ref, rel=1e-9
            )

    def test_unimodal_on_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            q, a, _gamma, sample_cov, _t = self._instance(rng)
            profile = nll_profile(q, sample_cov, a)
            grid = np.linspace(0.0, 10.0, 2000)
            values = profile(grid)
            increasing = np.diff(values) > 0
            # once the profile starts increasing it never decreases again
            first_up = np.argmax(increasing) if increasing.any() else len(increasing)
            assert np.all(increasing[first_up:])

    def test_grid_minimizer_matches_debiased(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            q, a, _gamma, sample_cov, _t = self._instance(rng)
            profile = nll_profile(q, sample_cov, a)
            qinv_a = solve_hpd(q, a)
            quad = float(np.vdot(a, qinv_a).real)
            w_cap = qinv_a / quad
            gamma_cap_hat = quadratic_form(sample_cov.matrix, w_cap)
            deb = debiased_power(gamma_cap_hat, quad)
            assert profile.minimizer() == pytest.approx(deb, rel=1e-10, abs=1e-12)
            grid = np.concatenate(
                [[0.0], np.geomspace(max(gamma_cap_hat, 1e-12) * 1e-6,
                                     10.0 * max(gamma_cap_hat, 1e-12), 9999)]
            )
            j = int(np.argmin(profile(grid)))
            lo = grid[max(j - 1, 0)]
            hi = grid[min(j + 1, grid.size - 1)]
            assert lo <= deb <= hi or abs(grid[j] - deb) <= hi - lo

    @settings(derandomize=True, database=None, deadline=None)
    @given(m=st.integers(2, 64), extra=st.integers(1, 192), seed=st.integers(0, 2**32 - 1),
           log_power=st.floats(-6.0, 9.0), log_snr=st.floats(-3.0, 3.0),
           log_jitter=st.floats(-4.0, 0.0))
    def test_grid_minimizer_matches_debiased_over_scales(self, m, extra, seed, log_power,
                                                         log_snr, log_jitter):
        """The profile's minimizer is the debiased Capon estimate for any M, any
        T > M, INCM scales and SOI powers from 1e-6 to 1e9, and INCM
        conditioning up to ~1e6, within ``10 cond(Q) eps (gamma_cap_hat + 1/q)``:
        both sides subtract ``1/q`` from ``r/q^2``, each with ``Q^-1 a`` solved
        to ``cond(Q) eps``."""
        rng = np.random.default_rng(seed)
        power = 10.0**log_power
        q_mat = power * random_hpd(rng, m, jitter=10.0**log_jitter)
        a = random_cvector(rng, m)
        model = cov_model_from_parts(a, power * 10.0**log_snr, q_mat)
        batch = synth_snapshots(model, WaveformKind.CIRCULAR_GAUSSIAN, m + extra,
                                TrialRngs(seed, 0))
        sample_cov = scm(batch)
        qinv_a = solve_hpd(q_mat, a)
        quad = float(np.vdot(a, qinv_a).real)
        gamma_cap_hat = quadratic_form(sample_cov.matrix, qinv_a / quad)
        deb = debiased_power(gamma_cap_hat, quad)
        bound = 10.0 * np.linalg.cond(q_mat) * np.finfo(float).eps * (gamma_cap_hat + 1.0 / quad)
        assert abs(nll_profile(q_mat, sample_cov, a).minimizer() - deb) <= bound


class TestAlphaHatScenarioA:
    """Known INCM: the numerator is the debiased power estimate."""

    def test_zero_debiased_gives_zero(self):
        assert alpha_hat(1.0, 2.0, 0.0, 60) == 0.0

    def test_population_plug_in_recovers_gaussian_optimum(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            _geom, _scene, model = random_model(rng)
            t = int(rng.integers(1, 200))
            rep = theory_report(model, t)
            got = alpha_hat(rep.gamma_cap, 2.0 * rep.gamma_cap**2, model.gamma, t)
            assert got == pytest.approx(rep.alpha_o, rel=1e-12)

    def test_frozen_reference_value(self):
        got = alpha_hat(1.04, 2.0 * 1.04**2, 1.0, 60)
        assert got == pytest.approx(0.945776, abs=5e-7)

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominator):
            alpha_hat(0.0, 0.0, 0.0, 1)
        with pytest.raises(DomainError):
            alpha_hat(-1.0, 1.0, 1.0, 10)


class TestAlphaHatScenarioB:
    """Known SOI power, adaptive weights: the numerator is the known power."""

    def test_oracle_plug_in(self):
        rng = np.random.default_rng(10)
        _geom, _scene, model = random_model(rng)
        t = 60
        rep = theory_report(model, t)
        got = alpha_hat(rep.gamma_cap, 2.0 * rep.gamma_cap**2, model.gamma, t)
        assert got == pytest.approx(rep.alpha_o, rel=1e-12)

    def test_zero_known_power(self):
        assert alpha_hat(1.0, 2.0, 0.0, 60) == 0.0

    def test_mc_mean_near_optimum(self):
        # M = 25, T = 500, SNR 0 dB, Gaussian; the plug-in concentrates near alpha_o
        from caponplus.montecarlo import DEFAULT_GEOMETRY, scene_from_db

        scene = scene_from_db(0.0)
        model = build_cov_model(DEFAULT_GEOMETRY, scene)
        t = 500
        rep = theory_report(model, t)
        alphas = []
        for trial in range(150):
            batch = synth_snapshots(model, WaveformKind.CIRCULAR_GAUSSIAN, t, TrialRngs(5, trial))
            cov = scm(batch)
            _w, gamma_hathat = adaptive_capon_weights(cov.matrix, model.a)
            m4 = output_moments(apply_weights(_w, batch))[1]
            alphas.append(alpha_hat(gamma_hathat, m4, model.gamma, t))
        assert np.mean(alphas) == pytest.approx(rep.alpha_o, rel=0.05)


class TestDebiasedPowerScaled:
    def test_correction_factor(self):
        # T0 = 50, M = 25  =>  c = 2
        got = debiased_power_scaled(1.0, 10.0, 50, 25)
        assert got == pytest.approx(1.0 - 2.0 / 10.0)

    def test_large_t0_recovers_debiased(self):
        plain = debiased_power(1.0, 10.0)
        scaled = debiased_power_scaled(1.0, 10.0, 10**9, 25)
        assert scaled == pytest.approx(plain, rel=1e-6)

    def test_insufficient_secondary_samples(self):
        with pytest.raises(DomainError, match="need T0 > M secondary snapshots"):
            debiased_power_scaled(1.0, 10.0, 25, 25)

    def test_inverse_wishart_scaling_mc(self):
        # E[a^H Qhat^{-1} a] = T0/(T0-M) a^H Q^{-1} a for Gaussian secondary data
        m, t0, trials = 4, 16, 10**5
        rng = np.random.default_rng(11)
        q = random_hpd(rng, m)
        a = random_cvector(rng, m)
        lower = cholesky(q)
        quad_true = float(np.vdot(a, solve_hpd(q, a)).real)
        acc = 0.0
        chunk = 20000
        for start in range(0, trials, chunk):
            n = min(chunk, trials - start)
            z = (rng.standard_normal((n, t0, m)) + 1j * rng.standard_normal((n, t0, m)))
            z /= np.sqrt(2.0)
            x = z @ lower.T
            qhat = np.einsum("nta,ntb->nab", x, x.conj()) / t0
            sols = np.linalg.solve(qhat, np.broadcast_to(a, (n, m))[..., None])[..., 0]
            acc += float(np.sum(np.einsum("a,na->n", a.conj(), sols).real))
        ratio = acc / trials / quad_true
        assert ratio == pytest.approx(t0 / (t0 - m), rel=0.02)
