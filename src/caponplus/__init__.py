"""Capon, MMSE and shrinkage-corrected Capon+ beamformers with their
bias/variance/MSE theory, and a reproducible Monte-Carlo harness for signal
power estimation experiments."""

from ._version import __version__
from .arraymodel import (
    ArrayGeometry,
    CovarianceModel,
    SourceScene,
    SourceSpec,
    TheoryReport,
    alpha_from_kurtosis,
    bias_theory,
    build_cov_model,
    build_incm,
    capon_bias,
    capon_output_power,
    cov_model_from_parts,
    power_variance_gaussian,
    single_interferer_bias,
    steering_vector,
    theory_report,
    waveform_mse_theory,
)
from .beamformers import (
    adaptive_capon_weights,
    apply_weights,
    capon_plus_weights,
    capon_weights,
    cb_weights,
    mmse_weights,
)
from .errors import (
    CaponPlusError,
    ConfigError,
    DegenerateDenominator,
    DegenerateSample,
    DimensionMismatch,
    DomainError,
    InsufficientSecondarySamples,
    InsufficientTrials,
    NonPositiveQuadraticForm,
    NotPositiveDefinite,
    ParseError,
    TrialFailureError,
    ValidationError,
)
from .estimation import (
    SampleCovariance,
    alpha_hat,
    debiased_power,
    debiased_power_scaled,
    kurtosis_estimate,
    negative_log_likelihood,
    output_moments,
    scm,
)
from .linalg import (
    CholeskyFactor,
    cholesky,
    hermitian_matrix,
    quadratic_form,
    rank1_update_inverse,
    solve_hpd,
)
from .metrics import AggregateRecord, TrialRecord, aggregate, trial_records
from .montecarlo import (
    PskAlphaMode,
    Regime,
    ScenarioConfig,
    ScenarioReport,
    SweepSpec,
    SweepVariable,
    run_scenario,
    run_trial,
    scene_from_db,
    snr_to_scene,
)
from .signalsim import (
    RngStream,
    SnapshotBatch,
    StreamRole,
    TrialRngs,
    WaveformKind,
    draw_interference_noise,
    draw_waveform,
    synth_scene_secondary,
    synth_scene_snapshots,
    synth_secondary,
    synth_snapshots,
)

__all__ = [name for name in dir() if not name.startswith("_")]
