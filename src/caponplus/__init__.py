"""Capon, MMSE and shrinkage-corrected Capon+ beamformers with their
bias/variance/MSE theory, and a reproducible Monte-Carlo harness for signal
power estimation experiments.

The top level holds what a script needs to run a scenario; the formulas
and kernels live in the submodules (``arraymodel``, ``beamformers``,
``estimation``, ``linalg``, ``metrics``, ``montecarlo``, ``signalsim``).
"""

from ._version import __version__
from .arraymodel import ArrayGeometry, WaveformKind, build_cov_model, theory_report
from .errors import CaponPlusError
from .montecarlo import (
    PskAlphaMode,
    Regime,
    ScenarioConfig,
    SweepSpec,
    SweepVariable,
    run_scenario,
    scene_from_db,
)

__all__ = [
    "__version__",
    "ArrayGeometry",
    "build_cov_model",
    "theory_report",
    "CaponPlusError",
    "PskAlphaMode",
    "Regime",
    "ScenarioConfig",
    "SweepSpec",
    "SweepVariable",
    "run_scenario",
    "scene_from_db",
    "WaveformKind",
]
