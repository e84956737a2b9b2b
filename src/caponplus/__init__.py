"""Capon, MMSE and shrinkage-corrected Capon+ beamformers with their
bias/variance/MSE theory, and a reproducible Monte-Carlo harness for signal
power estimation experiments.

The top level holds what a script needs to run a scenario; the formulas
and kernels live in the submodules (``arraymodel``, ``beamformers``,
``estimation``, ``linalg``, ``metrics``, ``montecarlo``, ``signalsim``).

BLAS runs on one thread.  A trial makes many small products (``M = 25``
antennas, at most a few hundred snapshots), on which more OpenBLAS threads
only spin.  Importing the package loads numpy's and scipy's OpenBLAS with
``OPENBLAS_NUM_THREADS=1``, which it removes from ``os.environ`` again once
they are loaded, so subprocesses do not inherit it.  Where numpy was imported
first, its library is already loaded, so :func:`run_scenario` also sets both
copies to one thread for its trials, before it forks any worker process, and
restores the caller's counts at its end.  A caller who wants other
counts sets ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS`` (``linalg.BLAS_THREAD_VARIABLES``) before the import;
the package then leaves every count as that variable sets it.
"""

import os

# One BLAS thread at load unless the caller chose a count (see above).  The
# names are those of linalg.BLAS_THREAD_VARIABLES, which loads numpy.
_pin_at_load = not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                    "OMP_NUM_THREADS"} & os.environ.keys()
if _pin_at_load:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
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
finally:
    if _pin_at_load:
        del os.environ["OPENBLAS_NUM_THREADS"]

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
