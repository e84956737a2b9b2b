"""The package's public surface: the top-level names and each submodule's ``__all__``."""

import importlib
import pkgutil

import caponplus

TOP_LEVEL = [
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


def test_top_level_all_is_the_agreed_list():
    assert caponplus.__all__ == TOP_LEVEL


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from caponplus import *", namespace)
    assert [name for name in TOP_LEVEL if name not in namespace] == []


def test_every_submodule_all_entry_resolves():
    stale = []
    for info in pkgutil.iter_modules(caponplus.__path__):
        module = importlib.import_module(f"caponplus.{info.name}")
        stale += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    assert stale == []
