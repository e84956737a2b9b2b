"""The package's public surface: the top-level names and each submodule's ``__all__``."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

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


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but neither reads nor lists in ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    unused = {}
    for path in sorted(Path(caponplus.__file__).parent.glob("*.py")):
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[path.name] = names
    assert unused == {}


def test_cli_import_loads_no_third_party_package_but_numpy_and_scipy():
    """A fresh ``import caponplus.cli`` loads only the standard library,
    numpy, scipy and the package itself, so ``pyproject.toml``'s runtime
    dependencies can stay numpy and scipy."""
    code = ("import sys; before = set(sys.modules); import caponplus.cli; "
            "print(*{name.partition('.')[0] for name in set(sys.modules) - before})")
    paths = [str(Path(caponplus.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True).stdout.split())
    assert {"caponplus", "numpy", "scipy"} <= loaded
    others = loaded - set(sys.stdlib_module_names) - {"caponplus", "numpy", "scipy"}
    # What is left and ships in no distribution is made at run time, such
    # as Cython's shared-type modules and the platform's _sysconfigdata.
    assert others & set(packages_distributions()) == set()


def test_benchmark_tracer_finds_every_name_it_wraps():
    """``bench/child.py``'s ``install_tracer`` looks each function it traces
    up by name where its caller binds it (``montecarlo.scm``,
    ``montecarlo.apply_weights``, ``beamformers.cholesky``, ...).  In a fresh
    process it must install, and one traced trial of every regime (fig1:
    oracle, fig3: a, fig4c: b, fig5: c, fig6: d) must run, so a change that
    drops or renames such a binding, or hands a traced function what its
    work function cannot read, fails here and not only in the traced
    benchmark smoke."""
    code = ("import child; child.install_tracer()\n"
            "from caponplus import cli, montecarlo\n"
            "from caponplus.presets import PRESETS\n"
            "for preset in ('fig1', 'fig3', 'fig4c', 'fig5', 'fig6'):\n"
            "    cfg = cli.build_run_config({**PRESETS[preset], 'trials': 100}).scenario\n"
            "    montecarlo.run_trial(cfg, cfg.sweep.values[0], 0)\n")
    root = Path(caponplus.__file__).parents[2]
    paths = [str(root / "bench"), str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr


def test_benchmark_tracer_sees_one_trial_span_per_pair_in_a_chunk():
    """``bench/run.py`` fails a traced run unless it sees one
    ``montecarlo.run_trial`` span per (point, trial) pair, and counts a
    layer's spans only inside those.  A chunk runs its trials in blocks, each
    computed inside the span of its first pair: in a fresh process under
    ``install_tracer``, a chunk of 11 trials of fig1 (oracle) and of fig3
    (regime a), whose blocks hold up to eight trials, and of fig4c (regime b)
    and fig6 (regime d), whose blocks hold one, still makes one such span per
    pair.  Each trial's three primary streams are built once in the
    fixed-weight regimes, and every stream, SCM, Cholesky factor and batch
    is made inside a ``run_trial`` span."""
    code = ("import json, child\n"
            "tracer = child.install_tracer()\n"
            "from caponplus import cli, montecarlo\n"
            "from caponplus.presets import PRESETS\n"
            "seen = {}\n"
            "for preset in ('fig1', 'fig3', 'fig4c', 'fig6'):\n"
            "    cfg = cli.build_run_config({**PRESETS[preset], 'trials': 100}).scenario\n"
            "    run = (cfg, cfg.sweep.values, montecarlo._build_contexts(cfg))\n"
            "    first = len(tracer.spans)\n"
            "    montecarlo._run_chunk(run, (0, 11))\n"
            "    seen[preset] = [len(run[1]), first, len(tracer.spans)]\n"
            "print(json.dumps([seen, tracer.spans]))\n")
    root = Path(caponplus.__file__).parents[2]
    paths = [str(root / "bench"), str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    seen, spans = json.loads(done.stdout)
    inside = ("signalsim.rng_stream", "estimation.scm", "linalg.cholesky",
              "signalsim.synth_scene_snapshots", "signalsim.synth_scene_secondary")
    for preset, (n_points, first, last) in seen.items():
        chunk = spans[first:last]
        names = [span[0] for span in chunk]
        assert names.count("montecarlo.run_trial") == 11 * n_points, preset
        if preset in ("fig1", "fig3"):
            assert names.count("signalsim.rng_stream") == 3 * 11, preset
        else:
            assert names.count("estimation.scm") == 11 * n_points, preset
        for span in chunk:
            if span[0] in inside:
                parent = span[3]
                while parent >= 0 and spans[parent][0] != "montecarlo.run_trial":
                    parent = spans[parent][3]
                assert parent >= 0, (preset, span)
