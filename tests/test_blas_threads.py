"""The package runs BLAS on one thread unless the caller chose a count.

Each policy check runs in a fresh process, since OpenBLAS reads its thread
variables once, when it loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import caponplus
from caponplus import cli, linalg, montecarlo
from caponplus.presets import PRESETS

pytestmark = pytest.mark.skipif(
    len(linalg.blas_threads()) < 2,
    reason="numpy's and scipy's OpenBLAS of the scipy_openblas layout not both found")


def _fresh(code: str, **env: str):
    """``literal_eval`` of what ``code`` prints in a fresh interpreter that
    sees the package, with none of the BLAS thread variables but ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in linalg.BLAS_THREAD_VARIABLES}
    paths = [str(Path(caponplus.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    base["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    done = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout)


def test_import_loads_both_copies_on_one_thread_and_restores_the_environment():
    code = ("import os, caponplus\n"
            "from caponplus import linalg\n"
            "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1\n"
            "print((linalg.blas_threads(), 'OPENBLAS_NUM_THREADS' in os.environ, tasks))\n")
    counts, left_in_environ, tasks = _fresh(code)
    assert counts == (1, 1)
    assert not left_in_environ
    # OpenBLAS started no helper thread that would spin at load.
    assert tasks == 1


@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                      "OMP_NUM_THREADS"])
def test_a_caller_who_sets_a_variable_keeps_its_count(variable):
    """The copies load on the count the caller set, and a serial run keeps it."""
    code = ("import os\n"
            "from caponplus import cli, linalg, montecarlo\n"
            "from caponplus.presets import PRESETS\n"
            "at_load = linalg.blas_threads()\n"
            "cfg = cli.build_run_config({**PRESETS['fig6'], 'trials': 100}).scenario\n"
            "seen = []\n"
            "montecarlo._run_chunk = lambda run, item, chunk=montecarlo._run_chunk: ("
            "seen.append(linalg.blas_threads()), chunk(run, item))[1]\n"
            "montecarlo.run_scenario(cfg, threads=1)\n"
            f"print((at_load, seen[0], linalg.pin_blas_threads(), os.environ[{variable!r}]))\n")
    at_load, during_run, pinned, value = _fresh(code, **{variable: "2"})
    assert at_load == during_run == (2, 2)
    assert pinned == ()
    assert value == "2"


def test_numpy_first_workers_run_one_thread_and_the_serial_run_restores_the_caller(tmp_path):
    """Where numpy loaded before the package, the environment variable cannot
    reach its OpenBLAS: ``run_scenario`` sets one thread before it forks its
    workers and around its serial loop, and then gives the caller its counts
    back.  A worker starts no OpenBLAS helper thread."""
    code = ("import numpy, os\n"
            "from caponplus import cli, linalg, montecarlo\n"
            "from caponplus.presets import PRESETS\n"
            "linalg.set_blas_threads((2, 2))\n"
            "montecarlo._usable_cpus = lambda: 2\n"
            "chunk = montecarlo._run_chunk\n"
            "def traced(run, item):\n"
            f"    with open(os.path.join({str(tmp_path)!r}, str(os.getpid())), 'a') as f:\n"
            "        tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1\n"
            "        f.write(repr((linalg.blas_threads(), tasks)) + '\\n')\n"
            "    return chunk(run, item)\n"
            "montecarlo._run_chunk = traced\n"
            "cfg = cli.build_run_config({**PRESETS['fig6'], 'trials': 100}).scenario\n"
            "two = montecarlo.run_scenario(cfg, threads=2)\n"
            "after_pool = linalg.blas_threads()\n"
            "one = montecarlo.run_scenario(cfg, threads=1)\n"
            "print((os.getpid(), after_pool, linalg.blas_threads(), two.points == one.points))\n")
    pid, after_pool, after_serial, same_points = _fresh(code)
    seen = {int(p.name): {ast.literal_eval(line) for line in p.read_text().splitlines()}
            for p in tmp_path.iterdir()}
    workers = {k: v for k, v in seen.items() if k != pid}
    # A fast worker may take every chunk before the other starts.
    assert 1 <= len(workers) <= 2
    assert all(lines == {((1, 1), 1)} for lines in workers.values())
    assert {counts for counts, _ in seen[pid]} == {(1, 1)}
    assert after_pool == after_serial == (2, 2)
    assert same_points


@pytest.mark.parametrize("found", ["no symbol", "no library"])
def test_the_helper_does_nothing_where_the_lookup_finds_nothing(monkeypatch, found):
    def cdll(path):
        if found == "no library":
            raise OSError(path)
        return object()

    counts = linalg.blas_threads()
    cfg = cli.build_run_config({**PRESETS["fig6"], "trials": 100}).scenario
    reference = montecarlo.run_scenario(cfg).points
    with monkeypatch.context() as patch:
        patch.setattr(linalg.ctypes, "CDLL", cdll)
        copies = linalg._openblas_copies()
        patch.setattr(linalg, "_OPENBLAS", copies)
        assert copies == []
        assert linalg.blas_threads() == ()
        assert linalg.set_blas_threads((3, 3)) == ()
        assert linalg.pin_blas_threads() == ()
        assert montecarlo.run_scenario(cfg).points == reference
    assert linalg.blas_threads() == counts
