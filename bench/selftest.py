"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

They run each workload at the smallest trial count the CLI accepts, so the
whole file takes about a minute on two cores.
"""

import csv
import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY_TRIALS = 100
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


@pytest.fixture
def tiny(monkeypatch):
    """Every workload at TINY_TRIALS, one repeat, a short micro table."""
    for name, wl in run.WORKLOADS.items():
        monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(wl, trials=TINY_TRIALS))
    monkeypatch.setattr(run, "MIN_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_TRACE_ROUNDS", 1)
    monkeypatch.setattr(run, "MICRO_BUDGET_S", 0.01)


def _smoke(name: str) -> dict:
    wl = run.WORKLOADS[name]
    return run.Runner(time.monotonic() + 120).run_workload(
        wl, 7, f"smoke-{name}", threads=wl.threads, trials=TINY_TRIALS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_smoke_run_passes_checker(out_dir, name):
    res = _smoke(name)
    wl = run.WORKLOADS[name]
    assert res["attempted"] == TINY_TRIALS * len(wl.points)
    assert res["failed"] == 0
    assert res["t_spawn"] < res["t_setup"] <= res["t_main"] < res["t_end"] < res["t_exit"]


def _set(rows, point, method, column, value):
    for row in rows:
        if float(row["sweep_value"]) == point and row["method"] == method:
            row[column] = value
    return rows


TAMPERS = {
    "missing_row": lambda rows: rows[1:],
    "duplicate_row": lambda rows: rows + rows[:1],
    "non_finite": lambda rows: _set(rows, -4.0, "MMSE", "mean_sp_nmse", "nan"),
    "trial_count": lambda rows: _set(rows, 0.0, "CB", "n_trials", str(TINY_TRIALS - 1)),
    "unreadable": lambda rows: _set(rows, 0.0, "Capon", "stderr_rel_bias", "x"),
    "off_theory": lambda rows: _set(rows, -2.0, "CaponPlus", "mean_rel_bias", "0.25"),
}


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_checker_rejects_tampered_results(out_dir, tamper):
    wl = run.WORKLOADS["oracle_gauss"]
    _smoke(wl.name)
    with open(out_dir / f"smoke-{wl.name}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert run.check_results(wl, rows, TINY_TRIALS, wl.points)[1] == []
    bad = TAMPERS[tamper]([dict(r) for r in rows])
    path = out_dir / "tampered.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(bad)
    assert run.check_results(wl, run.read_results(path), TINY_TRIALS, wl.points)[1]


def test_t0_check_rejects_wrong_values():
    rows = {(t0, "Capon"): {"mean_rel_bias": 0.0, "stderr_rel_bias": 0.001}
            for t0 in run.T0_CAPON_TARGETS}
    assert len(run.check_t0_targets(rows)) == 2


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["parent", 0, 100, -1, 0],
        ["child", 10, 30, 0, 5],
        ["child", 20, 50, 0, 5],
        ["grandchild", 21, 22, 2, 0],
    ]
    stats = run.layer_stats(spans)
    assert stats["parent"].self_ns == 60
    assert stats["child"].calls == 2 and stats["child"].work == 10
    assert stats["child"].self_ns == 20 + 29


def test_metric_names_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(run.PER_LAYER_UNITS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(out_dir, tiny, capsys, trace):
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert run.main(["--workload", "all", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("{")]
    assert len(lines) == len(run.WORKLOADS)
    for line in lines:
        result = json.loads(line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: m["unit"] for k, m in result["metrics"].items()} == want
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "oracle_gauss",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
