"""caponplus benchmark: `caponplus run` workloads measured from outside.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each repeat of a workload is one fresh ``python3 bench/child.py`` process
that imports ``caponplus``, builds the run config and calls
``caponplus.cli.main(["run", cfg, "--seed", N, "--threads", T])``.  Repeats
run one after another while the next one still fits in ``--seconds`` (at
least ``MIN_REPEATS``); every metric is the median over the repeats.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: spans recorded around each module's public functions in
a threads-1 pass, the direct-call micro table, the tracing overhead, the
speed-up of the pool over one thread and the CPU per wall second of a
threads-1 run.

Every results file is checked (see ``check_results``); a failed check makes
the command print ``"correct": false`` and exit with status 1.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A results file describing the
machine, the checks and every raw sample is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_REPEATS = 3
MIN_TRACE_ROUNDS = 2
RUN_DEADLINE_S = 170.0
MICRO_BUDGET_S = 0.25

# Sample size of the byte-identity check of secondary_t0_par across --threads.
IDENTITY_TRIALS = 100
IDENTITY_T0 = (30.0, 120.0)

MC_METHODS = ("CB", "Capon", "MMSE", "CaponPlus")
THEORY_Z = 5.0
# Criterion-7 reference values of the Capon relative bias (scenario c/d, -5 dB).
T0_CAPON_TARGETS = {30.0: 0.6461, 120.0: 0.1600}
T0_TARGET_RTOL = 0.10
T0_TARGET_Z = 3.0


def check_oracle_theory(rows: dict) -> list[str]:
    """MC means of CB/Capon/MMSE/CaponPlus lie within 5 stderr of their theory rows.

    ``mean_se_nmse`` is left out: its MC mean sits about 5 sigma above the
    closed form at 3000 trials per point, the ~1/T bias of the per-trial
    ratio estimator.
    """
    failures = []
    for (point, method), row in rows.items():
        if method not in MC_METHODS:
            continue
        theory = rows[(point, method + "Theory")]
        for metric in ("rel_bias", "sp_nmse"):
            mc, ref = row["mean_" + metric], theory["mean_" + metric]
            if abs(mc - ref) > THEORY_Z * row["stderr_" + metric]:
                failures.append(
                    f"{method} mean_{metric} at {point}: {mc:.6g} is more than "
                    f"{THEORY_Z} stderr from theory {ref:.6g}")
    return failures


def check_t0_targets(rows: dict) -> list[str]:
    """Capon rel. bias at T0 = 30 / 120 matches the criterion-7 reference values."""
    failures = []
    for t0, target in T0_CAPON_TARGETS.items():
        row = rows[(t0, "Capon")]
        tol = max(T0_TARGET_RTOL * abs(target), T0_TARGET_Z * row["stderr_rel_bias"])
        if abs(row["mean_rel_bias"] - target) > tol:
            failures.append(
                f"Capon rel. bias at T0={t0:g}: {row['mean_rel_bias']:.5g}, "
                f"target {target} +- {tol:.3g}")
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    trials: int
    threads: int
    points: tuple[float, ...]
    methods: tuple[str, ...]
    check: Callable[[dict], list[str]]
    overrides: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="oracle_gauss",
            why="oracle weights, Gaussian, T=60, --threads 2: RNG streams, synthesis "
                "and records; no per-trial SCM or Cholesky",
            preset="fig1",
            trials=1800,
            threads=2,
            points=(0.0, -2.0, -4.0, -6.0, -8.5),
            methods=MC_METHODS + tuple(m + "Theory" for m in MC_METHODS),
            check=check_oracle_theory,
            overrides={"emit_theory": True},
        ),
        Workload(
            name="secondary_t0_par",
            why="regime d, 8-PSK, T0 sweep 30..120 near M, --threads 2: one SCM and "
                "one Cholesky per trial on secondary data",
            preset="fig6",
            trials=300,
            threads=2,
            points=(30.0, 35.0, 40.0, 45.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0,
                    110.0, 120.0),
            methods=("Capon", "MMSE", "CaponPlus", "Debiased"),
            check=check_t0_targets,
        ),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------- processes


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Imports then read cached bytecode after the first run, as a user's would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Runner:
    """Starts child processes one at a time, each bounded by the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = _child_env()

    def spawn(self, tag: str, spec: dict) -> dict:
        spec = {**spec, "result": str(OUT / f"{tag}.result.json")}
        spec_path = OUT / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise CheckFailed(f"{tag}: no time left before the run's deadline")
        with open(OUT / f"{tag}.log", "wb") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
                cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True)
            timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t_exit = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = (OUT / f"{tag}.log").read_text(errors="replace")[-2000:]
            raise CheckFailed(f"{tag}: child exited with {proc.returncode}\n{tail}")
        result = json.loads(Path(spec["result"]).read_text())
        result.update(
            t_spawn=t_spawn,
            t_exit=t_exit,
            cpu_s=usage.ru_utime + usage.ru_stime,
            # ru_maxrss is in KiB on Linux; wait4 reports the largest of the
            # process and its reaped descendants.
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )
        return result

    def run_workload(self, wl: Workload, seed: int, tag: str, *, threads: int,
                     trace: str = "none", trials: int | None = None,
                     overrides: dict | None = None) -> dict:
        """One fresh ``cli.main`` run of the workload; its results file is checked."""
        trials = trials or wl.trials
        out = OUT / f"{tag}.csv"
        overrides = {**wl.overrides, **(overrides or {}), "trials": trials}
        res = self.spawn(tag, {
            "mode": "run", "preset": wl.preset, "overrides": overrides, "seed": seed,
            "threads": threads, "trace": trace, "cfg": str(OUT / f"{tag}.cfg.json"),
            "out": str(out), "spans": str(OUT / f"{tag}.spans.json"),
        })
        if res["rc"] != 0:
            raise CheckFailed(f"{tag}: caponplus exited with status {res['rc']}")
        points = tuple(overrides["sweep"]["values"]) if "sweep" in overrides else wl.points
        rows, failures = check_results(wl, read_results(out), trials, points)
        if failures:
            raise CheckFailed(f"{tag}: " + "; ".join(failures))
        res.update(
            sha256=hashlib.sha256(out.read_bytes()).hexdigest(),
            attempted=trials * len(points),
            failed=sum(rows[(p, wl.methods[0])]["n_failed"] for p in points),
            main_s=res["t_end"] - res["t_main"],
        )
        return res


# ------------------------------------------------------------------ checks


FLOAT_COLUMNS = ("sweep_value", "mean_rel_bias", "stderr_rel_bias", "mean_se_nmse",
                 "stderr_se_nmse", "mean_sp_nmse", "stderr_sp_nmse")


def read_results(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_results(wl: Workload, raw_rows: list[dict], trials: int,
                  points: tuple[float, ...]) -> tuple[dict, list[str]]:
    """Every (point, method) row present once and finite, counts add up, then
    the workload's own statistical check.

    Returns the rows keyed by ``(sweep_value, method)`` and the failures found.
    """
    failures = []
    rows = {}
    for raw in raw_rows:
        try:
            row = {c: float(raw[c]) for c in FLOAT_COLUMNS}
            row.update(n_trials=int(raw["n_trials"]), n_failed=int(raw["n_failed"]))
        except (KeyError, TypeError, ValueError) as exc:
            failures.append(f"unreadable row {raw}: {exc!r}")
            continue
        key = (row["sweep_value"], raw["method"])
        if key in rows:
            failures.append(f"duplicate row {key}")
        if not all(math.isfinite(row[c]) for c in FLOAT_COLUMNS):
            failures.append(f"non-finite value in row {key}")
        expected = 0 if raw["method"].endswith("Theory") else trials
        if row["n_trials"] + (row["n_failed"] if expected else 0) != expected:
            failures.append(f"row {key}: n_trials {row['n_trials']} + n_failed "
                            f"{row['n_failed']} != {expected}")
        rows[key] = row
    want = {(p, m) for p in points for m in wl.methods}
    if set(rows) != want:
        failures.append(f"missing rows {sorted(want - set(rows))}, "
                        f"unexpected rows {sorted(set(rows) - want)}")
    if not failures and set(points) == set(wl.points):
        failures.extend(wl.check(rows))
    return rows, failures


# --------------------------------------------------------------- measuring


def _median(values) -> float:
    return float(statistics.median(values))


def check_thread_identity(runner: Runner, seed: int) -> dict:
    """secondary_t0_par at reduced trials writes the same bytes for 1 and 2 threads."""
    wl = WORKLOADS["secondary_t0_par"]
    overrides = {"sweep": {"variable": "t0", "values": list(IDENTITY_T0)}}
    shas = {
        threads: runner.run_workload(wl, seed, f"identity-t{threads}", threads=threads,
                                     trials=IDENTITY_TRIALS, overrides=overrides)["sha256"]
        for threads in (1, 2)
    }
    if shas[1] != shas[2]:
        raise CheckFailed(f"secondary_t0_par report differs across --threads: {shas}")
    return {"trials": IDENTITY_TRIALS, "t0": list(IDENTITY_T0), "sha256": shas[1]}


def _repeat(seconds: float, minimum: int, body) -> list:
    """Call ``body(i)`` at least ``minimum`` times, then while another call,
    as long as the longest so far, still ends within ``seconds``."""
    out = []
    start = time.monotonic()
    longest = 0.0
    while len(out) < minimum or time.monotonic() - start + longest <= seconds:
        t0 = time.monotonic()
        out.append(body(len(out)))
        longest = max(longest, time.monotonic() - t0)
    return out


def _same_results(runs: list[dict]) -> str:
    shas = {r["sha256"] for r in runs}
    if len(shas) != 1:
        raise CheckFailed(f"repeats with one seed wrote different results: {sorted(shas)}")
    return shas.pop()


def measure_end_to_end(runner: Runner, wl: Workload, seed: int, seconds: float) -> dict:
    runs = _repeat(seconds, MIN_REPEATS, lambda i: runner.run_workload(
        wl, seed, f"{wl.name}-r{i}", threads=wl.threads))
    samples = {
        "setup_s": [r["t_setup"] - r["t_spawn"] for r in runs],
        "wall_s": [r["t_exit"] - r["t_spawn"] for r in runs],
        "trials_per_s": [r["attempted"] / r["main_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    return {
        "metrics": {k: {"value": _median(v), "unit": END_TO_END_UNITS[k]}
                    for k, v in samples.items()},
        "samples": samples,
        "runs": runs,
        "results_sha256": _same_results(runs),
    }


PER_LAYER_UNITS = {
    "signalsim.synth_scene_snapshots.us": "us",
    "signalsim.synth_scene_secondary.us": "us",
    "signalsim.rng_stream.us": "us",
    "signalsim.rng_streams_per_trial": "count",
    "linalg.cholesky.us": "us",
    "linalg.cholesky.calls_per_trial": "count",
    "linalg.cholesky.gflops_computed": "GFLOP/s",
    "linalg.solve_chol.us": "us",
    "estimation.scm.us": "us",
    "estimation.scm.calls_per_trial": "count",
    "estimation.scm.gflops_computed": "GFLOP/s",
    "beamformers.adaptive_capon_weights.self_us": "us",
    "beamformers.apply_weights.us": "us",
    "beamformers.apply_weights.calls_per_trial": "count",
    "arraymodel.build_cov_model.us": "us",
    "arraymodel.theory_report.us": "us",
    "montecarlo.build_context.ms": "ms",
    "montecarlo.build_context.calls_per_point": "count",
    "montecarlo.run_trial.us": "us",
    "montecarlo.run_trial.self_us": "us",
    "montecarlo.trial_share": "ratio",
    "montecarlo.parallel_speedup": "ratio",
    "montecarlo.t1_cpu_per_wall": "ratio",
    "metrics.aggregate.us_per_trial": "us",
    "metrics.records_per_trial": "count",
    "cli.build_run_config.ms": "ms",
    "cli.emit_results.ms": "ms",
    "trace.overhead_s": "s",
}
MICRO_NAMES = (
    "linalg.cholesky_m25",
    "estimation.scm_t60",
    "estimation.scm_t200",
    "signalsim.synth_scene_snapshots_gauss_t60",
    "signalsim.synth_scene_snapshots_psk8_t200",
    "signalsim.rng_soi",
    "signalsim.rng_interference",
    "signalsim.rng_noise",
    "signalsim.rng_secondary",
    "montecarlo.run_trial_oracle",
    "montecarlo.run_trial_a",
    "montecarlo.run_trial_b",
    "montecarlo.run_trial_c",
    "montecarlo.run_trial_d",
    "metrics.aggregate_1000_trials",
)
PER_LAYER_UNITS.update({f"micro.{name}.us": "us" for name in MICRO_NAMES})


@dataclass
class LayerStats:
    calls: int = 0
    in_trial_calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    work: float = 0.0


def layer_stats(spans: list[list]) -> dict[str, LayerStats]:
    """Per-name call counts, total and self time, and work, from ``[name, start,
    end, parent, work]`` spans listed parents first."""
    children = defaultdict(list)
    in_trial = [False] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
            in_trial[i] = in_trial[parent] or spans[parent][0] == "montecarlo.run_trial"
    stats: dict[str, LayerStats] = defaultdict(LayerStats)
    for i, (name, start, end, _, work) in enumerate(spans):
        covered, reach = 0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            c_start, c_end = max(spans[c][1], reach), spans[c][2]
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        s = stats[name]
        s.calls += 1
        s.in_trial_calls += in_trial[i]
        s.total_ns += end - start
        s.self_ns += end - start - covered
        s.work += work
    return stats


def layer_metrics(stats: dict[str, LayerStats], attempted: int) -> dict[str, float]:
    def us(name, attr="total_ns"):
        s = stats.get(name, LayerStats())
        return getattr(s, attr) / s.calls / 1e3 if s.calls else 0.0

    def per_trial(name):
        return stats.get(name, LayerStats()).in_trial_calls / attempted

    def gflops(name):
        s = stats.get(name, LayerStats())
        return s.work / s.total_ns if s.total_ns else 0.0

    trial_ns = stats["montecarlo.run_trial"].total_ns
    return {
        "signalsim.synth_scene_snapshots.us": us("signalsim.synth_scene_snapshots"),
        "signalsim.synth_scene_secondary.us": us("signalsim.synth_scene_secondary"),
        "signalsim.rng_stream.us": us("signalsim.rng_stream"),
        "signalsim.rng_streams_per_trial": per_trial("signalsim.rng_stream"),
        "linalg.cholesky.us": us("linalg.cholesky"),
        "linalg.cholesky.calls_per_trial": per_trial("linalg.cholesky"),
        "linalg.cholesky.gflops_computed": gflops("linalg.cholesky"),
        "linalg.solve_chol.us": us("linalg.solve_chol"),
        "estimation.scm.us": us("estimation.scm"),
        "estimation.scm.calls_per_trial": per_trial("estimation.scm"),
        "estimation.scm.gflops_computed": gflops("estimation.scm"),
        "beamformers.adaptive_capon_weights.self_us":
            us("beamformers.adaptive_capon_weights", "self_ns"),
        "beamformers.apply_weights.us": us("beamformers.apply_weights"),
        "beamformers.apply_weights.calls_per_trial": per_trial("beamformers.apply_weights"),
        "arraymodel.build_cov_model.us": us("arraymodel.build_cov_model"),
        "arraymodel.theory_report.us": us("arraymodel.theory_report"),
        "montecarlo.build_context.ms": us("montecarlo.build_context") / 1e3,
        "montecarlo.run_trial.us": us("montecarlo.run_trial"),
        "montecarlo.run_trial.self_us": us("montecarlo.run_trial", "self_ns"),
        "montecarlo.trial_share": trial_ns / stats["cli.main"].total_ns,
        "metrics.aggregate.us_per_trial":
            stats["metrics.aggregate"].total_ns / attempted / 1e3,
        "metrics.records_per_trial": stats["metrics.aggregate"].work / attempted,
        "cli.build_run_config.ms": us("cli.build_run_config") / 1e3,
        "cli.emit_results.ms": us("cli.emit_results") / 1e3,
    }


def measure_layers(runner: Runner, wl: Workload, seed: int, seconds: float) -> dict:
    start = time.monotonic()
    micro = runner.spawn(f"{wl.name}-micro", {
        "mode": "micro", "seed": seed, "budget_s": MICRO_BUDGET_S})["table"]

    def one_round(i: int) -> dict:
        counted = runner.run_workload(wl, seed, f"{wl.name}-count{i}",
                                      threads=wl.threads, trace="count")
        traced = runner.run_workload(wl, seed, f"{wl.name}-trace{i}",
                                     threads=1, trace="spans")
        stats = layer_stats(json.loads((OUT / f"{wl.name}-trace{i}.spans.json").read_text()))
        if stats["montecarlo.run_trial"].calls != traced["attempted"]:
            raise CheckFailed(f"trace saw {stats['montecarlo.run_trial'].calls} "
                              f"trials of {traced['attempted']}")
        untraced = runner.run_workload(wl, seed, f"{wl.name}-t1-{i}", threads=1)
        return {
            "layers": layer_metrics(stats, traced["attempted"]),
            "context_calls_per_point": counted["build_context_calls"] / len(wl.points),
            "traced_main_s": traced["main_s"],
            "t1_main_s": untraced["main_s"],
            "t1_cpu_per_wall": untraced["cpu_s"] / (untraced["t_exit"] - untraced["t_spawn"]),
            "tn_main_s": counted["main_s"],
            "runs": [counted, traced, untraced],
        }

    rounds = _repeat(seconds - (time.monotonic() - start), MIN_TRACE_ROUNDS, one_round)
    metrics = {name: _median(r["layers"][name] for r in rounds)
               for name in rounds[0]["layers"]}
    metrics["montecarlo.build_context.calls_per_point"] = _median(
        r["context_calls_per_point"] for r in rounds)
    t1 = _median(r["t1_main_s"] for r in rounds)
    metrics["montecarlo.parallel_speedup"] = t1 / _median(r["tn_main_s"] for r in rounds)
    metrics["trace.overhead_s"] = _median(r["traced_main_s"] for r in rounds) - t1
    metrics["montecarlo.t1_cpu_per_wall"] = _median(r["t1_cpu_per_wall"] for r in rounds)
    metrics.update({f"micro.{name}.us": micro[name]["us"] for name in MICRO_NAMES})
    runs = [run for r in rounds for run in r["runs"]]
    return {
        "metrics": {k: {"value": metrics[k], "unit": PER_LAYER_UNITS[k]}
                    for k in PER_LAYER_UNITS},
        "micro_table": micro,
        "rounds": [{k: v for k, v in r.items() if k != "runs"} for r in rounds],
        "runs": runs,
        "results_sha256": _same_results(runs),
    }


# ------------------------------------------------------------- environment


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "caponplus").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
        "source_sha256": _source_digest(),
    }


# -------------------------------------------------------------------- main


def run_benchmark(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, bool]:
    wl = WORKLOADS[name]
    runner = Runner(time.monotonic() + RUN_DEADLINE_S)
    record = {"workload": name, "why": wl.why, "preset": wl.preset, "trials": wl.trials,
              "threads": wl.threads, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment()}
    try:
        record["thread_identity"] = check_thread_identity(runner, seed)
        measured = (measure_layers if trace else measure_end_to_end)(runner, wl, seed, seconds)
        record.update(measured)
        correct, failure = True, None
    except CheckFailed as exc:
        correct, failure = False, str(exc)
        record["failure"] = failure
    runs = record.get("runs", [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record.update(correct=correct, attempted=attempted, failed=failed)
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str))

    if failure:
        print(f"{name}: CHECK FAILED: {failure}")
    for key, metric in record.get("metrics", {}).items():
        print(f"{name}  {key:<46} {metric['value']:.6g} {metric['unit']}")
    if runs:
        print(f"{name}  {'failed_share':<46} {failed / attempted:.6g} 1")
        print(f"{name}  results sha256 {record['results_sha256']} "
              f"({len(runs)} runs, {attempted} trials)")
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
              "metrics": record.get("metrics", {})}
    return result, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "caponplus" / "__init__.py").is_file():
        print(f"error: no caponplus sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        result, correct = run_benchmark(name, args.seed, args.seconds, bool(args.trace))
        all_correct &= correct
        print(json.dumps(result), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
