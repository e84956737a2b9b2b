#!/usr/bin/env python3
"""CPU time per (sweep point, trial) pair of one preset's Monte-Carlo loop.

    python3 tools/pair_cpu.py PRESET TRIALS [--against DIR --rounds N]

Builds PRESET's scenario at TRIALS trials per point, as ``caponplus run``
does, and runs every trial at every sweep point in this process with
``montecarlo._run_chunk``, the loop a pool worker runs, with no pool.  It
does so 5 times and prints one JSON line whose ``us_per_pair`` is the least
``time.process_time`` of the 5 divided by the number of (point, trial) pairs.
For that best repeat it also prints ``minflt_per_pair``, the minor page
faults per pair, and ``sys_share``, the system share of the process's CPU
time, both from ``resource.getrusage`` before and after the repeat.
Process CPU time of the best repeat leaves out set-up, pool and writing,
and much of what other processes on the host do, so it moves far less
between runs than a wall-clock throughput; compare two trees by running it
in each, alternating, several times.  The package loads BLAS on one thread
by itself, as ``caponplus run`` does, and the line's ``blas_threads``
gives the thread count of each OpenBLAS copy; a BLAS thread variable set in
the environment overrides it.

With ``--against DIR``, another checkout of this repository (say, the
parent commit's), it measures nothing in this process.  It runs this
script and DIR's own ``tools/pair_cpu.py`` as fresh processes, alternately
for N rounds (2 by default), swapping which side runs first from one round
to the next, and prints one JSON line: for each side (``here`` and
``there``) the median and the interquartile range of its ``us_per_pair``,
the number of rounds it won with the lower value, and the median of its
``minflt_per_pair``, which shows when one side's repeats faulted.  Place the
two trees at paths of equal length: a tree's page faults can depend on its
path.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# The package first: numpy imported before it loads OpenBLAS on more threads.
from caponplus import cli, linalg, montecarlo  # noqa: E402
from caponplus.errors import ConfigError  # noqa: E402
from caponplus.presets import PRESETS  # noqa: E402

import numpy as np  # noqa: E402

REPEATS = 5


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("preset", choices=sorted(p for p, doc in PRESETS.items()
                                                 if doc["regime"] != "alpha_sweep"))
    parser.add_argument("trials", type=int)
    parser.add_argument("--against", metavar="DIR", type=Path)
    parser.add_argument("--rounds", metavar="N", type=int, default=2)
    args = parser.parse_args(argv)
    try:
        config = cli.build_run_config({**PRESETS[args.preset], "trials": args.trials}).scenario
    except ConfigError as exc:
        parser.error(str(exc))
    if args.against is not None:
        other = args.against / "tools" / "pair_cpu.py"
        if not other.is_file() or args.rounds < 1:
            parser.error(f"--against needs a checkout with {other.relative_to(args.against)} "
                         "and --rounds at least 1")
        return _alternate(args, {"here": Path(__file__).resolve(), "there": other})
    values = config.sweep.values
    run = (config, values, montecarlo._build_contexts(config))
    repeats = []  # (CPU s, minor page faults, user CPU s, system CPU s) per repeat
    for _ in range(REPEATS):
        before, start = resource.getrusage(resource.RUSAGE_SELF), time.process_time()
        montecarlo._run_chunk(run, (0, config.trials))
        cpu, after = time.process_time() - start, resource.getrusage(resource.RUSAGE_SELF)
        repeats.append((cpu, after.ru_minflt - before.ru_minflt,
                        after.ru_utime - before.ru_utime, after.ru_stime - before.ru_stime))
    cpu, faults, user, system = min(repeats)
    pairs = len(values) * config.trials
    print(json.dumps({"preset": args.preset, "trials": config.trials, "points": len(values),
                      "repeats": REPEATS, "us_per_pair": round(cpu / pairs * 1e6, 2),
                      "minflt_per_pair": round(faults / pairs, 3),
                      "sys_share": round(system / (user + system), 3),
                      "blas_threads": linalg.blas_threads()}))
    return 0


def _alternate(args: argparse.Namespace, scripts: dict[str, Path]) -> int:
    """Run the sides' scripts in turn for ``args.rounds`` rounds and print
    each side's median, IQR and wins of ``us_per_pair`` and its median
    ``minflt_per_pair``."""
    runs: dict[str, list[float]] = {side: [] for side in scripts}
    faults: dict[str, list[float]] = {side: [] for side in scripts}
    wins = dict.fromkeys(scripts, 0)
    for round_ in range(args.rounds):
        for side in sorted(scripts, reverse=round_ % 2 == 1):
            done = subprocess.run([sys.executable, str(scripts[side]), args.preset,
                                   str(args.trials)], capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            runs[side].append(result["us_per_pair"])
            faults[side].append(result["minflt_per_pair"])
        here, there = runs["here"][-1], runs["there"][-1]
        if here != there:
            wins["here" if here < there else "there"] += 1
    summary = {}
    for side, values in runs.items():
        low, high = np.percentile(values, [25, 75])
        summary[side] = {"median_us_per_pair": round(float(np.median(values)), 2),
                         "iqr_us_per_pair": round(float(high - low), 2), "wins": wins[side],
                         "median_minflt_per_pair": round(float(np.median(faults[side])), 3)}
    print(json.dumps({"preset": args.preset, "trials": args.trials, "rounds": args.rounds,
                      "against": str(args.against), **summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
