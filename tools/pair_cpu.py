#!/usr/bin/env python3
"""CPU time per (sweep point, trial) pair of one preset's Monte-Carlo loop.

    OPENBLAS_NUM_THREADS=1 python3 tools/pair_cpu.py PRESET TRIALS

Builds PRESET's scenario at TRIALS trials per point, as ``caponplus run``
does, and runs every trial at every sweep point in this process with
``montecarlo._run_chunk``, the loop a pool worker runs, with no pool.  It
does so 5 times and prints one JSON line whose ``us_per_pair`` is the least
``time.process_time`` of the 5 divided by the number of (point, trial) pairs.
Process CPU time of the best repeat leaves out set-up, pool and writing,
and much of what other processes on the host do, so it moves far less
between runs than a wall-clock throughput; compare two trees by running it
in each, alternating, several times.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from caponplus import cli, montecarlo  # noqa: E402
from caponplus.errors import ConfigError  # noqa: E402
from caponplus.presets import PRESETS  # noqa: E402

REPEATS = 5


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("preset", choices=sorted(p for p, doc in PRESETS.items()
                                                 if doc["regime"] != "alpha_sweep"))
    parser.add_argument("trials", type=int)
    args = parser.parse_args(argv)
    try:
        config = cli.build_run_config({**PRESETS[args.preset], "trials": args.trials}).scenario
    except ConfigError as exc:
        parser.error(str(exc))
    values = config.sweep.values
    run = (config, values, [montecarlo.build_context(config, v) for v in values])
    best = float("inf")
    for _ in range(REPEATS):
        start = time.process_time()
        montecarlo._run_chunk(run, (0, config.trials))
        best = min(best, time.process_time() - start)
    pairs = len(values) * config.trials
    print(json.dumps({"preset": args.preset, "trials": config.trials, "points": len(values),
                      "repeats": REPEATS, "us_per_pair": round(best / pairs * 1e6, 2)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
