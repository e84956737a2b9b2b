#!/usr/bin/env python3
"""Digest every preset's results file at a small, fixed size.

    python3 tools/results_digests.py OUTDIR [--compare SAVED.txt]

Runs ``caponplus run --preset P --seed 7`` for each preset at 200 trials per
point (fig2, the closed-form alpha sweep, at its own grid; fig5 and fig6 at
T0 in {30, 60, 120}), with ``emit_theory`` off and on.  It also runs fig1
with 8-PSK sources and ``emit_theory`` on once per ``psk_alpha_mode``, which
covers the oracle shrinkage rules no preset selects, fig1 and fig6 with
``emit_theory`` on and ``--format json``, which covers the JSON writer, and
fig5 and fig6 (regimes c and d) with ``emit_theory`` on over an SNR sweep
at T0 = 60, which no preset runs.
Every run is made at ``--threads`` 1 and 2, and the results files go to
OUTDIR.  It prints one ``<first 12 hex digits of SHA-256> <file>`` line per
results file, so two trees give the same output exactly when their results
are byte-identical.
Exits 1 if a run fails or if a run's threads-1 and threads-2 files differ.

With ``--compare SAVED.txt``, the table this script printed in another tree
(say, the parent commit's), it also prints one ``DIFFERS`` line per results
file whose digest differs from the saved one or is missing on either side,
then a count of identical files, and exits 1 if any file differs.

    python3 tools/results_digests.py OUTDIR --rtol RTOL BASEDIR

runs nothing: it reads the results files this script wrote to OUTDIR and to
BASEDIR (say, in the parent commit's tree), matches their rows by (sweep
value, method) and prints, per numeric column, the largest relative change
``|a - b| / max(|a|, |b|)`` over all files and where it is.  It exits 1 if a
file or a row is missing on either side or a change exceeds RTOL.

    python3 tools/results_digests.py OUTDIR --zscore BASEDIR

runs nothing either: for two trees whose random numbers differ, where no
relative tolerance applies, it prints the two-sample z of every ``mean_*``
cell, ``(a - b) / sqrt(se_a^2 + se_b^2)`` from the two rows' ``stderr_*``
cells, one line per row, then the largest ``|z|`` per column and where it
is.  A cell whose two standard errors are 0 (a closed-form row) has z 0
where it is unchanged and an infinite z where it moved; a NaN mean gives a
NaN z, which counts as the largest.  It exits 1 if a file or a row is
missing on either side or a z is infinite or NaN.  The z takes the two runs
as independent; runs that share some random numbers make it smaller than it
would be.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from caponplus import cli  # noqa: E402
from caponplus.presets import PRESETS  # noqa: E402

SEED = 7
TRIALS = 200
T0_VALUES = [30.0, 60.0, 120.0]
THREADS = (1, 2)
PSK_ALPHA_MODES = ("kappa_minus_one", "exact", "measured")
JSON_PRESETS = ("fig1", "fig6")
# Regimes c and d over an SNR sweep, at T0 = 60: no preset runs them.
SNR_SWEEP_PRESETS = ("fig5", "fig6")
SNR_VALUES = [0.0, -5.0, -10.0]


def _overrides(preset: str, emit_theory: bool) -> dict:
    doc: dict = {"emit_theory": emit_theory}
    if PRESETS[preset]["regime"] != "alpha_sweep":
        doc["trials"] = TRIALS
    if PRESETS[preset]["sweep"]["variable"] == "t0":
        doc["sweep"] = {"variable": "t0", "values": T0_VALUES}
    return doc


def _runs():
    """``(preset, file stem, config overrides, format)`` of every digested run."""
    for preset in sorted(PRESETS):
        for emit_theory in (False, True):
            yield preset, f"{preset}-theory{int(emit_theory)}", _overrides(preset, emit_theory), "csv"
    for mode in PSK_ALPHA_MODES:
        yield "fig1", f"fig1-psk8-{mode}", {
            "emit_theory": True, "trials": TRIALS, "waveform": "psk8", "psk_alpha_mode": mode,
        }, "csv"
    for preset in JSON_PRESETS:
        yield preset, f"{preset}-theory1", _overrides(preset, True), "json"
    for preset in SNR_SWEEP_PRESETS:
        yield preset, f"{preset}-snr-theory1", {
            "emit_theory": True, "trials": TRIALS, "secondary_snapshots": 60,
            "sweep": {"variable": "snr_db", "values": SNR_VALUES},
        }, "csv"


def _read_table(path: Path) -> dict[str, str]:
    """``{file: digest}`` of the digest lines of a saved table."""
    lines = (re.fullmatch(r"([0-9a-f]{12}) (\S+)", line.strip())
             for line in path.read_text().splitlines())
    return {m[2]: m[1] for m in lines if m}


# The numeric columns of a results row, after its sweep value and method.
NUMERIC_COLUMNS = ("mean_rel_bias", "stderr_rel_bias", "mean_se_nmse", "stderr_se_nmse",
                   "mean_sp_nmse", "stderr_sp_nmse", "n_trials", "n_failed")


def _file_names() -> list[str]:
    """The results file names this script writes, in its order."""
    return [f"{stem}-threads{threads}.{fmt}" for _, stem, _, fmt in _runs() for threads in THREADS]


def _read_rows(path: Path) -> dict[tuple[float, str], dict[str, float]]:
    """A CSV or JSON results file's numeric cells, keyed by (sweep value, method)."""
    text = path.read_text()
    rows = json.loads(text) if path.suffix == ".json" else csv.DictReader(io.StringIO(text))
    return {(float(row["sweep_value"]), row["method"]): {c: float(row[c]) for c in NUMERIC_COLUMNS}
            for row in rows}


def _paired_rows(outdir: Path, basedir: Path):
    """``(file, (sweep value, method), row in OUTDIR, row in BASEDIR)`` of every
    row of the results files this script writes that both directories hold,
    and 1 if a file or a row is missing on either side (each is printed), else 0."""
    pairs, status = [], 0
    for name in _file_names():
        if not (outdir / name).is_file() or not (basedir / name).is_file():
            print(f"MISSING {name}: in {outdir}: {(outdir / name).is_file()}, "
                  f"in {basedir}: {(basedir / name).is_file()}")
            status = 1
            continue
        here, base = _read_rows(outdir / name), _read_rows(basedir / name)
        for key in sorted(here.keys() ^ base.keys()):
            print(f"MISSING ROW {name} {key}: only in {outdir if key in here else basedir}")
            status = 1
        pairs += [(name, key, here[key], base[key]) for key in sorted(here.keys() & base.keys())]
    return pairs, status


def compare_dirs(outdir: Path, basedir: Path, rtol: float) -> int:
    """Print the largest relative change per numeric column between the results
    files of two directories; 1 if anything is missing or moved more than ``rtol``."""
    pairs, status = _paired_rows(outdir, basedir)
    worst = {c: (0.0, "") for c in NUMERIC_COLUMNS}
    for name, key, here, base in pairs:
        for column in NUMERIC_COLUMNS:
            a, b = here[column], base[column]
            change = 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))
            if change > worst[column][0]:
                worst[column] = (change, f"{name} {key}")
    for column, (change, where) in worst.items():
        flag = "EXCEEDS" if change > rtol else "ok"
        print(f"{flag} {column}: largest relative change {change:.3g}" + (f" at {where}" if where else ""))
        if change > rtol:
            status = 1
    return status


# The metrics whose mean_* cells --zscore compares, through their stderr_* cells.
METRICS = ("rel_bias", "se_nmse", "sp_nmse")


def zscore_dirs(outdir: Path, basedir: Path) -> int:
    """Print the two-sample z of every mean cell between the results files of
    two directories, and the largest ``|z|`` per column; 1 if anything is
    missing or a z is infinite."""
    pairs, status = _paired_rows(outdir, basedir)
    worst = {metric: (0.0, "") for metric in METRICS}
    for name, key, here, base in pairs:
        cells = []
        for metric in METRICS:
            diff = here[f"mean_{metric}"] - base[f"mean_{metric}"]
            se = math.hypot(here[f"stderr_{metric}"], base[f"stderr_{metric}"])
            z = diff / se if se > 0.0 else math.copysign(math.inf, diff) if diff else 0.0
            cells.append(f"mean_{metric} {z:+.2f}")
            # a NaN z counts as the largest, and the first one stays
            if not math.isnan(worst[metric][0]) and not abs(z) <= worst[metric][0]:
                worst[metric] = (abs(z), f"{name} {key}")
        print(f"z {name} {key}: " + " ".join(cells))
    for metric, (z, where) in worst.items():
        print(f"largest |z| mean_{metric}: {z:.2f}" + (f" at {where}" if where else ""))
        if not math.isfinite(z):
            status = 1
    return status


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--compare", type=Path, metavar="SAVED.txt",
                        help="table printed by this script in another tree")
    parser.add_argument("--rtol", nargs=2, metavar=("RTOL", "BASEDIR"),
                        help="run nothing; compare the results files in OUTDIR with those "
                             "in BASEDIR, cell by cell, within the relative tolerance RTOL")
    parser.add_argument("--zscore", type=Path, metavar="BASEDIR",
                        help="run nothing; print the two-sample z of every mean cell of the "
                             "results files in OUTDIR against those in BASEDIR")
    args = parser.parse_args(argv)
    if args.zscore is not None:
        return zscore_dirs(args.outdir, args.zscore)
    if args.rtol is not None:
        try:
            rtol = float(args.rtol[0])
        except ValueError:
            parser.error(f"RTOL must be a number, got {args.rtol[0]!r}")
        return compare_dirs(args.outdir, Path(args.rtol[1]), rtol)
    saved = _read_table(args.compare) if args.compare is not None else None
    outdir = args.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    status = 0
    table: dict[str, str] = {}
    for preset, stem, overrides, fmt in _runs():
        cfg = outdir / f"{stem}.json"
        cfg.write_text(json.dumps(overrides))
        digests = []
        for threads in THREADS:
            out = outdir / f"{stem}-threads{threads}.{fmt}"
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = cli.main(["run", str(cfg), "--preset", preset, "--seed", str(SEED),
                                 "--out", str(out), "--threads", str(threads),
                                 "--format", fmt])
            if code != 0:
                print(f"FAILED (exit {code}) {out.name}: {stderr.getvalue().strip()}")
                status = 1
                continue
            digest = hashlib.sha256(out.read_bytes()).hexdigest()[:12]
            digests.append(digest)
            table[out.name] = digest
            print(f"{digest} {out.name}", flush=True)
        if len(set(digests)) > 1:
            print(f"MISMATCH {stem}: threads 1 and 2 differ")
            status = 1
    if saved is not None:
        differ = sorted(n for n in saved.keys() | table.keys() if saved.get(n) != table.get(n))
        for name in differ:
            print(f"DIFFERS {name}: saved {saved.get(name, 'missing')}, "
                  f"here {table.get(name, 'missing')}")
        same = sum(saved.get(name) == digest for name, digest in table.items())
        print(f"compared with {args.compare}: {same} identical, {len(differ)} differ")
        if differ:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
