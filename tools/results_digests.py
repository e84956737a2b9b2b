#!/usr/bin/env python3
"""Digest every preset's results file at a small, fixed size.

    python3 tools/results_digests.py OUTDIR [--compare SAVED.txt]

Runs ``caponplus run --preset P --seed 7`` for each preset at 200 trials per
point (fig2, the closed-form alpha sweep, at its own grid; fig5 and fig6 at
T0 in {30, 60, 120}), with ``emit_theory`` off and on.  It also runs fig1
with 8-PSK sources and ``emit_theory`` on once per ``psk_alpha_mode``, which
covers the oracle shrinkage rules no preset selects, and fig1 and fig6 with
``emit_theory`` on and ``--format json``, which covers the JSON writer.
Every run is made at ``--threads`` 1 and 2, and the results files go to
OUTDIR.  It prints one ``<first 12 hex digits of SHA-256> <file>`` line per
results file, so two trees give the same output exactly when their results
are byte-identical.
Exits 1 if a run fails or if a run's threads-1 and threads-2 files differ.

With ``--compare SAVED.txt``, the table this script printed in another tree
(say, the parent commit's), it also prints one ``DIFFERS`` line per results
file whose digest differs from the saved one or is missing on either side,
then a count of identical files, and exits 1 if any file differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
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


def _read_table(path: Path) -> dict[str, str]:
    """``{file: digest}`` of the digest lines of a saved table."""
    lines = (re.fullmatch(r"([0-9a-f]{12}) (\S+)", line.strip())
             for line in path.read_text().splitlines())
    return {m[2]: m[1] for m in lines if m}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--compare", type=Path, metavar="SAVED.txt",
                        help="table printed by this script in another tree")
    args = parser.parse_args(argv)
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
