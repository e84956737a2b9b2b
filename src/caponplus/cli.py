"""Configuration-driven command line front end.

``caponplus run [config.json] [--preset NAME] [--seed N] [--out PATH]
[--format csv|json] [--threads N]`` runs one scenario and writes a results
file.  Exit status: 0 on success, 2 when more than 1% of trials fail, 1 on
any other error, such as a bad config or an output path that cannot be
written.

Configs are JSON objects.  Each key is checked against its row of
:data:`CONFIG_KEYS` (listed below), and a missing key takes the row's
default.  The defaults reproduce the Gaussian known-statistics sweep (preset
fig1) in the reference scene.  Angles are degrees and powers are dB relative
to the unit-variance noise; the library itself works in linear units
throughout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

from ._version import __version__
from .arraymodel import ArrayGeometry, WaveformKind
from .errors import CaponPlusError, ConfigError, DomainError, TrialFailureError
from .metrics import AggregateRecord
from .montecarlo import (
    DEFAULT_GEOMETRY,
    DEFAULT_INTERFERER_DOAS_DEG,
    DEFAULT_INTERFERER_OFFSETS_DB,
    DEFAULT_NOISE_VAR,
    DEFAULT_SOI_DOA_DEG,
    PskAlphaMode,
    Regime,
    ScenarioConfig,
    ScenarioReport,
    SweepSpec,
    SweepVariable,
    run_scenario,
    scene_from_db,
)
from .presets import PRESETS

__all__ = [
    "RunConfig", "DEFAULT_CONFIG", "CONFIG_KEYS", "parse_config", "emit_results", "main",
]

RESULT_COLUMNS = (
    "sweep_variable", "sweep_value", *(f.name for f in fields(AggregateRecord)), "n_failed",
)

# Every config key: its JSON type, its allowed values or bound, its default
# and its meaning.  An "integer" is a JSON int and a "number" an int or a
# float; true and false are neither.  Arrays hold numbers, and an array's
# bound holds for each item.  A bound is an interval.  "sweep" needs both
# its keys, which have no default of their own (None).
_FIG1 = PRESETS["fig1"]
CONFIG_KEYS: dict[str, tuple[str, object, object, str]] = {
    "regime": ("string", tuple(r.value for r in Regime), _FIG1["regime"],
               "oracle (known statistics), adaptive scenarios a-d, or the closed-form alpha sweep"),
    "antennas": ("integer", "[2, inf)", DEFAULT_GEOMETRY.antennas, "number of ULA elements M"),
    "spacing_wavelengths": ("number", "(0, inf)", DEFAULT_GEOMETRY.d_over_lambda,
                            "element spacing in wavelengths, d / lambda"),
    "soi_doa_deg": ("number", "[-90, 90)", DEFAULT_SOI_DOA_DEG,
                    "direction of arrival of the SOI in degrees"),
    "interferer_doas_deg": ("array", "[-90, 90)", list(DEFAULT_INTERFERER_DOAS_DEG),
                            "directions of arrival of the interferers in degrees"),
    "interferer_offsets_db": ("array", None, list(DEFAULT_INTERFERER_OFFSETS_DB),
                              "interferer powers in dB below the SOI power, one per interferer"),
    "noise_var": ("number", "(0, inf)", DEFAULT_NOISE_VAR,
                  "white noise variance (SNR sweeps require 1)"),
    "waveform": ("string", tuple(w.value for w in WaveformKind), _FIG1["waveform"],
                 "waveform law of every source"),
    "snapshots": ("integer", "[1, inf)", 60, "primary snapshot count T"),
    "secondary_snapshots": ("integer", "[0, inf)", 0,
                            "SOI-free snapshot count T0; regimes c/d need T0 > antennas "
                            "unless T0 is swept"),
    "trials": ("integer", None, _FIG1["trials"], "Monte-Carlo trials per sweep point (>= 100)"),
    "seed": ("integer", "[0, inf)", 20250810, "master seed of the reproducible trial streams"),
    "snr_db": ("number", None, 0.0, "SOI SNR in dB over unit noise when snr_db is not swept"),
    "sweep": ("object", None, _FIG1["sweep"], "the swept variable and its values"),
    "sweep.variable": ("string", tuple(v.value for v in SweepVariable), None,
                       "the swept variable"),
    "sweep.values": ("array", "non-empty", None, "the sweep points"),
    "psk_alpha_mode": ("string", tuple(m.value for m in PskAlphaMode), "kappa_minus_one",
                       "oracle-regime shrinkage rule for PSK sources"),
    "output_path": ("string", "non-empty", "results.csv", "results file to write"),
    "output_format": ("string", ("csv", "json"), "csv", "results file format"),
    "emit_theory": ("boolean", None, False,
                    "append closed-form overlay rows to each sweep point"),
}

DEFAULT_CONFIG: dict = {key: row[2] for key, row in CONFIG_KEYS.items() if "." not in key}

# Python's bool is an int; JSON's true and false are neither integer nor number.
_JSON_TYPES = {"integer": int, "number": (int, float), "string": str, "boolean": bool,
               "array": list, "object": dict}


def _requirement(rule) -> str:
    """How a rule of :data:`CONFIG_KEYS` reads in messages and in the key list."""
    if isinstance(rule, tuple):
        return "one of " + ", ".join(rule)
    return rule if rule == "non-empty" else f"in {rule}"


def _within(value, interval: str) -> bool:
    """Whether ``value`` lies in an interval written like ``[-90, 90)`` or ``(0, inf)``."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return (lo <= value if interval[0] == "[" else lo < value) and (
        value <= hi if interval[-1] == "]" else value < hi)


def _problem(value, kind: str, rule) -> str | None:
    """Why ``value`` breaks a row's type and rule, or None if it keeps them."""
    if isinstance(value, bool) != (kind == "boolean") or not isinstance(value, _JSON_TYPES[kind]):
        need = f"of type {kind}"
    elif isinstance(rule, tuple):
        need = None if value in rule else _requirement(rule)
    elif rule == "non-empty":
        need = None if value else _requirement(rule)
    else:  # an interval, which an array's items keep rather than the array
        keeps = rule is None or kind == "array" or _within(value, rule)
        need = None if keeps else _requirement(rule)
    return need and f"must be {need}, got {json.dumps(value, default=repr)}"


def _violations(doc: dict, prefix: str = "") -> list[tuple[str, str]]:
    """``(key path, message)`` for every way ``doc`` breaks :data:`CONFIG_KEYS`."""
    found = []
    for key, value in doc.items():
        path = f"{prefix}{key}"
        if "." in str(key) or path not in CONFIG_KEYS:
            found.append((path, "unknown key"))
            continue
        kind, rule, _default, _meaning = CONFIG_KEYS[path]
        if problem := _problem(value, kind, rule):
            found.append((path, problem))
        elif kind == "object":
            subkeys = [row.removeprefix(path + ".") for row in CONFIG_KEYS
                       if row.startswith(path + ".")]
            found += [(path, f"missing key {sub!r}") for sub in subkeys if sub not in value]
            found += _violations(value, path + ".")
        elif kind == "array":
            item_rule = None if rule == "non-empty" else rule
            found += [(f"{path}[{i}]", problem) for i, item in enumerate(value)
                      if (problem := _problem(item, "number", item_rule))]
    return found


if __doc__:
    __doc__ += "\nConfig keys (JSON type, bound or allowed values, default: meaning):\n\n" + "".join(
        f"* ``{key}`` ({kind}{', ' + _requirement(rule) if rule else ''}"
        f"{'' if default is None else ', default ' + json.dumps(default)}): {meaning}\n"
        for key, (kind, rule, default, meaning) in CONFIG_KEYS.items()
    )


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run: the scenario plus output disposition."""

    scenario: ScenarioConfig
    output_path: str
    output_format: str
    emit_theory: bool


def _finite_float(text: str) -> float:
    """JSON number hook: :class:`ConfigError` for NaN, +-Infinity and overflow such as 1e999."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config: number {text} is not a finite float")
    return value


def _load_document(source) -> dict:
    """Read a JSON object from a path, ``"-"`` (stdin), or a file-like object."""
    try:
        if hasattr(source, "read"):
            text, origin = source.read(), "<stream>"
        elif source == "-":
            text, origin = sys.stdin.read(), "<stdin>"
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
            origin = str(source)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{origin}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{origin}: config must be a JSON object")
    return doc


def build_run_config(doc: dict) -> RunConfig:
    """Merge ``doc`` over the defaults and produce a validated :class:`RunConfig`."""
    violations = sorted(_violations(doc))
    if violations:
        raise ConfigError(
            "config rejected:\n  " + "\n  ".join(f"{path}: {msg}" for path, msg in violations))
    cfg = {**DEFAULT_CONFIG, **doc}
    sweep = SweepSpec(SweepVariable(cfg["sweep"]["variable"]), tuple(cfg["sweep"]["values"]))
    # An SNR sweep builds the scene at 0 dB; each sweep point rescales it.
    snr_db = 0.0 if sweep.variable is SweepVariable.SNR_DB else cfg["snr_db"]
    try:
        scenario = ScenarioConfig(
            regime=Regime(cfg["regime"]),
            geom=ArrayGeometry(cfg["antennas"], cfg["spacing_wavelengths"]),
            base_scene=scene_from_db(
                snr_db, cfg["soi_doa_deg"], cfg["interferer_doas_deg"],
                cfg["interferer_offsets_db"], cfg["noise_var"],
            ),
            waveform=WaveformKind(cfg["waveform"]),
            snapshots=cfg["snapshots"],
            secondary_snapshots=cfg["secondary_snapshots"],
            trials=cfg["trials"],
            master_seed=cfg["seed"],
            sweep=sweep,
            psk_alpha_mode=PskAlphaMode(cfg["psk_alpha_mode"]),
        )
        scenario.validate()
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(
        scenario=scenario,
        output_path=cfg["output_path"],
        output_format=cfg["output_format"],
        emit_theory=cfg["emit_theory"],
    )


def parse_config(source) -> RunConfig:
    """Load, key-check and semantically validate a JSON config."""
    return build_run_config(_load_document(source))


def _result_rows(report: ScenarioReport) -> list[dict]:
    var = report.config.sweep.variable.value
    return [
        {"sweep_variable": var, "sweep_value": float(point.sweep_value), **asdict(agg),
         "n_failed": point.n_failed}
        for point in report.points for agg in point.aggregates
    ]


def _write_results(path: str, payload: str, mode: str = "w") -> None:
    try:
        with open(path, mode, encoding="utf-8", newline="") as fh:
            fh.write(payload)
    except OSError as exc:
        raise CaponPlusError(f"cannot write results to {path}: {exc}") from exc


def _check_writable(path: str) -> None:
    """Fail now, rather than after the trials, where the results cannot be
    written, as into a missing directory; leave no new file behind."""
    existed = os.path.lexists(path)
    _write_results(path, "", "a")
    if not existed:
        os.remove(path)


def emit_results(report: ScenarioReport, output_format: str, path: str) -> None:
    """Write the report as CSV (fixed column order; the csv module writes each
    float as its ``repr``) or a JSON record array."""
    rows = _result_rows(report)
    if output_format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, RESULT_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        payload = buf.getvalue()
    elif output_format == "json":
        payload = json.dumps(rows, indent=2) + "\n"
    else:
        raise ConfigError(f"unknown output format {output_format!r}")
    _write_results(path, payload)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caponplus",
        description="Capon/MMSE/Capon+ beamformer power-estimation experiments",
    )
    parser.add_argument("--version", action="version", version=f"caponplus {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one scenario and write a results file")
    runp.add_argument("config", nargs="?", help="JSON config path, or - for stdin")
    runp.add_argument("--preset", choices=sorted(PRESETS), help="named base configuration")
    runp.add_argument("--seed", type=int, help="override the master seed")
    runp.add_argument("--out", help="override the output path")
    runp.add_argument("--format", choices=CONFIG_KEYS["output_format"][1],
                      help="override the output format")
    runp.add_argument("--threads", type=int, default=1,
                      help="worker processes for the trials (default: 1)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run ``caponplus`` with ``argv``; returns the process exit status."""
    args = _make_parser().parse_args(argv)
    doc: dict = dict(PRESETS[args.preset]) if args.preset else {}
    overrides = {"seed": args.seed, "output_path": args.out, "output_format": args.format}
    try:
        if args.config:
            doc.update(_load_document(args.config))
        elif not args.preset:
            raise ConfigError("provide a config file, - for stdin, or --preset")
        doc.update((key, value) for key, value in overrides.items() if value is not None)
        config = build_run_config(doc)
        _check_writable(config.output_path)
        report = run_scenario(config.scenario, threads=max(1, args.threads),
                              emit_theory=config.emit_theory)
        emit_results(report, config.output_format, config.output_path)
    except CaponPlusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, TrialFailureError) else 1
    print(
        f"wrote {config.output_path} ({len(report.points)} sweep points, "
        f"{report.wall_time_s:.1f}s, caponplus {__version__})",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
