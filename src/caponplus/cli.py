"""Configuration-driven command line front end.

``caponplus run [config.json] [--preset NAME] [--seed N] [--out PATH]
[--format csv|json] [--threads N]`` runs one scenario and writes a results
file.  Exit status: 0 on success, 1 on configuration errors, 2 when more
than 1% of trials fail.

Configs are JSON objects.  Each key is checked against its row of
:data:`CONFIG_KEYS` (listed below); missing keys fall back to the reference
setup (25-element half-wavelength ULA, SOI at -45.02 deg, interferers 2/4/6
dB down, unit noise, T = 60, 15000 trials).  Angles are degrees and powers
are dB relative to the unit-variance noise; the library itself works in
linear units throughout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass

from ._version import __version__
from .arraymodel import ArrayGeometry
from .errors import (
    CaponPlusError,
    ConfigError,
    ParseError,
    TrialFailureError,
    ValidationError,
)
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
from .signalsim import WaveformKind

__all__ = [
    "RunConfig", "DEFAULT_CONFIG", "CONFIG_KEYS", "parse_config", "run", "emit_results", "main",
]

RESULT_COLUMNS = (
    "sweep_variable",
    "sweep_value",
    "method",
    "mean_rel_bias",
    "stderr_rel_bias",
    "mean_se_nmse",
    "stderr_se_nmse",
    "mean_sp_nmse",
    "stderr_sp_nmse",
    "n_trials",
    "n_failed",
)

# Defaults reproduce the Gaussian known-statistics sweep (preset fig1) in the
# reference scene.
DEFAULT_CONFIG: dict = {
    "regime": PRESETS["fig1"]["regime"],
    "antennas": DEFAULT_GEOMETRY.antennas,
    "spacing_wavelengths": DEFAULT_GEOMETRY.d_over_lambda,
    "soi_doa_deg": DEFAULT_SOI_DOA_DEG,
    "interferer_doas_deg": list(DEFAULT_INTERFERER_DOAS_DEG),
    "interferer_offsets_db": list(DEFAULT_INTERFERER_OFFSETS_DB),
    "noise_var": DEFAULT_NOISE_VAR,
    "waveform": PRESETS["fig1"]["waveform"],
    "snapshots": 60,
    "secondary_snapshots": 0,
    "trials": PRESETS["fig1"]["trials"],
    "seed": 20250810,
    "snr_db": 0.0,
    "sweep": PRESETS["fig1"]["sweep"],
    "psk_alpha_mode": "kappa_minus_one",
    "output_path": "results.csv",
    "output_format": "csv",
    "emit_theory": False,
}

# Every config key: its JSON type, its allowed values or bound, and its
# meaning.  An "integer" is a JSON int and a "number" an int or a float;
# true and false are neither.  Arrays hold numbers, and an array's bound
# holds for each item.  A bound is an interval; "sweep" needs both its keys.
CONFIG_KEYS: dict[str, tuple[str, object, str]] = {
    "regime": ("string", tuple(r.value for r in Regime),
               "oracle (known statistics), adaptive scenarios a-d, or the closed-form alpha sweep"),
    "antennas": ("integer", "[2, inf)", "number of ULA elements M"),
    "spacing_wavelengths": ("number", "(0, inf)", "element spacing in wavelengths, d / lambda"),
    "soi_doa_deg": ("number", "[-90, 90)", "direction of arrival of the SOI in degrees"),
    "interferer_doas_deg": ("array", "[-90, 90)",
                            "directions of arrival of the interferers in degrees"),
    "interferer_offsets_db": ("array", None,
                              "interferer powers in dB below the SOI power, one per interferer"),
    "noise_var": ("number", "(0, inf)", "white noise variance (SNR sweeps require 1)"),
    "waveform": ("string", tuple(w.value for w in WaveformKind), "waveform law of every source"),
    "snapshots": ("integer", "[1, inf)", "primary snapshot count T"),
    "secondary_snapshots": ("integer", "[0, inf)",
                            "SOI-free snapshot count T0; regimes c/d need T0 > antennas "
                            "unless T0 is swept"),
    "trials": ("integer", None, "Monte-Carlo trials per sweep point (>= 100)"),
    "seed": ("integer", "[0, inf)", "master seed of the reproducible trial streams"),
    "snr_db": ("number", None, "SOI SNR in dB over unit noise when snr_db is not swept"),
    "sweep": ("object", None, "the swept variable and its values"),
    "sweep.variable": ("string", tuple(v.value for v in SweepVariable), "the swept variable"),
    "sweep.values": ("array", "non-empty", "the sweep points"),
    "psk_alpha_mode": ("string", tuple(m.value for m in PskAlphaMode),
                       "oracle-regime shrinkage rule for PSK sources"),
    "output_path": ("string", "non-empty", "results file to write"),
    "output_format": ("string", ("csv", "json"), "results file format"),
    "emit_theory": ("boolean", None, "append closed-form overlay rows to each sweep point"),
}

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
        kind, rule, _meaning = CONFIG_KEYS[path]
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
    __doc__ += "\nConfig keys (JSON type, bound or allowed values: meaning):\n\n" + "".join(
        f"* ``{key}`` ({kind}{', ' + _requirement(rule) if rule else ''}): {meaning}\n"
        for key, (kind, rule, meaning) in CONFIG_KEYS.items()
    )


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run: the scenario plus output disposition."""

    scenario: ScenarioConfig
    output_path: str
    output_format: str
    emit_theory: bool


def _finite_float(text: str) -> float:
    """JSON number hook: :class:`ParseError` for NaN, +-Infinity and overflow such as 1e999."""
    value = float(text)
    if not math.isfinite(value):
        raise ParseError(f"config: number {text} is not a finite float")
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
        raise ParseError(f"cannot read config: {exc}") from exc
    try:
        doc = json.loads(text, parse_constant=_finite_float, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{origin}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{origin}: config must be a JSON object")
    return doc


def build_run_config(doc: dict) -> RunConfig:
    """Merge ``doc`` over the defaults and produce a validated :class:`RunConfig`."""
    violations = sorted(_violations(doc))
    if violations:
        raise ValidationError(
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
    except (ConfigError, CaponPlusError) as exc:
        raise ValidationError(str(exc)) from exc
    return RunConfig(
        scenario=scenario,
        output_path=cfg["output_path"],
        output_format=cfg["output_format"],
        emit_theory=cfg["emit_theory"],
    )


def parse_config(source) -> RunConfig:
    """Load, key-check and semantically validate a JSON config."""
    return build_run_config(_load_document(source))


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain text otherwise."""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _result_rows(report: ScenarioReport) -> list[dict]:
    rows = []
    var = report.config.sweep.variable.value
    for point in report.points:
        for agg in point.aggregates:
            rows.append(
                {
                    "sweep_variable": var,
                    "sweep_value": float(point.sweep_value),
                    "method": agg.method,
                    "mean_rel_bias": float(agg.mean_rel_bias),
                    "stderr_rel_bias": float(agg.stderr_rel_bias),
                    "mean_se_nmse": float(agg.mean_se_nmse),
                    "stderr_se_nmse": float(agg.stderr_se_nmse),
                    "mean_sp_nmse": float(agg.mean_sp_nmse),
                    "stderr_sp_nmse": float(agg.stderr_sp_nmse),
                    "n_trials": int(agg.n_trials),
                    "n_failed": int(point.n_failed),
                }
            )
    return rows


def emit_results(report: ScenarioReport, output_format: str, path: str) -> None:
    """Write the report as CSV (fixed column order) or a JSON record array."""
    rows = _result_rows(report)
    if output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in RESULT_COLUMNS])
        payload = buf.getvalue()
    elif output_format == "json":
        payload = json.dumps(rows, indent=2) + "\n"
    else:
        raise ValidationError(f"unknown output format {output_format!r}")
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    except OSError as exc:
        raise CaponPlusError(f"cannot write results to {path}: {exc}") from exc


def run(config: RunConfig, threads: int = 1) -> int:
    """Execute a validated run config; returns the process exit status."""
    try:
        report = run_scenario(config.scenario, threads=threads, emit_theory=config.emit_theory)
    except TrialFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    emit_results(report, config.output_format, config.output_path)
    print(
        f"wrote {config.output_path} ({len(report.points)} sweep points, "
        f"{report.wall_time_s:.1f}s, caponplus {__version__})",
        file=sys.stderr,
    )
    return 0


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
    args = _make_parser().parse_args(argv)
    try:
        doc: dict = {}
        if args.preset:
            doc.update(PRESETS[args.preset])
        if args.config:
            doc.update(_load_document(args.config))
        elif not args.preset:
            raise ValidationError("provide a config file, - for stdin, or --preset")
        if args.seed is not None:
            doc["seed"] = args.seed
        if args.out is not None:
            doc["output_path"] = args.out
        if args.format is not None:
            doc["output_format"] = args.format
        config = build_run_config(doc)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(config, threads=max(1, args.threads))
    except CaponPlusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
