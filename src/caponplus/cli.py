"""Configuration-driven command line front end.

``caponplus run [config.json] [--preset NAME] [--seed N] [--out PATH]
[--format csv|json] [--threads N]`` runs one scenario and writes a results
file.  Exit status: 0 on success, 1 on configuration errors, 2 when more
than 1% of trials fail.

Configs are JSON documents validated against the shipped schema
(``config_schema.json``); missing keys fall back to the reference setup
(25-element half-wavelength ULA, SOI at -45.02 deg, interferers 2/4/6 dB
down, unit noise, T = 60, 15000 trials).  Angles are degrees and powers are
dB relative to the unit-variance noise; the library itself works in linear
units throughout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources

import jsonschema

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

__all__ = ["RunConfig", "DEFAULT_CONFIG", "parse_config", "run", "emit_results", "main"]

THREADS_ENV_VAR = "CAPONPLUS_THREADS"

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


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run: the scenario plus output disposition."""

    scenario: ScenarioConfig
    output_path: str
    output_format: str
    emit_theory: bool


def _schema() -> dict:
    text = resources.files("caponplus").joinpath("config_schema.json").read_text()
    return json.loads(text)


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
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{origin}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{origin}: config must be a JSON object")
    return doc


def _validate_schema(doc: dict) -> None:
    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        lines = []
        for err in errors:
            where = "/".join(str(p) for p in err.absolute_path) or "<root>"
            lines.append(f"{where}: {err.message}")
        raise ValidationError("config rejected:\n  " + "\n  ".join(lines))


def build_run_config(doc: dict) -> RunConfig:
    """Merge ``doc`` over the defaults and produce a validated :class:`RunConfig`."""
    _validate_schema(doc)
    cfg = {**DEFAULT_CONFIG, **doc}
    sweep_doc = {**DEFAULT_CONFIG["sweep"], **cfg["sweep"]}
    sweep = SweepSpec(SweepVariable(sweep_doc["variable"]), tuple(sweep_doc["values"]))
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
    """Load, schema-check and semantically validate a JSON config."""
    return build_run_config(_load_document(source))


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain text otherwise."""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _result_rows(report: ScenarioReport) -> list[dict]:
    rows = []
    var = report.sweep_variable.value
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


def _resolve_threads(flag_value: int | None) -> int:
    if flag_value is not None:
        return max(1, flag_value)
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValidationError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from exc
    return 1


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
    runp.add_argument("--format", choices=["csv", "json"], help="override the output format")
    runp.add_argument(
        "--threads",
        type=int,
        help=f"worker processes for the trials (default: ${THREADS_ENV_VAR} or 1)",
    )
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
        threads = _resolve_threads(args.threads)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(config, threads=threads)
    except CaponPlusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
