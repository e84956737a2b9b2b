import csv
import dataclasses
import io
import json
import sys

import pytest

from caponplus.cli import (
    RESULT_COLUMNS,
    build_run_config,
    emit_results,
    main,
    parse_config,
)
from caponplus.errors import ConfigError
from caponplus.metrics import AggregateRecord
from caponplus.montecarlo import (
    Regime,
    ScenarioConfig,
    ScenarioReport,
    SweepPointResult,
    SweepVariable,
)
from caponplus.presets import PRESETS
from caponplus.signalsim import WaveformKind


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


TINY = {
    "regime": "oracle",
    "trials": 120,
    "sweep": {"variable": "snr_db", "values": [0.0]},
}


class TestParseConfig:
    def test_minimal_config_fills_reference_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {"regime": "oracle"}))
        sc = cfg.scenario
        assert sc.regime is Regime.ORACLE
        assert sc.geom.antennas == 25
        assert sc.geom.d_over_lambda == 0.5
        assert sc.base_scene.soi.doa_deg == -45.02
        assert [s.doa_deg for s in sc.base_scene.interferers] == [-30.02, -20.02, -3.0]
        assert sc.snapshots == 60
        assert sc.trials == 15000
        assert sc.waveform is WaveformKind.CIRCULAR_GAUSSIAN
        assert sc.sweep.values == (0.0, -2.0, -4.0, -6.0, -8.5)
        # 2/4/6 dB below the SOI
        ratios = [s.power / sc.base_scene.soi.power for s in sc.base_scene.interferers]
        assert ratios == pytest.approx([10 ** -0.2, 10 ** -0.4, 10 ** -0.6])

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="mystery_knob"):
            parse_config(write_config(tmp_path, {"mystery_knob": 3}))

    def test_all_violations_listed(self, tmp_path):
        doc = {"antennas": 1, "waveform": "qam"}
        with pytest.raises(ConfigError) as exc:
            parse_config(write_config(tmp_path, doc))
        assert "antennas" in str(exc.value)
        assert "waveform" in str(exc.value)

    def test_t0_too_small_names_t0(self, tmp_path):
        doc = {"regime": "c", "secondary_snapshots": 20}
        with pytest.raises(ConfigError, match="T0"):
            parse_config(write_config(tmp_path, doc))

    def test_empty_sweep_values_rejected(self, tmp_path):
        doc = {"sweep": {"variable": "snr_db", "values": []}}
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, doc))

    def test_interferer_list_length_mismatch(self, tmp_path):
        doc = {"interferer_doas_deg": [0.0, 10.0], "interferer_offsets_db": [2.0]}
        with pytest.raises(ConfigError, match="interferer"):
            parse_config(write_config(tmp_path, doc))

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  'regime': oracle\n}")
        with pytest.raises(ConfigError, match="line"):
            parse_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "nope.json"))

    def test_stream_input(self):
        cfg = parse_config(io.StringIO(json.dumps(TINY)))
        assert cfg.scenario.trials == 120


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_is_valid(self, name):
        cfg = build_run_config(PRESETS[name])
        assert isinstance(cfg.scenario, ScenarioConfig)

    def test_expected_presets_exist(self):
        assert {"fig1", "fig2", "fig3", "fig4a", "fig4b", "fig4c", "fig5", "fig6"} <= set(
            PRESETS
        )

    def test_fig4_sample_lengths(self):
        assert build_run_config(PRESETS["fig4a"]).scenario.snapshots == 200
        assert build_run_config(PRESETS["fig4b"]).scenario.snapshots == 500
        assert build_run_config(PRESETS["fig4c"]).scenario.snapshots == 100

    def test_t0_sweep_presets_pinned(self):
        t0 = [30.0, 35.0, 40.0, 45.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0]
        for name, regime in (("fig5", "c"), ("fig6", "d")):
            assert PRESETS[name] == {
                "regime": regime,
                "waveform": "psk8",
                "snapshots": 60,
                "snr_db": -5.0,
                "trials": 10000,
                "sweep": {"variable": "t0", "values": t0},
                "output_path": f"{name}.csv",
            }

    def test_fig5_matches_reference_setup(self):
        sc = build_run_config(PRESETS["fig5"]).scenario
        assert sc.regime is Regime.C
        assert sc.waveform is WaveformKind.PSK8
        assert sc.snapshots == 60
        assert sc.base_scene.soi.power == pytest.approx(10 ** -0.5)
        assert sc.sweep.variable is SweepVariable.T0
        assert sc.sweep.values[0] == 30.0 and sc.sweep.values[-1] == 120.0


class TestEmitResults:
    def _empty_report(self):
        scenario = build_run_config(dict(TINY)).scenario
        return ScenarioReport(config=scenario, points=[], wall_time_s=0.0)

    def test_empty_report_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_results(self._empty_report(), "csv", str(out))
        assert out.read_text() == ",".join(RESULT_COLUMNS) + "\n"

    def test_json_same_fields(self, tmp_path):
        out = tmp_path / "empty.json"
        emit_results(self._empty_report(), "json", str(out))
        assert json.loads(out.read_text()) == []

    def test_float_cells_read_back_as_repr(self, tmp_path):
        values = [0.1, 1 / 3, 1e-300, 5e-324, -0.0, 1e22]
        agg = AggregateRecord("Capon", *values, n_trials=7)
        report = dataclasses.replace(self._empty_report(), points=[
            SweepPointResult(sweep_value=-0.0, aggregates=[agg], n_trials=7, n_failed=1)])
        out = tmp_path / "r.csv"
        emit_results(report, "csv", str(out))
        with open(out, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["sweep_value"] == "-0.0" and row["method"] == "Capon"
        assert row["n_trials"] == "7" and row["n_failed"] == "1"
        fields = ["mean_rel_bias", "stderr_rel_bias", "mean_se_nmse", "stderr_se_nmse",
                  "mean_sp_nmse", "stderr_sp_nmse"]
        assert [row[f] for f in fields] == [repr(v) for v in values]


class TestMain:
    def test_run_writes_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        out = tmp_path / "r.csv"
        assert main(["run", cfg, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(RESULT_COLUMNS)
        methods = {row[2] for row in rows[1:]}
        assert methods == {"CB", "Capon", "MMSE", "CaponPlus"}
        # numeric columns round-trip as shortest decimals
        for row in rows[1:]:
            for cell in row[3:9]:
                assert repr(float(cell)) == cell

    def test_byte_identical_reruns_across_threads(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", cfg, "--out", str(out1), "--threads", "1"]) == 0
        assert main(["run", cfg, "--out", str(out2), "--threads", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", cfg, "--out", str(out1), "--seed", "1"])
        main(["run", cfg, "--out", str(out2), "--seed", "2"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"regime": "c", "secondary_snapshots": 5})
        assert main(["run", cfg]) == 1
        assert "error" in capsys.readouterr().err

    def test_preset_with_file_override(self, tmp_path):
        override = write_config(
            tmp_path,
            {"trials": 110, "sweep": {"variable": "snr_db", "values": [0.0]},
             "output_path": str(tmp_path / "o.csv")},
        )
        assert main(["run", override, "--preset", "fig1"]) == 0
        with open(tmp_path / "o.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][9] == "110"  # n_trials from the override

    def test_requires_config_or_preset(self, capsys):
        assert main(["run"]) == 1
        assert "preset" in capsys.readouterr().err

    def test_json_format_flag(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        out = tmp_path / "r.json"
        assert main(["run", cfg, "--out", str(out), "--format", "json"]) == 0
        rows = json.loads(out.read_text())
        assert list(rows[0].keys()) == list(RESULT_COLUMNS)

    def test_trial_failures_exit_code_two(self, tmp_path, monkeypatch):
        import caponplus.cli as cli_mod
        from caponplus.errors import TrialFailureError

        def boom(*args, **kwargs):
            raise TrialFailureError("12 of 120 trials failed")

        monkeypatch.setattr(cli_mod, "run_scenario", boom)
        cfg = write_config(tmp_path, TINY)
        assert main(["run", cfg]) == 2

    @pytest.mark.parametrize("preset, doc", [
        ("fig5", {"sweep": {"variable": "t0", "values": [float("nan")]}}),
        ("fig5", {"sweep": {"variable": "t0", "values": [float("inf")]}}),
        ("fig5", {"sweep": {"variable": "t0", "values": [-float("inf")]}}),
        ("fig2", {"sweep": {"variable": "alpha", "values": [float("nan"), 0.5]}}),
        # the closed-form SP-NMSE overflows to inf; the output power's square overflows
        ("fig2", {"sweep": {"variable": "alpha", "values": [1.0, 1.3e154]}}),
        ("fig2", {"sweep": {"variable": "alpha", "values": [1.0, 1e160]}}),
        ("fig5", {"snr_db": 4000}),
        ("fig1", {"trials": 100, "sweep": {"variable": "snr_db", "values": [4000]}}),
        ("fig1", {"interferer_offsets_db": [2, 4, -4000]}),
    ])
    # a warning, such as numpy's on overflow, would print a second line
    @pytest.mark.filterwarnings("error")
    def test_nonfinite_or_overflowing_numbers_exit_one(self, tmp_path, capsys, preset, doc):
        out = tmp_path / "r.csv"
        cfg = write_config(tmp_path, doc)
        assert main(["run", cfg, "--preset", preset, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_snr_sweep_value_rejected_before_any_trial(
            self, tmp_path, capsys, monkeypatch):
        import caponplus.montecarlo as mc

        contexts = []
        monkeypatch.setattr(mc, "build_context", lambda *a: contexts.append(a))
        out = tmp_path / "r.csv"
        cfg = write_config(tmp_path, {"sweep": {"variable": "snr_db", "values": [0.0, 4000]}})
        assert main(["run", cfg, "--preset", "fig1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "4000" in err
        assert not out.exists()
        assert contexts == []

    @pytest.mark.parametrize("out_name", ["missing_dir/r.csv", "a_dir"])
    def test_unwritable_output_path_rejected_before_any_trial(
            self, tmp_path, capsys, monkeypatch, out_name):
        import caponplus.montecarlo as mc

        contexts = []
        monkeypatch.setattr(mc, "build_context", lambda *a: contexts.append(a))
        (tmp_path / "a_dir").mkdir()
        out = tmp_path / out_name
        cfg = write_config(tmp_path, TINY)
        assert main(["run", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write results to {out}: ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["a_dir", "cfg.json"]
        assert contexts == []

    def test_measured_psk_alpha_with_one_snapshot_rejected_before_any_trial(
            self, tmp_path, capsys, monkeypatch):
        # Each trial estimates the output kurtosis, which needs two samples.
        import caponplus.montecarlo as mc

        contexts = []
        monkeypatch.setattr(mc, "build_context", lambda *a: contexts.append(a))
        out = tmp_path / "r.csv"
        cfg = write_config(tmp_path, {
            "waveform": "psk8", "psk_alpha_mode": "measured", "snapshots": 1, "trials": 100,
        })
        argv = ["run", cfg, "--preset", "fig1", "--out", str(out), "--threads", "2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "psk_alpha_mode 'measured'" in err and "snapshots >= 2" in err
        assert not out.exists()
        assert contexts == []

    def test_high_snr_theory_rows_exit_zero(self, tmp_path):
        # The waveform-MSE dual forms are cross-checked at the scale of their
        # rounding.  At 120 dB they cancel terms of size gamma = 1e12.  With an
        # interferer 80 dB over the noise, 0.2 degrees from the SOI, the
        # weights that null it are long, and the rounding of w^H S w scales
        # with max|S| ||w||^2, far above the result.
        cases = [
            (["--preset", "fig1"], {
                "trials": 100, "seed": 3, "emit_theory": True,
                "sweep": {"variable": "snr_db", "values": [60, 90, 120]},
            }, 3),
            ([], {
                "regime": "oracle", "waveform": "gaussian", "trials": 100, "emit_theory": True,
                "soi_doa_deg": 10.0, "interferer_doas_deg": [10.2],
                "interferer_offsets_db": [-60.0],
                "sweep": {"variable": "snr_db", "values": [20.0]},
            }, 1),
        ]
        out = tmp_path / "r.csv"
        for preset, doc, points in cases:
            cfg = write_config(tmp_path, doc)
            assert main(["run", cfg, *preset, "--out", str(out)]) == 0
            with open(out, newline="") as fh:
                rows = list(csv.reader(fh))
            theory = [row[2] for row in rows[1:] if row[2].endswith("Theory")]
            assert theory.count("CaponTheory") == points and len(theory) == 4 * points

    @pytest.mark.parametrize("key, value", [
        ("snapshots", 60.0),
        ("trials", 150.0),
        ("antennas", 8.0),
        ("seed", 7.0),
        ("secondary_snapshots", 40.0),
    ])
    def test_integral_float_for_integer_key_exits_one(self, tmp_path, capsys, key, value):
        doc = {"regime": "c", "antennas": 8, "snapshots": 60, "secondary_snapshots": 40,
               "trials": 150, "seed": 7, "sweep": {"variable": "snr_db", "values": [0.0]}}
        assert build_run_config(doc).scenario.regime is Regime.C
        out = tmp_path / "r.csv"
        cfg = write_config(tmp_path, {**doc, key: value})
        assert main(["run", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key}: " in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_float_literal_overflow_exits_one(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"snr_db": 1e999}')
        with pytest.raises(ConfigError, match="1e999"):
            parse_config(str(path))
        assert main(["run", str(path), "--preset", "fig5"]) == 1
        assert capsys.readouterr().err.count("error: ") == 1

    def test_config_from_stdin_matches_config_file(self, tmp_path, monkeypatch):
        doc = {"sweep": {"variable": "alpha", "values": [0.0, 0.25, 1.0]}}
        piped, named = tmp_path / "piped.csv", tmp_path / "named.csv"
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        assert main(["run", "-", "--preset", "fig2", "--out", str(piped)]) == 0
        cfg = write_config(tmp_path, doc)
        assert main(["run", cfg, "--preset", "fig2", "--out", str(named)]) == 0
        assert piped.read_bytes() == named.read_bytes()
        assert piped.read_text().count("\n") == 4  # header + the three alpha values

    def test_alpha_sweep_preset_runs_fast(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert main(["run", "--preset", "fig2", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 66  # header + 65 alpha values
        assert all(row[2] == "CaponPlusTheory" for row in rows[1:])
        assert all(row[9] == "0" for row in rows[1:])
