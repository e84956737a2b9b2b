import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
TOOL = TOOLS / "results_digests.py"
PINNED = TOOL.with_suffix(".txt")


def load_tool(path=TOOL):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def digests(monkeypatch):
    """``tools/results_digests.py`` with its run list cut to one small fig1 run."""
    module = load_tool()
    monkeypatch.setattr(module, "_runs", lambda: iter([
        ("fig1", "fig1-small", {"trials": 100, "sweep": {"variable": "snr_db", "values": [0.0]}},
         "csv"),
    ]))
    return module


class TestResultsDigestsCompare:
    def test_same_table_passes_and_changed_digest_is_named(self, digests, tmp_path, capsys):
        assert digests.main([str(tmp_path / "a")]) == 0
        table = capsys.readouterr().out
        assert len(table.splitlines()) == 2
        saved = tmp_path / "saved.txt"
        saved.write_text(table)
        assert digests.main([str(tmp_path / "b"), "--compare", str(saved)]) == 0
        assert "2 identical, 0 differ" in capsys.readouterr().out

        first = table.splitlines()[0]
        name = first.split()[1]
        saved.write_text(table.replace(first, "0" * 12 + " " + name)
                         + "000000000000 gone.csv\nMISMATCH ignored\n")
        assert digests.main([str(tmp_path / "c"), "--compare", str(saved)]) == 1
        out = capsys.readouterr().out
        assert f"DIFFERS {name}: saved 000000000000, here {first.split()[0]}" in out
        assert "DIFFERS gone.csv: saved 000000000000, here missing" in out
        assert "1 identical, 2 differ" in out


class TestResultsDigestsRtol:
    def test_largest_change_per_column_and_its_gate(self, digests, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert digests.main([str(a)]) == 0 and digests.main([str(b)]) == 0
        capsys.readouterr()
        assert digests.main([str(a), "--rtol", "0", str(b)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [f"ok {column}: largest relative change 0"
                       for column in digests.NUMERIC_COLUMNS]

        # move one cell of one file by a relative 1e-9
        path = b / "fig1-small-threads2.csv"
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[5] = repr(float(cells[5]) * (1 + 1e-9))  # mean_se_nmse of the second row
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert digests.main([str(a), "--rtol", "1e-6", str(b)]) == 0
        capsys.readouterr()
        assert digests.main([str(a), "--rtol", "1e-12", str(b)]) == 1
        out = capsys.readouterr().out
        change = float(out.split("EXCEEDS mean_se_nmse: largest relative change ")[1].split()[0])
        assert change == pytest.approx(1e-9, rel=1e-3)
        assert f"at fig1-small-threads2.csv (0.0, '{cells[2]}')" in out
        assert "ok mean_rel_bias: largest relative change 0" in out

        # a row or a file missing on one side fails at any tolerance
        path.write_text("\n".join(lines[:2]) + "\n")
        assert digests.main([str(a), "--rtol", "1", str(b)]) == 1
        assert "MISSING ROW fig1-small-threads2.csv" in capsys.readouterr().out
        path.unlink()
        assert digests.main([str(a), "--rtol", "1", str(b)]) == 1
        assert "MISSING fig1-small-threads2.csv" in capsys.readouterr().out

    def test_rtol_must_be_a_number(self, digests, tmp_path):
        with pytest.raises(SystemExit) as info:
            digests.main([str(tmp_path), "--rtol", "tight", str(tmp_path)])
        assert info.value.code == 2


class TestPinnedDigestTable:
    def test_pinned_table_names_every_run_once(self):
        """``tools/results_digests.txt`` has one line per results file the tool
        writes, in its order, so a run cannot be added without a re-pin."""
        tool = load_tool()
        expected = tool._file_names()
        lines = PINNED.read_text().splitlines()
        assert len(lines) == len(expected)
        assert list(tool._read_table(PINNED)) == expected


class TestPairCpu:
    def test_prints_one_json_line_per_run(self, capsys):
        tool = load_tool(TOOLS / "pair_cpu.py")
        assert tool.main(["fig1", "100"]) == 0
        line, = capsys.readouterr().out.splitlines()
        result = json.loads(line)
        assert {k: result[k] for k in ("preset", "trials", "points", "repeats")} == {
            "preset": "fig1", "trials": 100, "points": 5, "repeats": tool.REPEATS}
        assert result["us_per_pair"] > 0.0

    @pytest.mark.parametrize("args", [["fig2", "100"], ["fig1", "50"]])
    def test_rejects_alpha_sweep_and_too_few_trials(self, args):
        with pytest.raises(SystemExit) as info:
            load_tool(TOOLS / "pair_cpu.py").main(args)
        assert info.value.code == 2
