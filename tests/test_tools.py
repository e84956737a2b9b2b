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


class TestResultsDigestsZscore:
    def test_z_per_mean_cell_and_largest_per_column(self, digests, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert digests.main([str(a)]) == 0 and digests.main([str(b)]) == 0
        capsys.readouterr()
        assert digests.main([str(a), "--zscore", str(b)]) == 0
        out = capsys.readouterr().out.splitlines()
        rows = [line for line in out if line.startswith("z ")]
        assert len(rows) == 2 * 4  # two files of one point and four methods
        assert all(line.endswith("mean_rel_bias +0.00 mean_se_nmse +0.00 mean_sp_nmse +0.00")
                   for line in rows)
        assert out[len(rows):] == [f"largest |z| mean_{metric}: 0.00" for metric in digests.METRICS]

        # move one mean by 3 of its stderr: with equal stderr on both sides, z = 3 / sqrt(2)
        path = b / "fig1-small-threads2.csv"
        lines = path.read_text().splitlines()
        header, cells = lines[0].split(","), lines[2].split(",")
        mean, stderr = header.index("mean_sp_nmse"), header.index("stderr_sp_nmse")
        cells[mean] = repr(float(cells[mean]) - 3 * float(cells[stderr]))
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert digests.main([str(a), "--zscore", str(b)]) == 0
        out = capsys.readouterr().out
        where = f"fig1-small-threads2.csv (0.0, '{cells[header.index('method')]}')"
        assert f"z {where}: mean_rel_bias +0.00 mean_se_nmse +0.00 mean_sp_nmse +2.12" in out
        assert f"largest |z| mean_sp_nmse: 2.12 at {where}" in out
        assert "largest |z| mean_rel_bias: 0.00\n" in out

        # a moved cell with no stderr on either side has an infinite z and fails
        cells[stderr] = "0.0"
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        path_a = a / path.name
        lines_a = path_a.read_text().splitlines()
        cells_a = lines_a[2].split(",")
        cells_a[stderr] = "0.0"
        lines_a[2] = ",".join(cells_a)
        path_a.write_text("\n".join(lines_a) + "\n")
        assert digests.main([str(a), "--zscore", str(b)]) == 1
        assert f"largest |z| mean_sp_nmse: inf at {where}" in capsys.readouterr().out

        # equal NaN means give a NaN z, which stays the largest past the later
        # rows and files and fails
        path.write_text(path_a.read_text())
        for side in (path, path_a):
            lines = side.read_text().splitlines()
            cells = lines[1].split(",")
            cells[mean] = "nan"
            lines[1] = ",".join(cells)
            side.write_text("\n".join(lines) + "\n")
        assert digests.main([str(a), "--zscore", str(b)]) == 1
        where = f"fig1-small-threads2.csv (0.0, '{cells[header.index('method')]}')"
        assert f"largest |z| mean_sp_nmse: nan at {where}" in capsys.readouterr().out

        # a file missing on one side fails
        path.unlink()
        assert digests.main([str(a), "--zscore", str(b)]) == 1
        assert "MISSING fig1-small-threads2.csv" in capsys.readouterr().out


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
    # fig1 runs fixed weights at 5 SNRs; fig6 runs regime d at 12 T0s
    @pytest.mark.parametrize("preset, points", [("fig1", 5), ("fig6", 12)])
    def test_prints_one_json_line_per_run(self, capsys, preset, points):
        tool = load_tool(TOOLS / "pair_cpu.py")
        assert tool.main([preset, "100"]) == 0
        line, = capsys.readouterr().out.splitlines()
        result = json.loads(line)
        assert {k: result[k] for k in ("preset", "trials", "points", "repeats")} == {
            "preset": preset, "trials": 100, "points": points, "repeats": tool.REPEATS}
        assert result["us_per_pair"] > 0.0
        assert result["minflt_per_pair"] >= 0.0
        assert 0.0 <= result["sys_share"] <= 1.0

    @pytest.mark.parametrize("args", [["fig2", "100"], ["fig1", "50"]])
    def test_rejects_alpha_sweep_and_too_few_trials(self, args):
        with pytest.raises(SystemExit) as info:
            load_tool(TOOLS / "pair_cpu.py").main(args)
        assert info.value.code == 2
