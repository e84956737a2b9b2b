import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "results_digests.py"


@pytest.fixture
def digests(monkeypatch):
    """``tools/results_digests.py`` with its run list cut to one small fig1 run."""
    spec = importlib.util.spec_from_file_location("results_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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
