"""CSV export round-trips and the CLI sweep command."""

import csv

from repro.cli import main as cli_main
from repro.sim.export import rows_to_csv


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestCsv:
    def test_roundtrip(self, tmp_path):
        rows = [
            {"load": 0.1, "latency": 42.5},
            {"load": 0.2, "latency": 99.0},
        ]
        path = tmp_path / "sweep.csv"
        assert rows_to_csv(rows, str(path)) == 2
        back = read_csv(str(path))
        assert back[0]["load"] == "0.1"
        assert back[1]["latency"] == "99.0"

    def test_union_of_columns(self, tmp_path):
        rows = [{"a": 1}, {"b": 2}]
        path = tmp_path / "union.csv"
        rows_to_csv(rows, str(path))
        back = read_csv(str(path))
        assert set(back[0]) == {"a", "b"}
        assert back[0]["b"] == ""

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "new" / "nested" / "out.csv"
        assert rows_to_csv([{"a": 1}], str(path)) == 1
        assert read_csv(str(path)) == [{"a": "1"}]

    def test_bare_filename_needs_no_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert rows_to_csv([{"a": 1}], "bare.csv") == 1
        assert (tmp_path / "bare.csv").exists()

    def test_heterogeneous_rows_round_trip(self, tmp_path):
        rows = [
            {"load": 0.1, "latency": 12.0},
            {"load": 0.2, "latency": 15.0, "kills": 3},
            {"load": 0.3},
        ]
        path = tmp_path / "hetero.csv"
        assert rows_to_csv(rows, str(path)) == 3
        back = read_csv(str(path))
        # union of columns in first-seen order
        assert list(back[0]) == ["load", "latency", "kills"]
        assert back[1]["kills"] == "3"

    def test_missing_columns_get_restval(self, tmp_path):
        rows = [{"a": 1}, {"b": 2}]
        path = tmp_path / "restval.csv"
        rows_to_csv(rows, str(path))
        back = read_csv(str(path))
        # absent cells are written as the empty-string restval
        assert back[0]["b"] == "" and back[1]["a"] == ""


class TestCliSweep:
    def test_sweep_prints_and_writes(self, tmp_path, capsys):
        out = tmp_path / "cr.csv"
        code = cli_main(
            [
                "sweep", "--routing", "cr", "--radix", "4",
                "--loads", "0.1,0.2", "--message-length", "8",
                "--warmup", "50", "--measure", "200", "--drain", "2000",
                "--out", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "load sweep" in text
        assert out.exists()
        back = read_csv(str(out))
        assert len(back) == 2
        assert float(back[0]["latency_mean"]) > 0
