"""Tests for backend validation and the CLI."""

import hashlib
import os

import pytest

from repro.analysis import artifacts
from repro.analysis.validation import ValidationReport, ValidationRow, cross_validate
from repro.cli import main
from repro.errors import WorkloadError


class TestCrossValidation:
    @pytest.fixture(scope="class")
    def report(self):
        return cross_validate(tile_vectors=1024, tiles=2)

    def test_rows_for_both_strategies(self, report):
        assert {r.strategy for r in report.rows} == {"uniform", "learned"}

    def test_ordering_agrees(self, report):
        assert report.ordering_agrees()

    def test_within_envelope(self, report):
        assert report.within_envelope()

    def test_ratio_math(self):
        row = ValidationRow("x", analytic_flash=1.0, event_flash=1.5)
        assert row.ratio == 1.5
        assert ValidationRow("y", 0.0, 1.0).ratio == float("inf")

    def test_report_helpers(self):
        rows = [ValidationRow("a", 1.0, 1.1), ValidationRow("b", 2.0, 5.0)]
        report = ValidationReport(rows=rows)
        assert report.ordering_agrees()
        assert not report.within_envelope()


class TestCli:
    def test_benchmarks_command(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "XMLCNN-S100M" in out

    def test_quickstart_command(self, capsys):
        assert main(["quickstart", "--labels", "1024"]) == 0
        out = capsys.readouterr().out
        assert "top-1 agreement" in out

    def test_figure_fig9(self, capsys):
        assert main(["figure", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "alignment_free" in out

    def test_figure_fig11(self, capsys):
        assert main(["figure", "fig11"]) == 0
        assert "channel 0" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["fig9", "fig11"])
    def test_figure_prints_the_artifact_table(self, name, capsys):
        assert main(["figure", name]) == 0
        assert capsys.readouterr().out == getattr(artifacts, name)().table + "\n"

    def test_validate_command(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "ordering agrees | -" in out and out.rstrip().endswith("True")

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    @pytest.mark.parametrize("duration", ["-1", "0", "nan", "inf"])
    def test_serve_rejects_non_positive_duration(self, duration, capsys):
        with pytest.raises(WorkloadError, match="--duration"):
            main(["serve", "--duration", duration])
        assert capsys.readouterr().out == ""

    def test_faults_rejects_non_numeric_scale(self, capsys):
        with pytest.raises(WorkloadError, match="--scales"):
            main(["faults", "--scales", "1,x"])
        assert capsys.readouterr().out == ""


#: sha256 (first 16 hex digits) of each command's stdout and of every file it
#: writes, with the temporary directory replaced by ``<tmp>``.  Run-manifest
#: file names are the run ids, so the keys pin those as well.  The Chrome
#: trace of plain ``repro trace`` is left out: its host-clock spans differ
#: from run to run.
CLI_OUTPUT_PINS = {
    "serve": (
        ["serve", "--duration", "0.05", "--seed", "3",
         "--out", "{tmp}/serve.json", "--run-dir", "{tmp}/runs",
         "--metrics-out", "{tmp}/serve.prom"],
        {
            "<stdout>": "6faeab82e726f36f",
            "runs/5cc5f55587603d24.json": "d6b57c1412bf9682",
            "serve.json": "fcf38d6b46585166",
            "serve.prom": "ec8fedcb350172dd",
        },
    ),
    "cluster": (
        ["cluster", "--requests", "2000", "--seed", "3",
         "--fault-plan", "node-crash=1", "--out", "{tmp}/cluster.json",
         "--attribution-out", "{tmp}/attribution.json",
         "--run-dir", "{tmp}/runs"],
        {
            "<stdout>": "32c32a1c5bf3b6f6",
            "attribution.json": "b59ab70010807082",
            "cluster.json": "10100003bbb08ee0",
            "runs/6d1ccafd1e9d512b.json": "540906e8e4ef198c",
        },
    ),
    "faults": (
        ["faults", "--labels", "256", "--queries", "2", "--scales", "1",
         "--out", "{tmp}/faults.json", "--run-dir", "{tmp}/runs"],
        {
            "<stdout>": "e5d8f6153a8071c3",
            "faults.json": "fa5740725d194a0d",
            "runs/c1f22eae39bd266a.json": "b5b060252ccc35d4",
        },
    ),
    "profile": (
        ["profile", "--labels", "1024", "--out", "{tmp}/profile.json",
         "--run-dir", "{tmp}/runs"],
        {
            "<stdout>": "e04171f09341c486",
            "profile.json": "1eb94494392aaad7",
            "runs/6c5f63accc74f455.json": "7be865459430cf58",
        },
    ),
    "quickstart": (
        ["quickstart", "--labels", "1024"],
        {"<stdout>": "84c3caebe72e8f76"},
    ),
    "trace-attribute": (
        ["trace", "attribute", "--requests", "800", "--seed", "3",
         "--out", "{tmp}/attribution.json",
         "--exemplar-out", "{tmp}/exemplar.json"],
        {
            "<stdout>": "87b127fae21c4e64",
            "attribution.json": "43dc1376bbbf0489",
            "exemplar.json": "2f545d5398dac402",
        },
    ),
}


class TestCliOutputPin:
    """Every listed command's stdout and files stay byte-identical."""

    @pytest.mark.parametrize("command", sorted(CLI_OUTPUT_PINS))
    def test_outputs_byte_identical(self, command, tmp_path, capsys):
        argv, expected = CLI_OUTPUT_PINS[command]
        tmp = str(tmp_path)
        assert main([arg.format(tmp=tmp) for arg in argv]) == 0

        def digest(text):
            normalised = text.replace(tmp, "<tmp>").encode()
            return hashlib.sha256(normalised).hexdigest()[:16]

        got = {"<stdout>": digest(capsys.readouterr().out)}
        for root, _, files in os.walk(tmp):
            for name in files:
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    key = os.path.relpath(path, tmp).replace(os.sep, "/")
                    got[key] = digest(fh.read())
        assert got == expected


class TestReportCommand:
    def test_report_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "REPORT.md"
        assert main(["report", "--output", str(out)]) == 0
        text = out.read_text()
        assert "# ECSSD reproduction report" in text
        assert "Fig. 8" in text and "Fig. 13" in text
        assert f"wrote {out} ({len(text)} chars)" in capsys.readouterr().out

    def test_report_to_stdout(self, monkeypatch, capsys):
        # Only the output branch differs from the run above, so the report
        # itself is stubbed rather than run a second time.
        monkeypatch.setattr(artifacts, "build_report", lambda: "# stub report\n")
        assert main(["report", "--output", "-"]) == 0
        assert capsys.readouterr().out == "# stub report\n\n"
