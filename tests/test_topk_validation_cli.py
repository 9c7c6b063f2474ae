"""Tests for streaming top-k, backend validation, and the CLI."""

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.validation import ValidationReport, ValidationRow, cross_validate
from repro.cli import main
from repro.errors import WorkloadError
from repro.screening.topk import StreamingTopK, offline_topk


class TestStreamingTopK:
    def test_matches_offline_reference(self):
        rng = np.random.default_rng(0)
        batch, n, k = 4, 200, 5
        scores = rng.normal(size=(batch, n))
        labels = np.tile(np.arange(n), (batch, 1))
        merger = StreamingTopK(batch, k)
        # Feed in three arbitrary tiles.
        for start, stop in ((0, 70), (70, 150), (150, 200)):
            merger.update_tile(
                [labels[q, start:stop] for q in range(batch)],
                [scores[q, start:stop] for q in range(batch)],
            )
        got_labels, got_scores = merger.results()
        want_labels, want_scores = offline_topk(labels, scores, k)
        np.testing.assert_array_equal(got_labels, want_labels)
        np.testing.assert_allclose(got_scores, want_scores)

    def test_threshold_tightens(self):
        merger = StreamingTopK(batch=1, k=2)
        assert merger.threshold(0) == float("-inf")
        merger.update(0, np.array([1, 2]), np.array([5.0, 3.0]))
        assert merger.threshold(0) == 3.0
        merger.update(0, np.array([3]), np.array([4.0]))
        assert merger.threshold(0) == 4.0

    def test_padding_when_fewer_than_k(self):
        merger = StreamingTopK(batch=1, k=5)
        merger.update(0, np.array([9]), np.array([1.0]))
        labels, scores = merger.results()
        assert labels[0, 0] == 9
        assert (labels[0, 1:] == -1).all()
        assert np.isneginf(scores[0, 1:]).all()

    def test_buffer_accounting(self):
        merger = StreamingTopK(batch=8, k=5)
        assert merger.buffer_bytes == 8 * 5 * 8
        assert merger.fits_output_buffer(1024)
        big = StreamingTopK(batch=64, k=16)
        assert not big.fits_output_buffer(1024)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            StreamingTopK(0, 5)
        with pytest.raises(WorkloadError):
            StreamingTopK(4, 0)
        merger = StreamingTopK(2, 3)
        with pytest.raises(WorkloadError):
            merger.update(5, np.array([0]), np.array([1.0]))
        with pytest.raises(WorkloadError):
            merger.update(0, np.array([0, 1]), np.array([1.0]))
        with pytest.raises(WorkloadError):
            merger.update_tile([np.array([0])], [np.array([1.0])])

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_streaming_equals_offline_property(self, seed):
        """Invariant: any tiling of the score stream yields the exact
        offline top-k (ties broken by label, matching the reference)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 120))
        k = int(rng.integers(1, 8))
        scores = np.round(rng.normal(size=(2, n)), 2)  # force some ties
        labels = np.tile(np.arange(n), (2, 1))
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(3, n - 1), replace=False))
        merger = StreamingTopK(2, k)
        prev = 0
        for cut in list(cuts) + [n]:
            merger.update_tile(
                [labels[q, prev:cut] for q in range(2)],
                [scores[q, prev:cut] for q in range(2)],
            )
            prev = cut
        got_labels, got_scores = merger.results()
        want_labels, want_scores = offline_topk(labels, scores, k)
        np.testing.assert_allclose(got_scores, want_scores)
        np.testing.assert_array_equal(got_labels, want_labels)


class TestOfflineTopk:
    def test_shape_mismatch(self):
        with pytest.raises(WorkloadError):
            offline_topk(np.zeros((1, 3)), np.zeros((1, 4)), 2)

    def test_k_larger_than_n(self):
        labels, scores = offline_topk(
            np.array([[7, 8]]), np.array([[1.0, 2.0]]), k=5
        )
        assert labels[0, 0] == 8
        assert (labels[0, 2:] == -1).all()


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
        assert "ch0" in capsys.readouterr().out

    def test_validate_command(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "ordering agrees: True" in out

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
            "<stdout>": "9cbc74a5b245a4f7",
            "runs/4ef7215430ae3103.json": "5bcdefe6b7b40c76",
            "serve.json": "e14c9017ae26276e",
            "serve.prom": "f7a52e4b8a8a6915",
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
        assert main(["report", "--output", str(out), "--queries", "8",
                     "--tiles", "3"]) == 0
        text = out.read_text()
        assert "# ECSSD reproduction report" in text
        assert "Fig. 8" in text and "Fig. 13" in text

    def test_report_to_stdout(self, capsys):
        assert main(["report", "--output", "-", "--queries", "8",
                     "--tiles", "3"]) == 0
        assert "reproduction report" in capsys.readouterr().out


class TestReportBuilder:
    def test_section_filtering(self):
        from repro.analysis.report_builder import build_report

        text = build_report(queries=8, sample_tiles=3, sections=["fig9"])
        assert "Fig. 9" in text
        assert "Fig. 12" not in text
