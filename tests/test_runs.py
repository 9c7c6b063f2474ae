"""Tests for run provenance and divergence detection (repro.obs.runs/digest)."""

import json

import pytest

from repro.errors import ConfigurationError, ObservabilityError
from repro.obs import hooks
from repro.obs import (
    DIGEST_TRACK,
    DigestRecorder,
    RunManifest,
    RunRegistry,
    Tracer,
    compare_many,
    compare_runs,
    derive_run_id,
    diverge_digest_entries,
    diverge_runs,
    spans_in_window,
    state_digest,
)
from repro.obs.digest import canonical_json
from repro.cluster import build_single_deployment, single_deployment_rate
from repro.serve import AffineServiceModel
from repro.workloads.streams import poisson_arrivals


@pytest.fixture(autouse=True)
def _restore_hooks():
    with hooks.installed():
        yield


def _recorder_track(seed, steps=40, interval=8):
    recorder = DigestRecorder(interval=interval, label="t")
    for i in range(steps):
        recorder.tick(i * 0.1, counter=i * seed, depth=i % 3)
    return recorder


# --- digests -----------------------------------------------------------------------
class TestDigest:
    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1.5, None]}) == '{"a":[1.5,null],"b":1}'
        with pytest.raises(ConfigurationError):
            canonical_json({"x": object()})

    def test_state_digest_stable_and_sensitive(self):
        assert state_digest({"a": 1}) == state_digest({"a": 1})
        assert state_digest({"a": 1}) != state_digest({"a": 2})
        assert len(state_digest({})) == 16

    def test_recorder_interval_semantics(self):
        recorder = DigestRecorder(interval=4)
        entries = [recorder.tick(i * 0.1, n=i) for i in range(10)]
        captured = [e for e in entries if e is not None]
        assert len(captured) == 2  # ticks 4 and 8
        assert [e.index for e in recorder.entries] == [0, 1]
        assert recorder.entries[0].tick == 4

    def test_capture_emits_digest_track_instant(self):
        tracer = Tracer()
        hooks.swap(tracer=tracer)
        recorder = DigestRecorder(interval=1, label="lbl")
        entry = recorder.capture(0.5, n=1)
        instants = [s for s in tracer.spans if s.track == DIGEST_TRACK]
        assert len(instants) == 1
        assert instants[0].attrs["digest"] == entry.digest
        assert instants[0].sim_start == 0.5

    def test_rejects_bad_interval(self):
        with pytest.raises(ConfigurationError):
            DigestRecorder(interval=0)

    def test_entry_round_trip(self):
        entry = _recorder_track(1).entries[0]
        from repro.obs import DigestEntry

        assert DigestEntry.from_dict(entry.to_dict()) == entry


class TestDivergence:
    def test_identical_tracks_do_not_diverge(self):
        a, b = _recorder_track(3), _recorder_track(3)
        report = diverge_digest_entries(a.entries, b.entries)
        assert not report.diverged
        assert report.compared == len(a.entries) > 0
        assert "no divergence" in report.render()

    def test_perturbed_state_flagged_with_changed_keys(self):
        a, b = _recorder_track(3), _recorder_track(5)
        report = diverge_digest_entries(a.entries, b.entries, "runA", "runB")
        assert report.diverged
        divergence = report.divergence
        assert divergence.index == 0
        assert divergence.changed_keys == ["counter"]
        assert divergence.sim_time_a is not None
        rendered = report.render()
        assert "DIVERGED at digest #0" in rendered
        assert "counter" in rendered

    def test_length_mismatch_is_divergence(self):
        a, b = _recorder_track(3, steps=40), _recorder_track(3, steps=24)
        report = diverge_digest_entries(a.entries, b.entries)
        assert report.diverged
        assert report.divergence.index == len(b.entries)
        assert report.divergence.digest_b is None
        assert report.divergence.last_match_index == len(b.entries) - 1
        assert "runs differ in length" in report.render()

    def test_empty_tracks_compare_equal(self):
        assert not diverge_digest_entries([], []).diverged

    def test_spans_in_window_overlap(self):
        tracer = Tracer()
        tracer.add_span("before", 0.0, 1.0)
        tracer.add_span("inside", 2.0, 3.0)
        tracer.add_span("after", 9.0, 10.0)
        with tracer.span("wall-only"):
            pass
        names = [s.name for s in spans_in_window(tracer.spans, 1.5, 4.0)]
        assert names == ["inside"]
        assert len(spans_in_window(tracer.spans, None, None)) == 3


# --- manifests + registry ----------------------------------------------------------
class TestRunManifest:
    def test_run_id_pure_function_of_inputs(self):
        base = dict(config={"a": 1}, seed=7, workload={"kind": "w"})
        assert derive_run_id(**base) == derive_run_id(**base)
        assert derive_run_id(**base) != derive_run_id(
            config={"a": 2}, seed=7, workload={"kind": "w"}
        )
        assert derive_run_id(**base) != derive_run_id(
            config={"a": 1}, seed=8, workload={"kind": "w"}
        )
        assert derive_run_id(**base) != derive_run_id(
            config={"a": 1}, seed=7, workload={"kind": "w"}, version="other"
        )

    def test_build_save_load_round_trip(self, tmp_path):
        manifest = RunManifest.build(
            label="demo",
            seed=3,
            config={"x": 1.5},
            workload={"kind": "poisson"},
            metrics={"p99_ms": 4.0},
            digests=_recorder_track(2).entries,
        )
        path = str(tmp_path / "m.json")
        manifest.save(path)
        loaded = RunManifest.load(path)
        assert loaded.to_dict() == manifest.to_dict()
        assert loaded.digests == manifest.digests
        assert loaded.run_id == manifest.run_id

    def test_artifact_indexing(self, tmp_path):
        artifact = tmp_path / "out.json"
        artifact.write_text("{}\n", encoding="utf-8")
        manifest = RunManifest.build("a", 0, {}, {})
        entry = manifest.add_artifact("summary", str(artifact))
        assert len(entry["sha256"]) == 64
        with pytest.raises(ObservabilityError):
            manifest.add_artifact("gone", str(tmp_path / "missing.json"))

    def test_load_errors(self, tmp_path):
        with pytest.raises(ObservabilityError):
            RunManifest.load(str(tmp_path / "nope.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ObservabilityError):
            RunManifest.load(str(bad))


class TestRunRegistry:
    def _manifest(self, label="demo", seed=0):
        # label is part of the config here so differently-labelled runs get
        # distinct run IDs (label alone is display metadata, not identity).
        return RunManifest.build(
            label, seed, {"seed": seed, "label": label}, {"kind": "t"}
        )

    def test_register_list_get(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "runs"))
        a = self._manifest(seed=1)
        b = self._manifest(seed=2)
        registry.register(a)
        registry.register(b)
        assert registry.run_ids() == sorted([a.run_id, b.run_id])
        assert registry.get(a.run_id).seed == 1
        # Unambiguous prefix resolves; unknown raises with known ids listed.
        assert registry.get(a.run_id[:8]).run_id == a.run_id
        with pytest.raises(ObservabilityError, match="no run"):
            registry.get("ffffffff")

    def test_reregistering_identical_run_is_idempotent(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "runs"))
        registry.register(self._manifest())
        registry.register(self._manifest())
        assert len(registry.run_ids()) == 1

    def test_query_filters(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "runs"))
        registry.register(self._manifest(label="x", seed=1))
        registry.register(self._manifest(label="y", seed=1))
        registry.register(self._manifest(label="x", seed=2))
        assert len(registry.query(label="x")) == 2
        assert len(registry.query(seed=1)) == 2
        assert len(registry.query(label="x", seed=2)) == 1
        assert registry.query(label="z") == []


class TestCompareAndDiverge:
    def test_compare_runs_applies_tolerances(self):
        a = RunManifest.build("a", 0, {}, {}, metrics={"p99_ms": 10.0})
        b = RunManifest.build("b", 0, {}, {}, metrics={"p99_ms": 10.5})
        c = RunManifest.build("c", 0, {}, {}, metrics={"p99_ms": 20.0})
        assert compare_runs(a, b).ok  # within the 10% p99 band
        report = compare_runs(a, c)
        assert not report.ok
        assert report.regressions[0].key == "p99_ms"

    def test_compare_many_anchors_on_the_baseline(self):
        base = RunManifest.build("base", 0, {}, {}, metrics={"p99_ms": 10.0})
        ok = RunManifest.build("ok", 1, {}, {}, metrics={"p99_ms": 10.2})
        bad = RunManifest.build("bad", 2, {}, {}, metrics={"p99_ms": 30.0})
        empty = RunManifest.build("empty", 3, {}, {})
        results = compare_many(base, [ok, bad, empty])
        assert [m.run_id for m, _ in results] == [
            ok.run_id, bad.run_id, empty.run_id
        ]
        assert results[0][1].ok
        assert not results[1][1].ok
        # A run with no metrics still compares (flagged, not raised).
        missing = results[2][1]
        assert not missing.ok
        assert [e.candidate for e in missing.entries] == [None]

    def test_diverge_runs_uses_digest_tracks(self):
        a = RunManifest.build("a", 0, {}, {}, digests=_recorder_track(1).entries)
        b = RunManifest.build("b", 0, {}, {}, digests=_recorder_track(1).entries)
        c = RunManifest.build("c", 1, {}, {}, digests=_recorder_track(9).entries)
        assert not diverge_runs(a, b).diverged
        report = diverge_runs(a, c)
        assert report.diverged
        assert report.run_a == a.run_id


# --- serving integration -----------------------------------------------------------
class TestServingDigests:
    def _run(self, seed, interval=64):
        service = AffineServiceModel(
            base=2.0e-4, per_query=2.0e-5, knee=32, candidate_fraction=0.7
        )
        recorder = DigestRecorder(interval=interval, label="serve")
        simulator = build_single_deployment(
            service, 0.02, shards=2, digest_recorder=recorder
        )
        rate = 1.2 * single_deployment_rate(service, 0.02, shards=2)
        arrivals = poisson_arrivals(rate, 2_000, seed=seed)
        report = simulator.run(arrivals)
        return recorder, report

    def test_same_seed_runs_are_digest_identical(self):
        recorder_a, _ = self._run(seed=5)
        recorder_b, _ = self._run(seed=5)
        assert len(recorder_a.entries) > 2
        report = diverge_digest_entries(recorder_a.entries, recorder_b.entries)
        assert not report.diverged

    def test_perturbed_seed_diverges_with_sim_time(self):
        recorder_a, _ = self._run(seed=5)
        recorder_b, _ = self._run(seed=6)
        report = diverge_digest_entries(recorder_a.entries, recorder_b.entries)
        assert report.diverged
        divergence = report.divergence
        # The report names the first mismatched digest and its sim time.
        assert divergence.sim_time_a is not None or divergence.sim_time_b is not None
        assert divergence.digest_a != divergence.digest_b

    def test_final_capture_always_present(self):
        recorder, report = self._run(seed=5, interval=10**9)
        # Interval never fires, but the end-of-run capture still lands.
        assert len(recorder.entries) == 1
        assert recorder.entries[0].state["completed"] == report.admitted


# --- fault-harness integration -----------------------------------------------------
class TestFaultDigests:
    def _matrix(self, seed):
        from repro.faults.harness import run_fault_matrix

        recorder = DigestRecorder(label="faults")
        run_fault_matrix(
            num_labels=256,
            num_queries=4,
            seed=seed,
            rber_scales=(5.0,),
            fault_classes=("rber",),
            digest_recorder=recorder,
        )
        return recorder

    def test_fault_matrix_digests_replayable_and_seed_sensitive(self):
        a, b, c = self._matrix(0), self._matrix(0), self._matrix(1)
        assert len(a.entries) == 1  # one capture per matrix cell
        assert not diverge_digest_entries(a.entries, b.entries).diverged
        assert diverge_digest_entries(a.entries, c.entries).diverged


# --- CLI ---------------------------------------------------------------------------
class TestRunsCli:
    def test_serve_run_dir_then_list_show_diverge(self, tmp_path, capsys):
        from repro.cli import main

        run_dir = str(tmp_path / "runs")
        argv = [
            "serve", "--duration", "0.05", "--seed", "3", "--tiles", "2",
            "--run-dir", run_dir,
        ]
        assert main(argv) == 0
        assert main(argv) == 0  # identical run: same id, idempotent register
        registry = RunRegistry(run_dir)
        ids = registry.run_ids()
        assert len(ids) == 1
        capsys.readouterr()

        assert main(["runs", "--run-dir", run_dir, "list"]) == 0
        assert ids[0] in capsys.readouterr().out

        assert main(["runs", "--run-dir", run_dir, "show", ids[0][:8]]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["run_id"] == ids[0]

        # Self-divergence of a deterministic run is zero (exit 0).
        assert main(
            ["runs", "--run-dir", run_dir, "diverge", ids[0], ids[0]]
        ) == 0
        assert "no divergence" in capsys.readouterr().out

    def test_diverge_exit_code_on_mismatch(self, tmp_path, capsys):
        from repro.cli import main

        registry = RunRegistry(str(tmp_path / "runs"))
        a = RunManifest.build("a", 0, {}, {}, digests=_recorder_track(1).entries)
        b = RunManifest.build("b", 1, {}, {}, digests=_recorder_track(4).entries)
        registry.register(a)
        registry.register(b)
        code = main(
            ["runs", "--run-dir", registry.root, "diverge", a.run_id, b.run_id]
        )
        assert code == 1
        assert "DIVERGED" in capsys.readouterr().out

    def test_compare_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        registry = RunRegistry(str(tmp_path / "runs"))
        a = RunManifest.build("a", 0, {}, {}, metrics={"goodput_qps": 100.0})
        b = RunManifest.build("b", 1, {}, {}, metrics={"goodput_qps": 10.0})
        registry.register(a)
        registry.register(b)
        assert main(
            ["runs", "--run-dir", registry.root, "compare", a.run_id, a.run_id]
        ) == 0
        capsys.readouterr()
        assert main(
            ["runs", "--run-dir", registry.root, "compare", a.run_id, b.run_id]
        ) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_subcommand_n_way(self, tmp_path, capsys):
        from repro.cli import main

        registry = RunRegistry(str(tmp_path / "runs"))
        base = RunManifest.build("base", 0, {}, {}, metrics={"p99_ms": 10.0})
        ok = RunManifest.build("ok", 1, {}, {}, metrics={"p99_ms": 10.1})
        bad = RunManifest.build("bad", 2, {}, {}, metrics={"p99_ms": 40.0})
        for manifest in (base, ok, bad):
            registry.register(manifest)
        code = main([
            "runs", "--run-dir", registry.root, "compare",
            base.run_id, ok.run_id, bad.run_id,
        ])
        out = capsys.readouterr().out
        assert code == 1  # worst candidate wins the exit code
        assert out.count("==") >= 2  # per-candidate headers
        assert "REGRESSION" in out

    def test_compare_subcommand_missing_ok(self, tmp_path, capsys):
        from repro.cli import main

        registry = RunRegistry(str(tmp_path / "runs"))
        base = RunManifest.build("base", 0, {}, {}, metrics={"p99_ms": 10.0})
        ok = RunManifest.build("ok", 1, {}, {}, metrics={"p99_ms": 10.1})
        registry.register(base)
        registry.register(ok)
        with pytest.raises(ObservabilityError):
            main([
                "runs", "--run-dir", registry.root, "compare",
                base.run_id, "absent-run",
            ])
        code = main([
            "runs", "--run-dir", registry.root, "compare",
            base.run_id, "absent-run", ok.run_id, "--missing-ok",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "skipping absent-run" in out

    def test_compare_subcommand_all_missing_candidates(self, tmp_path, capsys):
        from repro.cli import main

        registry = RunRegistry(str(tmp_path / "runs"))
        base = RunManifest.build("base", 0, {}, {}, metrics={"p99_ms": 10.0})
        registry.register(base)
        code = main([
            "runs", "--run-dir", registry.root, "compare",
            base.run_id, "absent-run", "--missing-ok",
        ])
        assert code == 0
        assert "at least one comparable run" in capsys.readouterr().out
