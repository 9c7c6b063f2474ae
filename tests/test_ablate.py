"""Tests for the ablation campaign engine (repro.ablate).

The contracts pinned here are the ones the subsystem exists for:

* matrix generation is deterministic — the same spec yields the same cell
  run IDs, in the same order, every time;
* a killed campaign resumes idempotently from the run registry with zero
  re-executed cells;
* a parallel (multi-process) campaign's report is byte-identical to a
  serial one;
* importance scoring recovers the sign and rank of known synthetic
  effects.
"""

import json

import pytest

from repro.ablate import (
    Axis,
    CampaignSpec,
    axis,
    build_report,
    builtin_campaign,
    campaign_names,
    cell_identity,
    generate_matrix,
    get_runner,
    metric_direction,
    metric_harm,
    register_runner,
    report_from_registry,
    run_campaign,
    score_importance,
    smoke_campaign,
)
from repro.errors import AblationError, ConfigurationError
from repro.obs.runs import RunRegistry, derive_run_id

#: Synthetic campaign with declared effects: naive MAC hurts a lot, the
#: homogeneous layout hurts some, and the "boost" level actually *helps*.
EFFECTS = {
    "mac=naive": {"goodput": -0.40, "p99": 0.50},
    "layout=homo": {"goodput": -0.10, "p99": 0.10},
    "cache=boost": {"goodput": 0.20, "p99": -0.10},
}


def synthetic_spec(mode="one-factor", seed=3, challenger=None):
    return CampaignSpec(
        name="synthetic-test",
        runner="synthetic",
        mode=mode,
        seed=seed,
        axes=(
            Axis("mac", ("cfp32", "naive"), "cfp32"),
            Axis("layout", ("hetero", "homo"), "hetero"),
            Axis("cache", ("on", "boost"), "on"),
        ),
        params={"effects": EFFECTS},
        challenger=challenger,
    )


class TestSpec:
    def test_axis_validation(self):
        with pytest.raises(ConfigurationError):
            Axis("a", ("only",), "only")
        with pytest.raises(ConfigurationError):
            Axis("a", ("x", "x"), "x")
        with pytest.raises(ConfigurationError):
            Axis("a", ("x", "y"), "z")

    def test_axis_helper_defaults_champion_to_first_level(self):
        built = axis("mac", ("cfp32", "naive"))
        assert built.champion == "cfp32"
        assert built.ablations == ("naive",)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            synthetic_spec(mode="nonsense")
        with pytest.raises(ConfigurationError):
            synthetic_spec(challenger={"mac": "naive"})  # not ab mode
        with pytest.raises(ConfigurationError):
            synthetic_spec(mode="ab")  # ab needs a challenger
        with pytest.raises(ConfigurationError):
            synthetic_spec(mode="ab", challenger={"bogus": "x"})
        with pytest.raises(ConfigurationError):
            synthetic_spec(mode="ab", challenger={"mac": "unknown"})

    def test_spec_json_round_trip(self):
        spec = synthetic_spec(mode="ab", challenger={"mac": "naive"})
        clone = CampaignSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert clone == spec

    def test_champion_assignment(self):
        assert synthetic_spec().champion_assignment == {
            "mac": "cfp32", "layout": "hetero", "cache": "on",
        }


class TestMatrix:
    def test_same_spec_same_cell_ids(self):
        first = generate_matrix(synthetic_spec())
        second = generate_matrix(synthetic_spec())
        assert first.cell_ids() == second.cell_ids()
        assert [c.assignment for c in first.cells] == [
            c.assignment for c in second.cells
        ]

    def test_cell_id_is_manifest_identity(self):
        spec = synthetic_spec()
        matrix = generate_matrix(spec)
        for cell in matrix.cells:
            config, workload = cell_identity(spec, cell.assignment)
            assert cell.cell_id == derive_run_id(config, spec.seed, workload)

    def test_one_factor_shape(self):
        matrix = generate_matrix(synthetic_spec())
        assert len(matrix.cells) == 4  # champion + one ablation per axis
        assert matrix.cells[0].is_champion
        assert matrix.champion is matrix.cells[0]
        ablations = [
            (c.ablated_axis, c.ablated_level)
            for c in matrix.cells
            if not c.is_champion
        ]
        assert ablations == [
            ("mac", "naive"), ("layout", "homo"), ("cache", "boost"),
        ]

    def test_factorial_shape(self):
        matrix = generate_matrix(synthetic_spec(mode="factorial"))
        assert len(matrix.cells) == 8
        assert matrix.cells[0].is_champion
        assert len(set(matrix.cell_ids())) == 8

    def test_ab_shape(self):
        spec = synthetic_spec(mode="ab", challenger={"mac": "naive"})
        matrix = generate_matrix(spec)
        assert len(matrix.cells) == 2
        assert matrix.cells[1].assignment["mac"] == "naive"

    def test_ab_identical_challenger_rejected(self):
        spec = synthetic_spec(mode="ab", challenger={"mac": "cfp32"})
        with pytest.raises(AblationError):
            generate_matrix(spec)

    def test_seed_changes_every_cell_id(self):
        a = set(generate_matrix(synthetic_spec(seed=1)).cell_ids())
        b = set(generate_matrix(synthetic_spec(seed=2)).cell_ids())
        assert not a & b


class TestImportance:
    def test_directions(self):
        assert metric_direction("p99_ms") == "higher_is_worse"
        assert metric_direction("goodput_qps") == "lower_is_worse"
        assert metric_direction("mystery_count") is None

    def test_harm_sign_and_bounds(self):
        assert metric_harm("p99_ms", 10.0, 20.0) == pytest.approx(0.5)
        assert metric_harm("goodput_qps", 100.0, 50.0) == pytest.approx(0.5)
        assert metric_harm("shed_rate", 0.0, 1.0) == pytest.approx(1.0)
        assert metric_harm("shed_rate", 0.0, 0.0) == pytest.approx(0.0)
        assert metric_harm("mystery_count", 1.0, 2.0) is None

    def test_known_effects_recovered(self):
        result = run_campaign(synthetic_spec())
        ranking = result.report.ranking
        assert [(e.axis, e.level) for e in ranking] == [
            ("mac", "naive"), ("layout", "homo"), ("cache", "boost"),
        ]
        assert [e.rank for e in ranking] == [1, 2, 3]
        assert ranking[0].sign == +1
        assert ranking[1].sign == +1
        assert ranking[2].sign == -1  # the boost level helps
        assert ranking[0].harm_score > ranking[1].harm_score > 0
        assert ranking[2].harm_score < 0

    def test_factorial_averages_matched_pairs(self):
        result = run_campaign(synthetic_spec(mode="factorial"))
        entry = result.report.entry("mac", "naive")
        assert entry.pairs == 4  # every (layout, cache) context
        assert entry.sign == +1

    def test_ab_multi_axis_challenger_scored(self):
        spec = synthetic_spec(
            mode="ab", challenger={"mac": "naive", "layout": "homo"}
        )
        result = run_campaign(spec)
        assert len(result.report.ranking) == 1
        entry = result.report.ranking[0]
        assert entry.axis == "layout+mac"
        assert entry.sign == +1

    def test_missing_cells_raise_without_allow_partial(self):
        matrix = generate_matrix(synthetic_spec())
        with pytest.raises(AblationError):
            build_report(matrix, {})
        results = {matrix.champion.cell_id: {"goodput": 1.0}}
        partial = build_report(matrix, results, allow_partial=True)
        assert partial.ranking == []

    def test_score_importance_skips_absent_pairs(self):
        matrix = generate_matrix(synthetic_spec())
        results = {
            c.cell_id: {"goodput": 1.0}
            for c in matrix.cells
            if c.is_champion or c.ablated_axis == "mac"
        }
        entries = score_importance(matrix, results)
        assert [(e.axis, e.level) for e in entries] == [("mac", "naive")]


class TestEngine:
    def test_cell_manifests_registered_with_cell_ids(self, tmp_path):
        spec = synthetic_spec()
        result = run_campaign(spec, run_dir=str(tmp_path))
        registry = RunRegistry(str(tmp_path))
        for cell in result.matrix.cells:
            manifest = registry.get(cell.cell_id)
            assert manifest.run_id == cell.cell_id
            assert manifest.label == "campaign/synthetic-test/cell"
        campaign = registry.get(result.campaign_id)
        assert campaign.workload["cells"] == list(result.matrix.cell_ids())
        assert len(campaign.digests) == len(result.matrix.cells)

    def test_resume_after_kill_reexecutes_nothing_extra(self, tmp_path):
        spec = synthetic_spec()
        calls = []

        def flaky(assignment, params, seed):
            if len(calls) >= 2:
                raise RuntimeError("simulated mid-campaign kill")
            calls.append(dict(assignment))
            return {"goodput": 100.0 - 10.0 * len(calls)}

        register_runner("flaky-test", flaky, replace=True)
        killed = CampaignSpec(
            name="flaky", runner="flaky-test", seed=3,
            axes=synthetic_spec().axes, params={},
        )
        with pytest.raises(RuntimeError):
            run_campaign(killed, run_dir=str(tmp_path))
        # Two cells landed before the kill; their manifests survived.
        assert len(RunRegistry(str(tmp_path)).run_ids()) == 2

        def steady(assignment, params, seed):
            calls.append(dict(assignment))
            return {"goodput": 100.0 - 10.0 * len(calls)}

        register_runner("flaky-test", steady, replace=True)
        resumed = run_campaign(killed, run_dir=str(tmp_path))
        assert len(resumed.resumed) == 2
        assert len(resumed.executed) == 2  # only the missing cells ran
        again = run_campaign(killed, run_dir=str(tmp_path))
        assert len(again.resumed) == 4
        assert again.executed == []
        assert again.report.cells == resumed.report.cells
        assert [e.to_dict() for e in again.report.ranking] == [
            e.to_dict() for e in resumed.report.ranking
        ]

    def test_parallel_report_byte_identical_to_serial(self, tmp_path):
        spec = smoke_campaign()
        serial = run_campaign(spec, run_dir=str(tmp_path / "serial"))
        parallel = run_campaign(
            spec, run_dir=str(tmp_path / "parallel"), workers=2
        )
        assert parallel.report.to_json() == serial.report.to_json()
        assert parallel.campaign_id == serial.campaign_id

    def test_no_resume_reexecutes(self, tmp_path):
        spec = synthetic_spec()
        run_campaign(spec, run_dir=str(tmp_path))
        fresh = run_campaign(spec, run_dir=str(tmp_path), resume=False)
        assert len(fresh.executed) == len(fresh.matrix.cells)

    def test_report_from_registry(self, tmp_path):
        spec = synthetic_spec()
        executed = run_campaign(spec, run_dir=str(tmp_path))
        rebuilt = report_from_registry(spec, str(tmp_path))
        assert rebuilt.cells == executed.report.cells
        with pytest.raises(AblationError):
            report_from_registry(
                synthetic_spec(seed=99), str(tmp_path)
            )  # nothing registered for that seed
        partial = report_from_registry(
            spec, str(tmp_path), allow_partial=True
        )
        assert partial.ranking

    def test_unknown_runner_raises(self):
        spec = CampaignSpec(
            name="x", runner="no-such-runner",
            axes=(Axis("a", ("x", "y"), "x"),), params={},
        )
        with pytest.raises(AblationError):
            run_campaign(spec)

    def test_builtin_runners_registered(self):
        for name in ("pipeline", "serve", "faults", "cluster", "synthetic"):
            assert callable(get_runner(name))


class TestCampaigns:
    def test_builtins_resolve_and_plan(self):
        for name in campaign_names():
            matrix = generate_matrix(builtin_campaign(name))
            assert matrix.cells[0].is_champion
            assert len(matrix.cells) >= 2

    def test_unknown_campaign_raises(self):
        with pytest.raises(AblationError):
            builtin_campaign("nope")

    def test_overrides_change_identity(self):
        base = generate_matrix(builtin_campaign("smoke"))
        reseeded = generate_matrix(builtin_campaign("smoke", {"seed": 11}))
        assert set(base.cell_ids()) != set(reseeded.cell_ids())

    def test_fleet_policy_campaign_is_full_factorial(self):
        matrix = generate_matrix(builtin_campaign("fleet-policy"))
        assert len(matrix.cells) == 3 * 3 * 2

    def test_smoke_campaign_effects_have_expected_signs(self):
        result = run_campaign(smoke_campaign())
        for entry in result.report.ranking:
            assert entry.sign == +1


class TestCli:
    def test_plan_run_report(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["ablate", "plan", "--campaign", "smoke"]) == 0
        assert "champion" in capsys.readouterr().out
        run_dir = str(tmp_path / "runs")
        out = str(tmp_path / "report.json")
        assert main([
            "ablate", "run", "--campaign", "smoke",
            "--run-dir", run_dir, "--out", out,
        ]) == 0
        capsys.readouterr()
        payload = json.loads(open(out, encoding="utf-8").read())
        assert payload["campaign"] == "smoke"
        assert payload["ranking"]
        assert main([
            "ablate", "report", "--campaign", "smoke", "--run-dir", run_dir,
        ]) == 0
        assert "Component importance" in capsys.readouterr().out

    def test_set_override_changes_cells(self, capsys):
        from repro.cli import main

        assert main(["ablate", "plan", "--campaign", "smoke"]) == 0
        base = capsys.readouterr().out
        assert main([
            "ablate", "plan", "--campaign", "smoke",
            "--set", "base_goodput=2000.0",
        ]) == 0
        assert capsys.readouterr().out != base
