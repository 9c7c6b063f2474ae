"""Tests for the reprolint static-analysis suite (repro.lint).

Every rule gets a good/bad fixture pair: the bad snippet must produce exactly
the expected finding, the good snippet none.  A final test runs the engine
over the shipped ``src/repro`` tree and requires it to be clean modulo the
checked-in baseline (and the baseline to be free of stale entries).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint.baseline import Baseline, BaselineEntry, BaselineError
from repro.lint.cli import main as lint_main
from repro.lint.deep import run_deep
from repro.lint.engine import LintEngine, module_name_for
from repro.lint.findings import Finding
from repro.lint.rules import (
    EXCLUDED_PACKAGES,
    SIM_PACKAGES,
    default_rules,
    discover_sim_packages,
    rules_by_name,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SIM_MODULE = "repro.ssd.fixture"


def findings_for(source, module=SIM_MODULE):
    return LintEngine().lint_source(source, path="fixture.py", module=module)


# One (bad, expected_line, good) fixture pair per rule.  Bad snippets are
# written so no *other* rule fires on them.
RULE_FIXTURES = {
    "no-wall-clock": (
        "import time\n"
        "\n"
        "def stamp():\n"
        "    return time.perf_counter()\n",
        4,
        "def stamp(sim):\n"
        "    return sim.now\n",
    ),
    "seeded-rng-only": (
        "import numpy as np\n"
        "\n"
        "def draw():\n"
        "    return np.random.rand(4)\n",
        4,
        "import numpy as np\n"
        "\n"
        "def draw(seed):\n"
        "    rng = np.random.default_rng((seed, 0xEC55D, 0))\n"
        "    return rng.random(4)\n",
    ),
    "sim-time-no-float-eq": (
        "def ready(sim):\n"
        "    return sim.now == 1.5\n",
        2,
        "def ready(sim):\n"
        "    return sim.now >= 1.5\n",
    ),
    "raw-duration-literal": (
        "def kick(sim, cb):\n"
        "    sim.schedule(1.5, cb)\n",
        2,
        "from repro.units import us\n"
        "\n"
        "def kick(sim, cb):\n"
        "    sim.schedule(us(1.5), cb)\n",
    ),
    "closure-capture-in-schedule": (
        "def fan_out(sim, items, delay, handle):\n"
        "    for item in items:\n"
        "        sim.schedule(delay, lambda: handle(item))\n",
        3,
        "def fan_out(sim, items, delay, handle):\n"
        "    for item in items:\n"
        "        sim.schedule(delay, lambda item=item: handle(item))\n",
    ),
    "unordered-iteration": (
        "def spread(channels):\n"
        "    for ch in set(channels):\n"
        "        yield ch\n",
        2,
        "def spread(channels):\n"
        "    for ch in sorted(set(channels)):\n"
        "        yield ch\n",
    ),
    "exception-hygiene": (
        "def guard(fn):\n"
        "    try:\n"
        "        fn()\n"
        "    except Exception:\n"
        "        pass\n",
        4,
        "from repro.errors import SimulationError\n"
        "\n"
        "def guard(fn):\n"
        "    try:\n"
        "        fn()\n"
        "    except SimulationError:\n"
        "        return None\n",
    ),
}


class TestRuleFixtures:
    @pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
    def test_bad_snippet_produces_exactly_the_expected_finding(self, rule):
        bad, line, _good = RULE_FIXTURES[rule]
        findings = findings_for(bad)
        assert len(findings) == 1, [f.format() for f in findings]
        assert findings[0].rule == rule
        assert findings[0].line == line
        assert findings[0].severity.label in ("warning", "error")
        assert findings[0].code  # fingerprint captured for the baseline

    @pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
    def test_good_snippet_is_clean(self, rule):
        _bad, _line, good = RULE_FIXTURES[rule]
        assert findings_for(good) == []

    def test_registry_covers_at_least_seven_rules(self):
        assert len(default_rules()) >= 7
        assert set(RULE_FIXTURES) == set(rules_by_name())


class TestRuleDetails:
    def test_wall_clock_from_import_is_caught(self):
        src = "from time import perf_counter\n\nt = perf_counter()\n"
        rules = {f.rule for f in findings_for(src)}
        assert rules == {"no-wall-clock"}

    def test_wall_clock_allowed_in_obs(self):
        src = "import time\n\ndef wall():\n    return time.perf_counter()\n"
        assert findings_for(src, module="repro.obs.tracing") == []

    def test_argless_default_rng_flagged_seeded_ok(self):
        bad = "import numpy as np\nrng = np.random.default_rng()\n"
        good = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert [f.rule for f in findings_for(bad)] == ["seeded-rng-only"]
        assert findings_for(good) == []

    def test_stdlib_random_flagged(self):
        src = "import random\n\ndef roll():\n    return random.random()\n"
        assert [f.rule for f in findings_for(src)] == ["seeded-rng-only"]

    def test_float_eq_literal_on_left_and_not_eq(self):
        src = "def f(sim):\n    return 2.5 != sim.now\n"
        assert [f.rule for f in findings_for(src)] == ["sim-time-no-float-eq"]

    def test_integer_zero_duration_allowed(self):
        src = "def f(sim, cb):\n    sim.schedule(0.0, cb)\n    sim.schedule(0, cb)\n"
        assert findings_for(src) == []

    def test_inner_def_capturing_loop_var_flagged(self):
        src = (
            "def fan_out(sim, items, delay, handle):\n"
            "    for item in items:\n"
            "        def cb():\n"
            "            handle(item)\n"
            "        sim.schedule(delay, cb)\n"
        )
        findings = findings_for(src)
        assert [f.rule for f in findings] == ["closure-capture-in-schedule"]
        assert "item" in findings[0].message

    def test_set_assigned_then_iterated_flagged(self):
        src = (
            "def f(xs):\n"
            "    pending = set(xs)\n"
            "    return [x for x in pending]\n"
        )
        assert [f.rule for f in findings_for(src)] == ["unordered-iteration"]

    def test_unordered_iteration_scoped_to_ssd_and_layout(self):
        src = "def f(xs):\n    for x in set(xs):\n        yield x\n"
        assert findings_for(src, module="repro.workloads.fixture") == []
        assert len(findings_for(src, module="repro.layout.fixture")) == 1

    def test_bare_except_flagged(self):
        src = "def f(fn):\n    try:\n        fn()\n    except:\n        raise\n"
        assert [f.rule for f in findings_for(src)] == ["exception-hygiene"]

    def test_exception_hygiene_scoped_to_ssd_and_core(self):
        src = "def f(fn):\n    try:\n        fn()\n    except Exception:\n        pass\n"
        assert findings_for(src, module="repro.analysis.fixture") == []


class TestEngineMechanics:
    def test_inline_suppression(self):
        src = (
            "import time\n"
            "t = time.perf_counter()  # reprolint: disable=no-wall-clock\n"
        )
        assert findings_for(src) == []

    def test_standalone_comment_suppresses_next_line(self):
        src = (
            "import time\n"
            "# reprolint: disable=no-wall-clock\n"
            "t = time.perf_counter()\n"
        )
        assert findings_for(src) == []

    def test_disable_all(self):
        src = "import time\nt = time.perf_counter()  # reprolint: disable=all\n"
        assert findings_for(src) == []

    def test_suppressing_a_different_rule_does_not_hide(self):
        src = (
            "import time\n"
            "t = time.perf_counter()  # reprolint: disable=unordered-iteration\n"
        )
        assert len(findings_for(src)) == 1

    def test_directive_inside_string_is_ignored(self):
        src = (
            "import time\n"
            'note = "# reprolint: disable=all"\n'
            "t = time.perf_counter()\n"
        )
        assert len(findings_for(src)) == 1

    def test_parse_error_reported_as_finding(self):
        findings = findings_for("def broken(:\n")
        assert [f.rule for f in findings] == ["parse-error"]

    def test_module_name_for(self):
        assert module_name_for("src/repro/ssd/events.py") == "repro.ssd.events"
        assert module_name_for("src/repro/lint/__init__.py") == "repro.lint"
        assert module_name_for("/tmp/fixture.py") is None

    def test_findings_sorted_and_deterministic(self, tmp_path):
        (tmp_path / "b.py").write_text("import time\nt = time.time()\n")
        (tmp_path / "a.py").write_text("import time\nt = time.time()\n")
        engine = LintEngine()
        first = engine.lint_paths([tmp_path])
        second = engine.lint_paths([tmp_path])
        assert first == second
        assert [Path(f.path).name for f in first] == ["a.py", "b.py"]


class TestBaseline:
    def test_entry_requires_justification(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "version": 1,
            "entries": [{"rule": "no-wall-clock", "path": "x.py", "line": 1}],
        }))
        with pytest.raises(BaselineError, match="justification"):
            Baseline.load(path)

    def test_split_matches_on_code_fingerprint_despite_line_drift(self):
        bad, line, _ = RULE_FIXTURES["no-wall-clock"]
        [finding] = findings_for(bad)
        entry = BaselineEntry(
            rule=finding.rule,
            path="fixture.py",
            justification="kept deliberately for this test",
            code=finding.code,
            line=line + 40,  # stale line number; code text still matches
        )
        baseline = Baseline(entries=[entry])
        new, grandfathered = baseline.split([finding])
        assert new == [] and grandfathered == [finding]
        assert baseline.unused_entries([finding]) == []

    def test_unused_entries_detected(self):
        entry = BaselineEntry(
            rule="no-wall-clock",
            path="gone.py",
            justification="kept deliberately for this test",
            code="t = time.time()",
        )
        assert Baseline(entries=[entry]).unused_entries([]) == [entry]

    def test_shipped_baseline_entries_are_all_justified(self):
        baseline = Baseline.load(REPO_ROOT / "reprolint-baseline.json")
        for entry in baseline.entries:
            assert len(entry.justification) > 10
            assert "TODO" not in entry.justification


class TestCommandLine:
    def _write_bad_tree(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\n\ndef stamp():\n    return time.time()\n")
        return bad

    def test_exit_nonzero_on_finding(self, tmp_path, capsys):
        self._write_bad_tree(tmp_path)
        assert lint_main([str(tmp_path), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "no-wall-clock" in out and "1 new finding" in out

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("def f(sim):\n    return sim.now\n")
        assert lint_main([str(tmp_path), "--no-baseline"]) == 0

    def test_write_baseline_then_clean(self, tmp_path):
        self._write_bad_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert lint_main(
            [str(tmp_path), "--baseline", str(baseline), "--write-baseline"]
        ) == 0
        # TODO justifications are rejected at load time: grandfathering a
        # finding without saying why fails the run.
        assert lint_main([str(tmp_path), "--baseline", str(baseline)]) == 1
        payload = json.loads(baseline.read_text())
        for entry in payload["entries"]:
            entry["justification"] = "kept: exercised by test"
        baseline.write_text(json.dumps(payload))
        assert lint_main([str(tmp_path), "--baseline", str(baseline)]) == 0

    def test_stale_baseline_entry_fails(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("def f(sim):\n    return sim.now\n")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "rule": "no-wall-clock",
                "path": "gone.py",
                "code": "t = time.time()",
                "justification": "kept: exercised by test",
            }],
        }))
        assert lint_main([str(tmp_path), "--baseline", str(baseline)]) == 1
        assert "stale" in capsys.readouterr().err

    def test_select_unknown_rule_is_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path), "--select", "nope"]) == 2

    def test_select_limits_rules(self, tmp_path):
        self._write_bad_tree(tmp_path)
        args = [str(tmp_path), "--no-baseline", "--select", "unordered-iteration"]
        assert lint_main(args) == 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULE_FIXTURES:
            assert rule in out

    def test_json_format(self, tmp_path, capsys):
        self._write_bad_tree(tmp_path)
        assert lint_main([str(tmp_path), "--no-baseline", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["new"][0]["rule"] == "no-wall-clock"

    def test_repro_cli_lint_subcommand(self, tmp_path, capsys):
        self._write_bad_tree(tmp_path)
        assert repro_main(["lint", str(tmp_path), "--no-baseline"]) == 1
        (tmp_path / "bad.py").unlink()
        (tmp_path / "ok.py").write_text("def f(sim):\n    return sim.now\n")
        assert repro_main(["lint", str(tmp_path), "--no-baseline"]) == 0

    def test_python_dash_m_entry_point(self, tmp_path):
        self._write_bad_tree(tmp_path)
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(tmp_path), "--no-baseline"],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(tmp_path),
        )
        assert proc.returncode == 1
        assert "no-wall-clock" in proc.stdout


class TestEngineEdgeCases:
    def test_lint_file_with_syntax_error_reports_parse_error(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        findings = LintEngine().lint_file(bad)
        assert [f.rule for f in findings] == ["parse-error"]

    def test_multiline_statement_disable_anywhere_on_the_statement(self):
        # The finding anchors to the Call's line; the directive sits on the
        # closing line of the same multi-line assignment.
        src = (
            "import time\n"
            "t = (\n"
            "    time.perf_counter()\n"
            ")  # reprolint: disable=no-wall-clock\n"
        )
        assert findings_for(src) == []

    def test_multiline_disable_does_not_silence_the_whole_function(self):
        # A directive on a line of a compound statement (the def) must not
        # suppress findings elsewhere in its body.
        src = (
            "import time\n"
            "def f():  # reprolint: disable=no-wall-clock\n"
            "    a = time.perf_counter()  # suppressed? no - different line\n"
            "    return a\n"
        )
        assert len(findings_for(src)) == 1

    def test_findings_inside_main_guard_are_reported(self):
        src = (
            "import time\n"
            'if __name__ == "__main__":\n'
            "    t = time.perf_counter()\n"
        )
        findings = findings_for(src)
        assert [f.rule for f in findings] == ["no-wall-clock"]
        assert findings[0].line == 3
        # top-level code: the symbol is the module itself
        assert findings[0].symbol == SIM_MODULE

    def test_symbol_is_qualified_for_nested_scopes(self):
        src = (
            "import time\n"
            "class Clock:\n"
            "    def read(self):\n"
            "        return time.perf_counter()\n"
        )
        [finding] = findings_for(src)
        assert finding.symbol == f"{SIM_MODULE}.Clock.read"


class TestSimPackageDiscovery:
    def test_every_shipped_unit_is_covered_or_excluded(self):
        src_root = REPO_ROOT / "src" / "repro"
        units = set()
        for child in src_root.iterdir():
            if child.is_dir() and (child / "__init__.py").is_file():
                units.add(f"repro.{child.name}")
            elif child.suffix == ".py" and child.name != "__init__.py":
                units.add(f"repro.{child.stem}")
        for unit in sorted(units):
            covered = unit in SIM_PACKAGES or any(
                pkg.startswith(unit + ".") for pkg in SIM_PACKAGES
            )
            excluded = unit in EXCLUDED_PACKAGES
            assert covered or excluded, (
                f"{unit} is neither in SIM_PACKAGES nor excluded with a "
                f"justification in EXCLUDED_PACKAGES"
            )

    def test_exclusions_carry_real_justifications(self):
        for pkg, why in EXCLUDED_PACKAGES.items():
            assert len(why) > 20, f"{pkg} exclusion needs a real justification"

    def test_discovery_tracks_new_packages(self, tmp_path):
        root = tmp_path / "repro"
        (root / "newpkg").mkdir(parents=True)
        (root / "__init__.py").write_text("")
        (root / "newpkg" / "__init__.py").write_text("")
        assert "repro.newpkg" in discover_sim_packages(root)

    def test_shipped_discovery_matches_module_constant(self):
        assert SIM_PACKAGES == discover_sim_packages()


def _deep_tree(tmp_path, files):
    """Materialize a mini ``repro`` package tree for the deep passes."""
    root = tmp_path / "repro"
    for rel, src in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(src)
        init = path.parent / "__init__.py"
        if not init.exists():
            init.write_text("")
    if not (root / "__init__.py").exists():
        (root / "__init__.py").write_text("")
    return root


class TestLayeringContract:
    def test_back_edge_is_flagged(self, tmp_path):
        root = _deep_tree(tmp_path, {
            "serve/__init__.py": "",
            "ssd/bad.py": "from repro.serve import something\n",
        })
        findings = run_deep([root])
        assert [f.rule for f in findings] == ["layering-contract"]
        assert "repro.ssd may not import repro.serve" in findings[0].message

    def test_allowed_edges_are_clean(self, tmp_path):
        root = _deep_tree(tmp_path, {
            "serve/ok.py": (
                "from repro.core import thing\n"
                "from repro.units import us\n"
                "from repro.obs import get_tracer\n"
            ),
            "ssd/ok.py": "from repro.faults import plan\n",
            "core/__init__.py": "",
            "faults/__init__.py": "",
        })
        assert run_deep([root]) == []

    def test_nothing_may_import_cli(self, tmp_path):
        root = _deep_tree(tmp_path, {
            "serve/bad.py": "from repro import cli\n",
            "cli.py": "",
        })
        findings = run_deep([root])
        assert [f.rule for f in findings] == ["layering-contract"]

    def test_lazy_export_back_edge_is_flagged(self, tmp_path):
        # A lazy table entry is the import it replaces: exporting a fleet
        # name from a lower layer's __init__ is the same back-edge.
        root = _deep_tree(tmp_path, {
            "cluster/engine.py": "def build_cluster():\n    pass\n",
            "ssd/__init__.py": (
                "from repro._lazy import lazy_exports\n"
                "__getattr__, __dir__, __all__ = lazy_exports(__name__, {\n"
                "    '.device': ('SSDDevice',),\n"
                "    '..cluster.engine': ('build_cluster',),\n"
                "})\n"
            ),
            "ssd/device.py": "class SSDDevice:\n    pass\n",
        })
        findings = run_deep([root])
        assert [(f.rule, f.line) for f in findings] == [("layering-contract", 4)]
        assert "repro.ssd may not import repro.cluster" in findings[0].message
        assert "imports repro.cluster.engine" in findings[0].message

    def test_lazy_export_allowed_edge_is_clean(self, tmp_path):
        root = _deep_tree(tmp_path, {
            "faults/plan.py": "def hash_uniform():\n    pass\n",
            "ssd/__init__.py": (
                "from repro._lazy import lazy_exports\n"
                "__getattr__, __dir__, __all__ = lazy_exports(__name__, {\n"
                "    '.device': ('SSDDevice',),\n"
                "    '..faults.plan': ('hash_uniform',),\n"
                "})\n"
            ),
            "ssd/device.py": "class SSDDevice:\n    pass\n",
        })
        assert run_deep([root]) == []

    def test_inline_suppression_applies_to_deep_findings(self, tmp_path):
        root = _deep_tree(tmp_path, {
            "serve/__init__.py": "",
            "ssd/bad.py": (
                "from repro.serve import x  "
                "# reprolint: disable=layering-contract\n"
            ),
        })
        assert run_deep([root]) == []


class TestSeedProvenance:
    def test_constant_seed_is_flagged(self, tmp_path):
        root = _deep_tree(tmp_path, {
            "workloads/bad.py": (
                "import numpy as np\n"
                "def draw(n):\n"
                "    return np.random.default_rng(1234).random(n)\n"
            ),
        })
        findings = run_deep([root])
        assert [f.rule for f in findings] == ["seed-provenance"]
        assert "constant seed" in findings[0].message

    def test_laundered_seed_caught_at_the_call_site(self, tmp_path):
        root = _deep_tree(tmp_path, {
            "workloads/bad.py": (
                "import numpy as np\n"
                "def helper(ident):\n"
                "    return np.random.default_rng((ident, 0x5A17))\n"
                "def launder():\n"
                "    return helper(42)\n"
            ),
        })
        findings = run_deep([root])
        assert [f.rule for f in findings] == ["seed-provenance"]
        assert "launders" in findings[0].message
        assert findings[0].symbol.endswith("launder")

    def test_rooted_seeds_are_clean(self, tmp_path):
        root = _deep_tree(tmp_path, {
            "workloads/ok.py": (
                "import numpy as np\n"
                "_SALT = 0xEC55D\n"
                "def stream(seed, index):\n"
                "    return np.random.default_rng((seed, _SALT, index))\n"
                "def from_config(config):\n"
                "    return np.random.default_rng((config.seed, 7))\n"
                "def caller(seed):\n"
                "    return stream(seed, 3)\n"
            ),
        })
        assert run_deep([root]) == []


class TestUnitFlow:
    def test_dimension_mixing_is_flagged(self, tmp_path):
        root = _deep_tree(tmp_path, {
            "ssd/bad.py": (
                "from repro.units import ms, gbps\n"
                "def f():\n"
                "    return ms(5) + gbps(2)\n"
            ),
        })
        findings = run_deep([root])
        assert [f.rule for f in findings] == ["unit-flow"]
        assert "mixing dimensions" in findings[0].message

    def test_swapped_transfer_time_args_flagged(self, tmp_path):
        root = _deep_tree(tmp_path, {
            "ssd/bad.py": (
                "from repro.units import transfer_time\n"
                "def f(num_bytes, bandwidth_bps):\n"
                "    return transfer_time(bandwidth_bps, num_bytes)\n"
            ),
        })
        findings = run_deep([root])
        assert len(findings) == 2  # both positions are wrong
        assert {f.rule for f in findings} == {"unit-flow"}

    def test_double_unit_conversion_flagged(self, tmp_path):
        root = _deep_tree(tmp_path, {
            "ssd/bad.py": (
                "from repro.units import ms\n"
                "def f():\n"
                "    return ms(ms(1))\n"
            ),
        })
        findings = run_deep([root])
        assert [f.rule for f in findings] == ["unit-flow"]
        assert "double unit conversion" in findings[0].message

    def test_cross_module_raw_literal_for_seconds_param(self, tmp_path):
        root = _deep_tree(tmp_path, {
            "core/sched.py": (
                "def reserve(start_s, duration_s):\n"
                "    return start_s + duration_s\n"
            ),
            "serve/bad.py": (
                "from repro.core.sched import reserve\n"
                "def f(start_s):\n"
                "    return reserve(start_s, 0.005)\n"
            ),
        })
        findings = run_deep([root])
        assert [f.rule for f in findings] == ["unit-flow"]
        assert "raw numeric literal" in findings[0].message

    def test_correct_unit_flow_is_clean(self, tmp_path):
        root = _deep_tree(tmp_path, {
            "core/sched.py": (
                "def reserve(start_s, duration_s):\n"
                "    return start_s + duration_s\n"
            ),
            "serve/ok.py": (
                "from repro.units import ms, us, gbps, transfer_time\n"
                "from repro.core.sched import reserve\n"
                "def f(num_bytes, start_s):\n"
                "    latency = transfer_time(num_bytes, gbps(3.2))\n"
                "    total = latency + ms(1)\n"
                "    return reserve(start_s, total + us(5))\n"
            ),
        })
        assert run_deep([root]) == []


class TestBaselineV2:
    def _finding(self, **kwargs):
        defaults = dict(
            rule="no-wall-clock",
            path="src/repro/ssd/x.py",
            line=10,
            col=4,
            message="wall-clock read",
            symbol="repro.ssd.x.Clock.read",
        )
        defaults.update(kwargs)
        return Finding(**defaults)

    def test_v2_entry_matches_despite_line_and_path_drift(self):
        entry = BaselineEntry(
            rule="no-wall-clock",
            path="old/location.py",
            justification="kept deliberately for this test",
            symbol="repro.ssd.x.Clock.read",
            message="wall-clock read",
            line=999,
        )
        finding = self._finding()
        assert entry.matches(finding)
        assert not entry.matches(self._finding(message="other message"))
        assert not entry.matches(self._finding(symbol="repro.ssd.x.other"))

    def test_legacy_v1_entry_still_matches_on_code(self):
        entry = BaselineEntry(
            rule="no-wall-clock",
            path="src/repro/ssd/x.py",
            justification="kept deliberately for this test",
            code="t = time.time()",
        )
        assert entry.is_v2 is False
        assert entry.matches(self._finding(code="t = time.time()"))

    def test_migrated_rekeys_on_symbol_and_message(self):
        finding = self._finding(code="t = time.time()")
        legacy = Baseline(entries=[
            BaselineEntry(
                rule="no-wall-clock",
                path="src/repro/ssd/x.py",
                justification="kept: exercised by test",
                code="t = time.time()",
            ),
            BaselineEntry(
                rule="no-wall-clock",
                path="gone.py",
                justification="stale entry to drop",
                code="dead",
            ),
        ])
        migrated = legacy.migrated([finding])
        assert len(migrated.entries) == 1
        entry = migrated.entries[0]
        assert entry.is_v2
        assert entry.symbol == finding.symbol
        assert entry.message == finding.message
        assert entry.justification == "kept: exercised by test"

    def test_update_baseline_cli_round_trip(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\n\ndef stamp():\n    return time.time()\n")
        baseline = tmp_path / "baseline.json"
        assert lint_main(
            [str(tmp_path), "--baseline", str(baseline), "--write-baseline"]
        ) == 0
        payload = json.loads(baseline.read_text())
        for entry in payload["entries"]:
            entry["justification"] = "kept: exercised by test"
        baseline.write_text(json.dumps(payload))
        assert lint_main(
            [str(tmp_path), "--baseline", str(baseline), "--update-baseline"]
        ) == 0
        migrated = json.loads(baseline.read_text())
        assert migrated["version"] == 2
        assert migrated["entries"][0]["symbol"].endswith("stamp")
        # Line drift must not break matching any more: move the finding.
        bad.write_text(
            "import time\n\n\n\n\ndef stamp():\n    return time.time()\n"
        )
        assert lint_main([str(tmp_path), "--baseline", str(baseline)]) == 0


class TestDeepCommandLine:
    def test_deep_flag_reports_deep_findings(self, tmp_path, capsys):
        _deep_tree(tmp_path, {
            "serve/__init__.py": "",
            "ssd/bad.py": "from repro.serve import x\n",
        })
        assert lint_main(
            [str(tmp_path / "repro"), "--no-baseline", "--deep"]
        ) == 1
        assert "layering-contract" in capsys.readouterr().out

    def test_without_deep_flag_deep_rules_stay_off(self, tmp_path):
        _deep_tree(tmp_path, {
            "serve/__init__.py": "",
            "ssd/bad.py": "from repro.serve import x\n",
        })
        assert lint_main([str(tmp_path / "repro"), "--no-baseline"]) == 0

    def test_github_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\n\ndef stamp():\n    return time.time()\n")
        assert lint_main(
            [str(tmp_path), "--no-baseline", "--format", "github"]
        ) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "title=reprolint no-wall-clock" in out
        assert "line=4" in out

    def test_graph_cache_replays_and_invalidates(self, tmp_path, capsys):
        root = _deep_tree(tmp_path, {
            "serve/__init__.py": "",
            "ssd/bad.py": "from repro.serve import x\n",
        })
        cache = tmp_path / "graph-cache.json"
        args = [str(root), "--no-baseline", "--deep",
                "--graph-cache", str(cache)]
        assert lint_main(args) == 1
        assert cache.is_file()
        fingerprint = json.loads(cache.read_text())["files"]
        assert lint_main(args) == 1  # replayed from cache, same verdict
        assert json.loads(cache.read_text())["files"] == fingerprint
        # Fixing the file invalidates the cache and the finding disappears.
        (root / "ssd" / "bad.py").write_text("from repro.units import us\n")
        assert lint_main(args) == 0

    def test_select_deep_rule_by_name(self, tmp_path, capsys):
        root = _deep_tree(tmp_path, {
            "serve/__init__.py": "",
            "ssd/bad.py": "from repro.serve import x\n",
        })
        assert lint_main(
            [str(root), "--no-baseline", "--deep",
             "--select", "layering-contract"]
        ) == 1
        assert lint_main(
            [str(root), "--no-baseline", "--deep",
             "--select", "seed-provenance"]
        ) == 0

    def test_list_rules_includes_deep_passes(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in ("layering-contract", "seed-provenance", "unit-flow"):
            assert name in out


def _run_fresh(code):
    """stdout of ``code`` in a fresh interpreter that sees ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout


def _modules_loaded_by(imports):
    """``repro`` modules loaded after ``imports`` in a fresh interpreter."""
    return set(_run_fresh(
        f"import sys\n{imports}\n"
        "print(' '.join(m for m in sys.modules if m.startswith('repro')))"
    ).split())


class TestImportCost:
    def test_simulator_import_leaves_the_static_linter_unloaded(self):
        """The simulator reaches only the runtime sanitizer, not the linter."""
        loaded = {
            name for name in _modules_loaded_by(
                "import repro, repro.cluster.engine, repro.serve, repro.faults"
            )
            if name.startswith("repro.lint")
        }
        assert "repro.lint.simsan" in loaded
        assert loaded <= {"repro.lint", "repro.lint.simsan"}


class TestImportFootprint:
    """Packages export lazily: an import loads only what its caller uses."""

    def test_import_repro_loads_no_subsystem(self):
        loaded = _modules_loaded_by("import repro")
        forbidden = {
            name for name in loaded
            if name.startswith(("repro.core.", "repro.cluster."))
            or name in {
                "repro.obs.causal", "repro.obs.profile", "repro.obs.perfdiff",
                "repro.faults.scrub",
            }
        }
        assert not forbidden, sorted(forbidden)

    def test_ssd_mode_device_loads_no_serving_or_ecssd_stack(self):
        # perfbench's ssd-mixed workload times exactly this import list.
        loaded = _modules_loaded_by(
            "import importlib\n"
            f"sys.path.insert(0, {str(REPO_ROOT / 'perfbench')!r})\n"
            "import workloads\n"
            "for name in workloads.WORKLOADS['ssd-mixed'].modules:\n"
            "    importlib.import_module(name)"
        )
        assert "repro.ssd.device" in loaded
        forbidden = {
            name for name in loaded
            if name.split(".")[:2] in (
                ["repro", "cluster"], ["repro", "serve"],
                ["repro", "core"], ["repro", "screening"],
            )
        }
        assert not forbidden, sorted(forbidden)

    def test_every_export_resolves_and_is_listed(self):
        out = _run_fresh(
            "import importlib, pkgutil, repro\n"
            "packages = ['repro'] + [info.name for info in\n"
            "    pkgutil.iter_modules(repro.__path__, 'repro.') if info.ispkg]\n"
            "for name in packages:\n"
            "    package = importlib.import_module(name)\n"
            "    listed = set(dir(package))\n"
            "    for export in getattr(package, '__all__', ()):\n"
            "        getattr(package, export)\n"
            "        if export not in listed:\n"
            "            print(f'{name}.{export}')\n"
            "import repro.cluster\n"
            "if 'build_cluster' not in vars(repro.cluster):\n"
            "    print('repro.cluster.build_cluster unbound')\n"
        )
        assert out.split() == []


class TestShippedTree:
    def test_src_repro_is_clean_modulo_baseline(self):
        engine = LintEngine()
        findings = engine.lint_paths([REPO_ROOT / "src" / "repro"])
        baseline = Baseline.load(REPO_ROOT / "reprolint-baseline.json")
        new, _grandfathered = baseline.split(findings)
        assert new == [], [f.format() for f in new]
        stale = baseline.unused_entries(findings)
        assert stale == [], [e.to_json() for e in stale]

    def test_deep_passes_are_clean_on_the_shipped_tree(self):
        findings = run_deep([REPO_ROOT / "src" / "repro"])
        baseline = Baseline.load(REPO_ROOT / "reprolint-baseline.json")
        new, _grandfathered = baseline.split(findings)
        assert new == [], [f.format() for f in new]

    def test_shipped_baseline_is_v2(self):
        payload = json.loads(
            (REPO_ROOT / "reprolint-baseline.json").read_text()
        )
        assert payload["version"] == 2
        for entry in payload["entries"]:
            assert entry["symbol"] or entry["message"]
