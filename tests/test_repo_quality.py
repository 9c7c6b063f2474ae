"""Repository-level quality checks: docs, docstrings, and API hygiene."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import repro
from repro.lint.project import import_nodes

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parents[2]


def iter_modules():
    package_dir = pathlib.Path(repro.__file__).parent
    yield "repro"
    for info in pkgutil.walk_packages([str(package_dir)], prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it runs the CLI
        yield info.name


ALL_MODULES = sorted(set(iter_modules()))


class TestDocstrings:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_every_module_has_a_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20, (
            f"{module_name} lacks a meaningful module docstring"
        )

    def test_public_classes_documented(self):
        undocumented = []
        for module_name in ALL_MODULES:
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if isinstance(obj, type) and not (obj.__doc__ or "").strip():
                    undocumented.append(f"{module_name}.{name}")
        assert not undocumented, undocumented


class TestExports:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


class TestDocumentation:
    def test_required_docs_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert (REPO_ROOT / name).is_file(), f"{name} missing"

    def test_design_confirms_paper_match(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        assert "matches" in text.lower()
        assert "ECSSD" in text

    def test_experiment_index_points_at_real_benches(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        referenced = set(re.findall(r"benchmarks/(test_\w+\.py)", text))
        assert referenced, "DESIGN.md references no bench files"
        for name in referenced:
            assert (REPO_ROOT / "benchmarks" / name).is_file(), name

    def test_experiments_covers_every_figure_and_table(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        for artifact in (
            "Fig. 1", "Fig. 8", "Fig. 9", "Fig. 10", "Fig. 11", "Fig. 12",
            "Fig. 13", "Table 2", "Table 3", "Table 4",
        ):
            assert artifact in text, f"EXPERIMENTS.md misses {artifact}"

    def test_readme_examples_exist(self):
        text = (REPO_ROOT / "README.md").read_text()
        for path in re.findall(r"examples/(\w+\.py)", text):
            assert (REPO_ROOT / "examples" / path).is_file(), path

    def test_benches_exist_for_every_evaluation_artifact(self):
        bench_dir = REPO_ROOT / "benchmarks"
        expected = [
            "test_fig01_roofline.py",
            "test_tab02_config.py",
            "test_tab03_benchmarks.py",
            "test_tab04_area_power.py",
            "test_fig08_breakdown.py",
            "test_fig09_mac_circuit.py",
            "test_fig10_hetero_layout.py",
            "test_fig11_access_pattern.py",
            "test_fig12_interleaving.py",
            "test_fig13_end_to_end.py",
            "test_sec42_cfp32_precision.py",
            "test_sec7_scalability.py",
            "test_sec7_gpu_enmc.py",
        ]
        for name in expected:
            assert (bench_dir / name).is_file(), f"missing bench {name}"


#: Trees whose imports make a module live; tests alone do not.
LIVE_ROOTS = ("src", "benchmarks", "perfbench", "examples")


def _module_of(path):
    """(dotted module name, is package ``__init__``) of a ``src/`` file."""
    parts = list(path.relative_to(REPO_ROOT / "src").with_suffix("").parts)
    is_init = parts[-1] == "__init__"
    if is_init:
        parts.pop()
    return ".".join(parts), is_init


def _import_target(node, alias, package):
    """Dotted name an import binds for ``alias`` (relative imports resolved)."""
    if isinstance(node, ast.Import):
        return alias.name
    base = node.module or ""
    if node.level:
        anchor = package.rsplit(".", node.level - 1)[0]
        base = f"{anchor}.{base}" if base else anchor
    return f"{base}.{alias.name}"


def _package_of(path):
    """(package relative imports resolve against, is package ``__init__``)."""
    if not path.is_relative_to(REPO_ROOT / "src"):
        return "", False
    module, is_init = _module_of(path)
    return (module if is_init else module.rpartition(".")[0]), is_init


def _scan_imports(path):
    """(dotted names a file imports, re-exports of a package ``__init__``).

    Each ``from M import n`` gives ``M.n``.  A package ``__init__`` counts an
    import only when its own code reads the bound name; otherwise it is a
    re-export, mapping ``package.n`` to ``M.n``, which keeps ``M`` live only
    if some file imports ``package.n``.  A lazy export table entry reads as
    the ``from`` import it replaces, so it is a re-export too.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    package, is_init = _package_of(path)
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    imported, reexports = set(), {}
    for node in import_nodes(tree):
        for alias in node.names:
            target = _import_target(node, alias, package)
            bound = alias.asname or alias.name
            if isinstance(node, ast.ImportFrom) and is_init and bound not in loaded:
                reexports[f"{package}.{bound}"] = target
            else:
                imported.add(target)
    return imported, reexports


class TestNoTestOnlyModules:
    def test_every_module_is_imported_outside_tests(self):
        imported, reexports = set(), {}
        for root in LIVE_ROOTS:
            for path in (REPO_ROOT / root).rglob("*.py"):
                names, aliases = _scan_imports(path)
                imported |= names
                reexports.update(aliases)
        reached = set()
        for name in imported:
            seen = set()
            while name in reexports and name not in seen:
                seen.add(name)
                name = reexports[name]
            parts = name.split(".")
            reached.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
        unreached = [name for name in ALL_MODULES if name not in reached]
        assert not unreached, (
            f"only tests import {unreached}; delete them or use them"
        )


#: Functions and methods that no live file names, kept on purpose.  Each
#: entry says why, as ``reprolint-baseline.json`` entries do; delete an entry
#: together with its function once the reason no longer holds.
KEPT_UNNAMED = {
    "ECSSD.set_top_k": "part of the paper's Table-1 device API"
    " (repro.core.api.ECSSD)",
    "CommandTrace.per_channel_counts": "ROADMAP item 8, phase 1 decides"
    " whether die-aware flash timing reads it",
    "CommandTrace.per_die_counts": "ROADMAP item 8, phase 1 decides"
    " whether die-aware flash timing reads it",
    "CommandTrace.queue_depth_percentile": "ROADMAP item 8, phase 1: the"
    " time-weighted in-flight depth is the die-queueing measure next to"
    " per_die_counts",
    "SSDDevice.advance_clock": "test_device.py's TestFaultedBitIdentityPin,"
    " which stays byte-for-byte unedited, moves the device clock with it",
    "QuantizedMatrix.dequantize": "the float reference that the INT4"
    " screening tests check exact scores against",
    "MacCircuitModel.area_for_gflops": "checks Section 6.2's iso-throughput"
    " area claim (0.24 mm2 naive vs 0.139 mm2 alignment-free)",
    "MacCircuitModel.power_for_gflops": "checks Section 6.2's iso-throughput"
    " power claim (51.8 mW for the naive MAC)",
}


def _defined_functions():
    """(``Class.name`` or ``name``, location) of each ``src/`` def, top level
    and one class deep.  Dunders and ``ast.NodeVisitor`` hooks (``visit_*``,
    called by name) are left out."""
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [(None, tree.body)] + [
            (node.name, node.body) for node in tree.body
            if isinstance(node, ast.ClassDef)
        ]
        for owner, body in scopes:
            for node in body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                name = node.name
                if (name.startswith("__") and name.endswith("__")) or (
                    name.startswith("visit_") or name == "generic_visit"
                ):
                    continue
                where = f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
                yield (f"{owner}.{name}" if owner else name), where


def _live_words():
    """Every identifier, attribute, keyword and word in a string literal that
    a file under the live roots mentions.  Matching by bare name is
    conservative: any mention anywhere keeps every def of that name."""
    words = set()
    for root in LIVE_ROOTS:
        for path in (REPO_ROOT / root).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name):
                    words.add(node.id)
                elif isinstance(node, ast.Attribute):
                    words.add(node.attr)
                elif isinstance(node, ast.alias):
                    words.update(node.name.split("."))
                    if node.asname:
                        words.add(node.asname)
                elif isinstance(node, ast.keyword) and node.arg:
                    words.add(node.arg)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    words.update(re.findall(r"\w+", node.value))
    return words


class TestNoTestOnlyFunctions:
    def test_every_function_is_named_outside_tests(self):
        words = _live_words()
        unnamed = {
            qualified: where for qualified, where in _defined_functions()
            if qualified.rpartition(".")[2] not in words
        }
        flagged = sorted(
            f"{where} {name}" for name, where in unnamed.items()
            if name not in KEPT_UNNAMED
        )
        assert not flagged, (
            f"only tests name {flagged}; delete them, use them, or list them"
            " in KEPT_UNNAMED with the reason"
        )
        stale = sorted(set(KEPT_UNNAMED) - set(unnamed))
        assert not stale, f"KEPT_UNNAMED lists live or missing names {stale}"


#: The drivers behind ``repro.analysis.artifacts``' registry, as the dotted
#: names a caller reaches them by (``repro.workloads`` re-exports one).
ARTIFACT_DRIVERS = {
    *(f"repro.analysis.experiments.{name}" for name in (
        "fig8_breakdown", "fig9_mac_comparison", "fig10_hetero_layout",
        "fig11_access_pattern", "fig12_interleaving", "fig13_end_to_end",
        "sec71_scalability", "sec71_scale_out",
    )),
    "repro.analysis.validation.cross_validate",
    "repro.workloads.benchmarks.list_benchmarks",
    "repro.workloads.list_benchmarks",
}


def _names_read(path):
    """Dotted names a file reads through its imports, e.g. ``exp.f`` -> ``M.f``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    package, _ = _package_of(path)
    bound = {}
    for node in import_nodes(tree):
        for alias in node.names:
            if isinstance(node, ast.Import) and not alias.asname:
                # ``import a.b`` binds ``a``.
                bound[alias.name.split(".")[0]] = alias.name.split(".")[0]
            else:
                bound[alias.asname or alias.name] = _import_target(
                    node, alias, package
                )
    read = set()
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in bound:
            parts = [bound[node.id], *reversed(attrs)]
            read.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return read


class TestOneProducerPerArtifact:
    def test_only_artifacts_module_calls_the_drivers(self):
        producer = REPO_ROOT / "src" / "repro" / "analysis" / "artifacts.py"
        callers = {}
        for root in ("src", "benchmarks", "examples"):
            for path in (REPO_ROOT / root).rglob("*.py"):
                drivers = _names_read(path) & ARTIFACT_DRIVERS
                if path != producer and drivers:
                    callers[str(path.relative_to(REPO_ROOT))] = sorted(drivers)
        assert not callers, (
            f"{callers} call an artifact's driver; go through"
            " repro.analysis.artifacts instead"
        )

    def test_the_guard_sees_the_producer(self):
        producer = REPO_ROOT / "src" / "repro" / "analysis" / "artifacts.py"
        assert _names_read(producer) >= ARTIFACT_DRIVERS - {
            "repro.workloads.list_benchmarks"
        }


class TestErrorHierarchy:
    def test_all_errors_derive_from_reproerror(self):
        from repro import errors

        subclasses = [
            obj
            for name, obj in vars(errors).items()
            if isinstance(obj, type)
            and issubclass(obj, Exception)
            and obj is not errors.ReproError
            and not name.startswith("_")
        ]
        assert subclasses
        for cls in subclasses:
            assert issubclass(cls, errors.ReproError), cls
