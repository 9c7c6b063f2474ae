"""Repository-level quality checks: docs, docstrings, and API hygiene."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import repro

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


def _scan_imports(path):
    """(dotted names a file imports, re-exports of a package ``__init__``).

    Each ``from M import n`` gives ``M.n``.  A package ``__init__`` counts an
    import only when its own code reads the bound name; otherwise it is a
    re-export, mapping ``package.n`` to ``M.n``, which keeps ``M`` live only
    if some file imports ``package.n``.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    module, is_init = ("", False)
    if path.is_relative_to(REPO_ROOT / "src"):
        module, is_init = _module_of(path)
    package = module if is_init else module.rpartition(".")[0]
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    imported, reexports = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            for alias in node.names:
                bound = alias.asname or alias.name
                if is_init and bound not in loaded:
                    reexports[f"{package}.{bound}"] = f"{base}.{alias.name}"
                else:
                    imported.add(f"{base}.{alias.name}")
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
