"""The whole-program model behind ``repro lint --deep``.

The per-file rule engine (:mod:`repro.lint.engine`) sees one AST at a time,
so it cannot catch a seed laundered through a helper in another module, a
milliseconds value handed to a seconds-typed function, or a serve-layer
import reaching into FTL internals.  :class:`ProjectGraph` parses the whole
package once and derives the three shared structures every deep pass feeds
on:

* **modules** — one :class:`ModuleInfo` per file: AST, import table,
  suppression table, and symbol spans (shared with the per-file engine);
* **import graph** — every import statement resolved to a project module
  where possible (``from .. import obs`` resolves to ``repro.obs``, not the
  package root), at any nesting depth, so lazy function-level imports count,
  and every lazy package export table (:mod:`repro._lazy`) read as the
  ``from`` imports it replaces;
* **function index + call sites** — every ``def`` under its qualified name,
  plus every call site resolved back to a project function with its
  argument-to-parameter binding, which is what makes interprocedural seed
  provenance possible.

Building the graph is the expensive step, so the deep CLI path memoizes
deep-pass findings keyed on a fingerprint of every source file
(``--graph-cache``): CI builds once and later steps replay instantly.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .engine import (
    FileContext,
    build_symbol_spans,
    extend_suppressions_to_statements,
    iter_python_files,
    module_name_for,
    scan_suppressions,
)
from .findings import Finding, Severity
from .rules import build_import_table


@dataclass
class FunctionInfo:
    """One ``def`` (or method) in the project, addressable by qualname."""

    qualname: str
    module: str
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    params: List[str]
    lineno: int

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[1]

    def bind_args(self, call: ast.Call) -> Dict[str, ast.AST]:
        """Map this function's parameter names to the call's argument exprs.

        Positional args bind in order (``self``/``cls`` of methods is skipped
        when the call has fewer positionals than parameters would need);
        keywords bind by name; ``*args``/``**kwargs`` are ignored — deep
        passes only reason about what they can see.
        """
        params = list(self.params)
        if params and params[0] in ("self", "cls"):
            params = params[1:]
        bound: Dict[str, ast.AST] = {}
        for param, arg in zip(params, call.args):
            bound[param] = arg
        for keyword in call.keywords:
            if keyword.arg is not None and keyword.arg in self.params:
                bound[keyword.arg] = keyword.value
        return bound


@dataclass
class CallSite:
    """One resolved call to a project function."""

    caller_module: str
    caller_symbol: str
    node: ast.Call
    line: int


@dataclass
class ImportEdge:
    """One import statement, resolved as far as possible."""

    module: str          # importing module (dotted)
    target: str          # imported dotted name (project or external)
    line: int
    node: ast.AST


@dataclass
class ModuleInfo:
    """Everything the deep passes need to know about one parsed file."""

    module: str
    path: str
    tree: ast.Module
    source_lines: List[str] = field(default_factory=list)
    imports: Dict[str, str] = field(default_factory=dict)
    disabled: Dict[int, Set[str]] = field(default_factory=dict)
    symbol_spans: List[Tuple[int, int, str]] = field(default_factory=list)

    def context(self) -> FileContext:
        """A per-file :class:`FileContext` view (shared finding helpers)."""
        return FileContext(
            path=self.path,
            module=self.module,
            tree=self.tree,
            source_lines=self.source_lines,
            disabled=self.disabled,
            symbol_spans=self.symbol_spans,
        )

    def symbol_for(self, line: int) -> str:
        symbol = self.module
        for start, end, qualname in self.symbol_spans:
            if start <= line <= end:
                symbol = qualname
        return symbol

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.source_lines):
            return self.source_lines[line - 1].strip()
        return ""


def import_nodes(tree: ast.AST) -> Iterator[Union[ast.Import, ast.ImportFrom]]:
    """Every import statement in ``tree``, lazy export tables included.

    An entry ``".engine": ("build_cluster",)`` of a
    ``lazy_exports(__name__, {...})`` table yields the
    ``from .engine import build_cluster`` it stands for, located at the
    entry's key, so a lazy re-export makes the same import edge an eager one
    did.
    """
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "lazy_exports"
            and len(node.args) == 2
            and isinstance(node.args[1], ast.Dict)
        ):
            table = node.args[1]
            for key, names in zip(table.keys, table.values):
                if not (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(names, (ast.Tuple, ast.List))
                ):
                    continue
                module = key.value.lstrip(".")
                yield ast.copy_location(
                    ast.ImportFrom(
                        module=module or None,
                        names=[
                            ast.alias(name=name.value, asname=None)
                            for name in names.elts
                            if isinstance(name, ast.Constant)
                        ],
                        level=len(key.value) - len(module),
                    ),
                    key,
                )


def package_of(module: str) -> str:
    """The layering unit a module belongs to.

    ``repro.serve.node`` -> ``repro.serve``; top-level modules
    (``repro.cli``, ``repro.config``) are their own unit; the package root
    ``repro`` (its ``__init__``) is the unit ``repro``.
    """
    parts = module.split(".")
    return ".".join(parts[:2]) if len(parts) >= 2 else module


class ProjectGraph:
    """Parsed whole-program view; see the module docstring."""

    def __init__(self, modules: Dict[str, ModuleInfo]) -> None:
        self.modules = modules
        self._functions: Optional[Dict[str, FunctionInfo]] = None
        self._call_index: Optional[Dict[str, List[CallSite]]] = None
        self._import_edges: Optional[List[ImportEdge]] = None

    @classmethod
    def build(cls, paths: Sequence[Union[str, Path]]) -> "ProjectGraph":
        """Parse every ``repro``-rooted ``.py`` file under ``paths`` once."""
        modules: Dict[str, ModuleInfo] = {}
        for path in sorted(iter_python_files(paths)):
            module = module_name_for(path)
            if module is None:
                continue  # deep analysis needs a module identity
            try:
                source = Path(path).read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(path))
            except (OSError, SyntaxError):
                continue  # the per-file engine reports parse errors
            modules[module] = ModuleInfo(
                module=module,
                path=str(path),
                tree=tree,
                source_lines=source.splitlines(),
                imports=build_import_table(tree),
                disabled=extend_suppressions_to_statements(
                    tree, scan_suppressions(source)
                ),
                symbol_spans=build_symbol_spans(tree, module),
            )
        return cls(modules)

    # -- import graph --------------------------------------------------------
    def import_edges(self) -> List[ImportEdge]:
        """Every import statement, one edge per imported name."""
        if self._import_edges is not None:
            return self._import_edges
        edges: List[ImportEdge] = []
        for info in self.modules.values():
            for node in import_nodes(info.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        edges.append(
                            ImportEdge(
                                module=info.module,
                                target=alias.name,
                                line=node.lineno,
                                node=node,
                            )
                        )
                else:
                    base = self._resolve_from_base(info.module, node)
                    if base is None:
                        continue
                    for alias in node.names:
                        if alias.name == "*":
                            edges.append(
                                ImportEdge(info.module, base, node.lineno, node)
                            )
                            continue
                        candidate = f"{base}.{alias.name}"
                        # `from X import name` imports module X.name when that
                        # is a project module, otherwise an attribute of X.
                        target = candidate if candidate in self.modules else base
                        edges.append(
                            ImportEdge(info.module, target, node.lineno, node)
                        )
        self._import_edges = edges
        return edges

    def _resolve_from_base(
        self, module: str, node: ast.ImportFrom
    ) -> Optional[str]:
        if not node.level:
            return node.module
        # Relative import: drop `level` trailing components from the importing
        # module's package path.  A module's package path is the module minus
        # its last component, except for package __init__ files (whose module
        # IS the package) — we cannot tell the two apart from the dotted name
        # alone, so resolve against the known module table: prefer the
        # interpretation that lands on a real project module.
        parts = module.split(".")
        for as_package in (False, True):
            base_parts = parts if as_package else parts[:-1]
            if node.level - 1 > len(base_parts):
                continue
            base_parts = (
                base_parts[: len(base_parts) - (node.level - 1)]
                if node.level > 1
                else base_parts
            )
            base = ".".join(base_parts)
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
            if base and (
                base in self.modules
                or any(m.startswith(base + ".") for m in self.modules)
            ):
                return base
        return None

    def package_edges(self) -> Dict[Tuple[str, str], List[ImportEdge]]:
        """Cross-package edges, grouped by (importer unit, imported unit)."""
        grouped: Dict[Tuple[str, str], List[ImportEdge]] = {}
        for edge in self.import_edges():
            if not edge.target.startswith("repro"):
                continue
            src = package_of(edge.module)
            dst = package_of(edge.target)
            if src == dst:
                continue
            grouped.setdefault((src, dst), []).append(edge)
        return grouped

    # -- function index ------------------------------------------------------
    def functions(self) -> Dict[str, FunctionInfo]:
        """Every ``def`` in the project under its fully-qualified name."""
        if self._functions is not None:
            return self._functions
        table: Dict[str, FunctionInfo] = {}
        for info in self.modules.values():

            def walk(node: ast.AST, qualpath: str, info: ModuleInfo = info) -> None:
                for child in ast.iter_child_nodes(node):
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        name = (
                            f"{qualpath}.{child.name}" if qualpath else child.name
                        )
                        args = child.args
                        params = [
                            a.arg
                            for a in args.posonlyargs + args.args + args.kwonlyargs
                        ]
                        table[f"{info.module}.{name}"] = FunctionInfo(
                            qualname=f"{info.module}.{name}",
                            module=info.module,
                            node=child,
                            params=params,
                            lineno=child.lineno,
                        )
                        walk(child, name)
                    elif isinstance(child, ast.ClassDef):
                        name = (
                            f"{qualpath}.{child.name}" if qualpath else child.name
                        )
                        walk(child, name)
                    else:
                        walk(child, qualpath)

            walk(info.tree, "")
        self._functions = table
        return table

    # -- call resolution -----------------------------------------------------
    def resolve_call(
        self, info: ModuleInfo, call: ast.Call
    ) -> Optional[FunctionInfo]:
        """The project function a call refers to, if statically resolvable.

        Handles ``helper(...)`` (same module or imported with
        ``from mod import helper``), ``mod.helper(...)`` via the import
        table, and ``self.method(...)`` / ``cls.method(...)`` by matching the
        method name against classes in the same module.
        """
        functions = self.functions()
        func = call.func
        if isinstance(func, ast.Name):
            dotted = info.imports.get(func.id)
            if dotted is not None and dotted in functions:
                return functions[dotted]
            local = f"{info.module}.{func.id}"
            return functions.get(local)
        if isinstance(func, ast.Attribute):
            # mod.helper(...) via the import table
            parts: List[str] = [func.attr]
            base: ast.AST = func.value
            while isinstance(base, ast.Attribute):
                parts.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name):
                if base.id in ("self", "cls"):
                    # method call: match <Class>.<attr> inside this module
                    suffix = f".{func.attr}"
                    candidates = [
                        fi
                        for qualname, fi in functions.items()
                        if fi.module == info.module and qualname.endswith(suffix)
                    ]
                    if len(candidates) == 1:
                        return candidates[0]
                    return None
                root = info.imports.get(base.id)
                if root is not None:
                    dotted = ".".join([root] + list(reversed(parts)))
                    return functions.get(dotted)
        return None

    def call_sites(self, qualname: str) -> List[CallSite]:
        """Every resolved call to ``qualname`` across the project."""
        if self._call_index is None:
            index: Dict[str, List[CallSite]] = {}
            for info in self.modules.values():
                for node in ast.walk(info.tree):
                    if not isinstance(node, ast.Call):
                        continue
                    target = self.resolve_call(info, node)
                    if target is None:
                        continue
                    index.setdefault(target.qualname, []).append(
                        CallSite(
                            caller_module=info.module,
                            caller_symbol=info.symbol_for(node.lineno),
                            node=node,
                            line=node.lineno,
                        )
                    )
            self._call_index = index
        return self._call_index.get(qualname, [])

    def enclosing_function(
        self, info: ModuleInfo, line: int
    ) -> Optional[FunctionInfo]:
        """The innermost project function whose span contains ``line``."""
        best: Optional[FunctionInfo] = None
        for qualname, func in self.functions().items():
            if func.module != info.module:
                continue
            end = getattr(func.node, "end_lineno", func.lineno) or func.lineno
            if func.lineno <= line <= end:
                if best is None or func.lineno >= best.lineno:
                    best = func
        return best


# --------------------------------------------------------------------------
# Deep rules
# --------------------------------------------------------------------------


class DeepRule:
    """Base class for one whole-program pass.

    Unlike per-file :class:`~repro.lint.engine.Rule`, a deep rule sees the
    entire :class:`ProjectGraph` at once.  Inline suppressions still apply:
    the driver drops findings whose line carries a matching
    ``# reprolint: disable=`` directive.
    """

    name: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    rationale: str = ""

    def check_project(self, project: ProjectGraph) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self,
        info: ModuleInfo,
        node: ast.AST,
        message: str,
        severity: Optional[Severity] = None,
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=self.name,
            path=info.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=severity if severity is not None else self.severity,
            code=info.line_text(line),
            symbol=info.symbol_for(line),
        )


def run_deep_rules(
    project: ProjectGraph, rules: Sequence[DeepRule]
) -> List[Finding]:
    """Run every deep rule, honoring per-line inline suppressions."""
    by_path = {info.path: info for info in project.modules.values()}
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule.check_project(project):
            info = by_path.get(finding.path)
            if info is not None:
                rules_disabled = info.disabled.get(finding.line, set())
                if finding.rule in rules_disabled or "all" in rules_disabled:
                    continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


# --------------------------------------------------------------------------
# Graph cache (CI reuses deep results between steps)
# --------------------------------------------------------------------------

_CACHE_VERSION = 1


def tree_fingerprint(paths: Sequence[Union[str, Path]]) -> Dict[str, str]:
    """``path -> sha256(source)`` for every python file under ``paths``."""
    fingerprint: Dict[str, str] = {}
    for path in sorted(iter_python_files(paths)):
        try:
            data = Path(path).read_bytes()
        except OSError:
            continue
        fingerprint[str(path)] = hashlib.sha256(data).hexdigest()
    return fingerprint


def load_cached_findings(
    cache_path: Union[str, Path], fingerprint: Dict[str, str]
) -> Optional[List[Finding]]:
    """Cached deep findings, or ``None`` when any source file changed."""
    try:
        payload = json.loads(Path(cache_path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    if payload.get("version") != _CACHE_VERSION:
        return None
    if payload.get("files") != fingerprint:
        return None
    findings = []
    for raw in payload.get("findings", []):
        findings.append(
            Finding(
                rule=str(raw["rule"]),
                path=str(raw["path"]),
                line=int(raw["line"]),
                col=int(raw["col"]),
                message=str(raw["message"]),
                severity=(
                    Severity.WARNING
                    if raw.get("severity") == "warning"
                    else Severity.ERROR
                ),
                code=str(raw.get("code", "")),
                symbol=str(raw.get("symbol", "")),
            )
        )
    return findings


def save_cached_findings(
    cache_path: Union[str, Path],
    fingerprint: Dict[str, str],
    findings: Sequence[Finding],
) -> None:
    payload = {
        "version": _CACHE_VERSION,
        "files": fingerprint,
        "findings": [f.to_json() for f in findings],
    }
    Path(cache_path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
