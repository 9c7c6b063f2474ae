"""The package layering contract: a tree rule over every file's imports.

The architecture layers top-down — ``serve`` drives ``core``, which drives
``ssd``, which sits on ``units``/``config`` — and the contract only stays
true while no lower layer grows an import of a higher one.  This rule
resolves every import statement of the files in one lint run (at any nesting
depth, so lazy function-level imports count, and every lazy package export
table read as the ``from`` imports it replaces) and checks each
cross-package edge against an *explicit allowlist*: any edge not in the
matrix is a finding, so a new back-edge fails CI the moment it is written
rather than surfacing later as an import cycle or an untestable module.

The matrix is intentionally written down in full (not inferred from the
current tree): it is the documentation of record for "who may import whom",
mirrored as a table in DESIGN.md §8.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .engine import FileContext, Rule
from .findings import Finding

#: Units every package may import freely: leaf utilities with no sim state
#: (errors, units), the config layer that roots all seeds, observability
#: (importable everywhere by design — the zero-overhead guard keeps it out of
#: the hot path), and the lint package itself (the simsan runtime guard is
#: consumed by sim layers the same way obs is), and the lazy-export helper
#: every package ``__init__`` calls.
UNIVERSAL: Tuple[str, ...] = (
    "repro._lazy",
    "repro.errors",
    "repro.units",
    "repro.obs",
    "repro.config",
    "repro.lint",
)

#: Allowed cross-package import edges beyond :data:`UNIVERSAL`, keyed by the
#: importing unit.  ``repro`` is the package root (its ``__init__``);
#: top-level modules like ``repro.cli`` are their own unit.  Nothing may
#: import ``repro.cli`` — the CLI is the outermost shell.
ALLOWED_IMPORTS: Dict[str, Tuple[str, ...]] = {
    "repro": ("repro.core",),
    "repro.__main__": ("repro.cli",),
    "repro.analysis": (
        "repro.baselines",
        "repro.cfp32",
        "repro.core",
        "repro.layout",
        "repro.ssd",
        "repro.workloads",
    ),
    "repro.ablate": (
        "repro.cfp32",
        "repro.cluster",
        "repro.core",
        "repro.faults",
        "repro.serve",
        "repro.workloads",
    ),
    "repro.baselines": ("repro.workloads",),
    "repro.cfp32": (),
    "repro.cli": (
        "repro.ablate",
        "repro.analysis",
        "repro.cluster",
        "repro.core",
        "repro.faults",
        "repro.serve",
        "repro.workloads",
    ),
    "repro.cluster": (
        "repro.faults",
        "repro.serve",
    ),
    "repro.config": (),
    "repro.core": (
        "repro.cfp32",
        "repro.layout",
        "repro.screening",
        "repro.ssd",
        "repro.workloads",
    ),
    "repro.errors": (),
    "repro.faults": (
        "repro.analysis",
        "repro.core",
        "repro.ssd",
        "repro.workloads",
    ),
    "repro.layout": (),
    "repro.lint": (),
    "repro.obs": ("repro", "repro.analysis"),
    "repro.screening": (),
    "repro.serve": (
        "repro.core",
        "repro.layout",
        "repro.workloads",
    ),
    "repro.ssd": (),
    "repro.units": (),
    "repro.workloads": (),
}


def allowed(importer: str, imported: str) -> bool:
    """True when the layering matrix permits ``importer`` -> ``imported``."""
    if imported in UNIVERSAL:
        return True
    return imported in ALLOWED_IMPORTS.get(importer, ())


@dataclass
class ImportEdge:
    """One import statement, resolved as far as possible."""

    module: str          # importing module (dotted)
    target: str          # imported dotted name (project or external)
    line: int
    node: ast.AST


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


def import_edges(modules: Mapping[str, FileContext]) -> List[ImportEdge]:
    """Every import statement, one edge per imported name."""
    edges: List[ImportEdge] = []
    for module, info in modules.items():
        for node in import_nodes(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    edges.append(
                        ImportEdge(
                            module=module,
                            target=alias.name,
                            line=node.lineno,
                            node=node,
                        )
                    )
            else:
                base = _resolve_from_base(modules, module, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        edges.append(ImportEdge(module, base, node.lineno, node))
                        continue
                    candidate = f"{base}.{alias.name}"
                    # `from X import name` imports module X.name when that
                    # is a project module, otherwise an attribute of X.
                    target = candidate if candidate in modules else base
                    edges.append(ImportEdge(module, target, node.lineno, node))
    return edges


def _resolve_from_base(
    modules: Mapping[str, FileContext], module: str, node: ast.ImportFrom
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
            base in modules
            or any(m.startswith(base + ".") for m in modules)
        ):
            return base
    return None


def package_edges(
    modules: Mapping[str, FileContext],
) -> Dict[Tuple[str, str], List[ImportEdge]]:
    """Cross-package edges, grouped by (importer unit, imported unit)."""
    grouped: Dict[Tuple[str, str], List[ImportEdge]] = {}
    for edge in import_edges(modules):
        if not edge.target.startswith("repro"):
            continue
        src = package_of(edge.module)
        dst = package_of(edge.target)
        if src == dst:
            continue
        grouped.setdefault((src, dst), []).append(edge)
    return grouped


class LayeringContract(Rule):
    name = "layering-contract"
    description = "cross-package import not in the layering allowlist"
    rationale = (
        "the serve → core → ssd → units layering is what keeps each layer "
        "independently testable and the determinism contract local; any new "
        "cross-package edge must be added to the matrix deliberately, in the "
        "same commit that justifies it"
    )

    def check_tree(self, contexts: Sequence[FileContext]) -> Iterable[Finding]:
        modules = {c.module: c for c in contexts if c.module is not None}
        for (src, dst), edges in sorted(package_edges(modules).items()):
            if allowed(src, dst):
                continue
            for edge in edges:
                yield self.finding(
                    modules[edge.module],
                    edge.node,
                    f"{src} may not import {dst} "
                    f"(imports {edge.target}); the layering matrix in "
                    f"repro.lint.layering has no such edge — add it "
                    f"deliberately or route through an allowed layer",
                )
