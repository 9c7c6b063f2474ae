"""The reprolint rule engine: AST parsing, suppressions, and file walking.

The engine owns everything rule-agnostic:

* parsing a file into an :class:`ast.Module` and a :class:`FileContext`
  (dotted module name, suppression table), once per file;
* running every registered :class:`Rule` over the parsed files: a per-file
  rule sees each file whose scope it matches, and a tree rule (the layering
  contract, :mod:`repro.lint.layering`) sees every file of the run at once;
* honoring inline ``# reprolint: disable=<rule>[,<rule>...]`` suppressions —
  a trailing comment suppresses its own line, a standalone comment line
  suppresses the following line, and ``disable=all`` suppresses every rule;
* walking directory trees in sorted order so output is deterministic.

Rules live in :mod:`repro.lint.rules`.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .findings import Finding, Severity

#: Sentinel for "derive the module name from the path".
_DERIVE = "<derive>"

_DIRECTIVE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_\-, ]+)")


def module_name_for(path: Union[str, Path]) -> Optional[str]:
    """Dotted module name for ``path``, anchored at the ``repro`` package.

    ``src/repro/ssd/events.py`` -> ``repro.ssd.events``; files outside a
    ``repro`` directory have no known module (``None``), which scoped rules
    treat as sim-path so fixture snippets exercise every rule.
    """
    parts = Path(path).with_suffix("").parts
    if "repro" not in parts:
        return None
    anchor = len(parts) - 1 - parts[::-1].index("repro")
    module = ".".join(parts[anchor:])
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]
    return module


#: Simple (non-compound) statements: a disable directive on any line of one
#: of these covers the whole statement, so multi-line calls can be suppressed
#: by a trailing comment on any of their lines.  Compound statements (def,
#: for, if, ...) are deliberately excluded — a directive inside a function
#: body must not silence the entire function.
_SIMPLE_STATEMENTS = (
    ast.Assign,
    ast.AnnAssign,
    ast.AugAssign,
    ast.Expr,
    ast.Return,
    ast.Raise,
    ast.Assert,
    ast.Delete,
)


def extend_suppressions_to_statements(
    tree: ast.Module, disabled: Dict[int, Set[str]]
) -> Dict[int, Set[str]]:
    """Spread directives across every line of a multi-line simple statement.

    A finding anchors to the line of the AST node that fired, which for a
    multi-line call is usually the *first* line — but the human writes the
    ``# reprolint: disable=`` comment wherever it fits (often the last line).
    """
    for node in ast.walk(tree):
        if not isinstance(node, _SIMPLE_STATEMENTS):
            continue
        end = getattr(node, "end_lineno", None)
        if end is None or end <= node.lineno:
            continue
        rules: Set[str] = set()
        for line in range(node.lineno, end + 1):
            rules |= disabled.get(line, set())
        if not rules:
            continue
        for line in range(node.lineno, end + 1):
            disabled.setdefault(line, set()).update(rules)
    return disabled


def scan_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule names disabled on that line.

    Uses :mod:`tokenize` so directives inside string literals are ignored.
    A standalone comment line applies to the next line as well as its own.
    """
    disabled: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _DIRECTIVE.search(tok.string)
            if match is None:
                continue
            rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
            line = tok.start[0]
            disabled.setdefault(line, set()).update(rules)
            standalone = not tok.line[: tok.start[1]].strip()
            if standalone:
                disabled.setdefault(line + 1, set()).update(rules)
    except tokenize.TokenError:  # pragma: no cover - truncated source
        pass
    return disabled


@dataclass
class FileContext:
    """Everything a rule needs to know about one file under analysis."""

    path: str
    module: Optional[str]
    tree: ast.Module
    disabled: Dict[int, Set[str]] = field(default_factory=dict)

    def module_in(self, packages: Sequence[str]) -> bool:
        """True when this file's module is inside any of ``packages``.

        Unknown modules (files outside a ``repro`` tree, e.g. test fixtures)
        are *not* considered inside any package.
        """
        if self.module is None:
            return False
        return any(
            self.module == pkg or self.module.startswith(pkg + ".")
            for pkg in packages
        )

    def exempt(self, rule: "Rule") -> bool:
        """True when this file sits in one of ``rule``'s allowlisted packages."""
        return bool(rule.exempt_packages) and self.module_in(rule.exempt_packages)

    def is_suppressed(self, rule: str, line: int) -> bool:
        rules = self.disabled.get(line)
        return bool(rules) and (rule in rules or "all" in rules)


class Rule:
    """Base class for one lint rule.

    Subclasses set ``name``/``severity``/``description``/``rationale`` and
    implement :meth:`check` (one file at a time) or override
    :meth:`check_tree` (every file of the run at once).  ``packages`` scopes
    a per-file rule to dotted package prefixes (empty tuple = everywhere);
    ``exempt_packages`` carves out an allowlist.  Files whose module cannot
    be determined (fixtures, ad-hoc scripts) get every rule.
    """

    name: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    rationale: str = ""
    packages: Sequence[str] = ()
    exempt_packages: Sequence[str] = ()

    def applies_to(self, context: FileContext) -> bool:
        if context.exempt(self):
            return False
        if not self.packages:
            return True
        return context.module is None or context.module_in(self.packages)

    def check(self, context: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    def check_tree(self, contexts: Sequence[FileContext]) -> Iterable[Finding]:
        for context in contexts:
            if self.applies_to(context):
                yield from self.check(context)

    def finding(
        self,
        context: FileContext,
        node: ast.AST,
        message: str,
        severity: Optional[Severity] = None,
    ) -> Finding:
        return Finding(
            rule=self.name,
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=severity if severity is not None else self.severity,
        )


class LintEngine:
    """Runs a set of rules over sources, files, and directory trees."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        if rules is None:
            from .rules import default_rules

            rules = default_rules()
        self.rules: List[Rule] = list(rules)
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {sorted(names)}")

    def lint_paths(self, paths: Sequence[Union[str, Path]]) -> List[Finding]:
        """Lint every ``.py`` file under ``paths``."""
        return self.lint_sources(
            (str(path), Path(path).read_text(encoding="utf-8"))
            for path in sorted(iter_python_files(paths))
        )

    def lint_sources(
        self,
        sources: Iterable[Tuple[str, str]],
        module: Optional[str] = _DERIVE,
    ) -> List[Finding]:
        """Parse each ``(path, source)`` once, then run every rule.

        ``module`` overrides the dotted module name used for rule scoping;
        tests use this to present fixture snippets as sim-path modules.
        """
        contexts: List[FileContext] = []
        findings: List[Finding] = []
        for path, source in sources:
            parsed = parse_context(source, path, module)
            if isinstance(parsed, Finding):
                findings.append(parsed)
            else:
                contexts.append(parsed)
        by_path = {context.path: context for context in contexts}
        findings.extend(
            finding
            for rule in self.rules
            for finding in rule.check_tree(contexts)
            if not by_path[finding.path].is_suppressed(finding.rule, finding.line)
        )
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings


def parse_context(
    source: str, path: str, module: Optional[str] = _DERIVE
) -> Union[FileContext, Finding]:
    """``source`` parsed into a :class:`FileContext`, or a parse-error finding."""
    if module == _DERIVE:
        module = module_name_for(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return Finding(
            rule="parse-error",
            path=path,
            line=exc.lineno or 1,
            col=exc.offset or 0,
            message=f"could not parse: {exc.msg}",
        )
    return FileContext(
        path=path,
        module=module,
        tree=tree,
        disabled=extend_suppressions_to_statements(
            tree, scan_suppressions(source)
        ),
    )


def iter_python_files(paths: Sequence[Union[str, Path]]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` (files pass through as-is)."""
    for path in paths:
        p = Path(path)
        if p.is_dir():
            for child in sorted(p.rglob("*.py")):
                if "__pycache__" not in child.parts:
                    yield child
        elif p.suffix == ".py" or p.is_file():
            yield p
