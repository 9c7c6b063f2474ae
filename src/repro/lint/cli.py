"""Command line for reprolint: ``python -m repro.lint`` / ``repro lint``.

Exit codes: 0 — clean; 1 — findings; 2 — usage error.  Both entry points
share :func:`configure_parser` so the flags stay identical.  Every run
checks the per-file rules and the layering contract; ``--format=github``
emits GitHub Actions workflow commands so findings annotate PR diffs inline.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .engine import LintEngine
from .rules import default_rules, rules_by_name


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach reprolint arguments to ``parser`` (shared by both front ends)."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="run only the named rule (repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        dest="output_format",
        help="findings output format (github = Actions annotations)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule with its scope and rationale, then exit",
    )


def _list_rules() -> int:
    for rule in default_rules():
        scope = ", ".join(rule.packages) if rule.packages else "all packages"
        exempt = (
            f" (exempt: {', '.join(rule.exempt_packages)})"
            if rule.exempt_packages
            else ""
        )
        print(f"{rule.name} [{rule.severity.label}] — {rule.description}")
        print(f"    scope: {scope}{exempt}")
        print(f"    why: {rule.rationale}")
    return 0


def run(args: argparse.Namespace) -> int:
    """Execute a parsed reprolint invocation."""
    if args.list_rules:
        return _list_rules()

    if args.select:
        registry = rules_by_name()
        unknown = [name for name in args.select if name not in registry]
        if unknown:
            print(
                f"unknown rule(s): {', '.join(unknown)}; "
                f"available: {', '.join(sorted(registry))}",
                file=sys.stderr,
            )
            return 2
        engine = LintEngine([registry[name]() for name in args.select])
    else:
        engine = LintEngine()

    findings = engine.lint_paths(args.paths)

    if args.output_format == "json":
        print(json.dumps([f.to_json() for f in findings], indent=2))
    else:
        for finding in findings:
            if args.output_format == "github":
                print(finding.format_github())
            else:
                print(finding.format())
        print(f"{len(findings)} finding(s)")

    return 1 if findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="simulator-aware static analysis for the ECSSD reproduction",
    )
    configure_parser(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
