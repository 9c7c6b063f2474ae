"""reprolint — simulator-aware static analysis for the ECSSD reproduction.

The discrete-event simulator's value rests on bit-for-bit determinism (the
event kernel, :mod:`repro.serve.kernel`, pops events in strictly increasing
``(time, kind, seq)`` order, so runs reproduce exactly).  This package
mechanically enforces the bug classes that quietly break that promise:
wall-clock reads, unseeded RNG, float-equality on simulated time, unit-less
duration literals, late-binding closures in scheduled callbacks, hash-ordered
set iteration, and blanket exception handlers.  See DESIGN.md's "Determinism
contract" for the rule-by-rule rationale.

Beyond the per-file rules, ``--deep`` runs whole-program passes over one
shared project graph (:mod:`repro.lint.project`): interprocedural seed
provenance, unit/dimension flow, and the package layering contract.  The
runtime half lives in :mod:`repro.lint.simsan` — a zero-overhead-when-
disabled sanitizer asserting the same contract on live event loops.

Usage::

    python -m repro.lint src/repro          # standalone
    python -m repro.lint src/repro --deep   # + whole-program passes
    python -m repro lint src/repro          # via the repro CLI
    REPRO_SIMSAN=1 repro serve ...          # runtime sanitizer
    # reprolint: disable=<rule>             # inline suppression
    reprolint-baseline.json                 # justified grandfathered findings
"""

from .baseline import Baseline, BaselineEntry, BaselineError, discover_baseline
from .deep import DEEP_RULE_CLASSES, default_deep_rules, run_deep
from .engine import FileContext, LintEngine, Rule, module_name_for
from .findings import Finding, Severity
from .project import DeepRule, ProjectGraph, package_of
from .rules import (
    EXCLUDED_PACKAGES,
    RULE_CLASSES,
    SIM_PACKAGES,
    default_rules,
    discover_sim_packages,
    rules_by_name,
)

__all__ = [
    "Baseline",
    "BaselineEntry",
    "BaselineError",
    "DEEP_RULE_CLASSES",
    "DeepRule",
    "EXCLUDED_PACKAGES",
    "FileContext",
    "Finding",
    "LintEngine",
    "ProjectGraph",
    "RULE_CLASSES",
    "Rule",
    "SIM_PACKAGES",
    "Severity",
    "default_deep_rules",
    "default_rules",
    "discover_baseline",
    "discover_sim_packages",
    "module_name_for",
    "package_of",
    "rules_by_name",
    "run_deep",
]
