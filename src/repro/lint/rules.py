"""The simulator-specific lint rules (the "determinism contract").

Each rule targets one bug class that silently breaks the discrete-event
simulator's bit-for-bit reproducibility guarantee (DESIGN.md, "Determinism
contract"):

* ``no-wall-clock`` — wall-clock reads in sim paths make timings run-dependent.
* ``seeded-rng-only`` — module-level / unseeded RNG makes workloads
  run-dependent; the repo's idiom is ``np.random.default_rng((seed, salt, i))``.
* ``sim-time-no-float-eq`` — ``==``/``!=`` between simulated-time expressions
  and float literals is FP-rounding roulette; compare with tolerances or
  ordering instead.
* ``raw-duration-literal`` — bare numeric durations at scheduling call sites
  hide their unit; :mod:`repro.units` helpers (``us``/``ms``/``ns``) exist.
* ``closure-capture-in-schedule`` — lambdas/inner defs passed to
  ``schedule``/``push`` that capture a loop variable fire with its *final*
  value (Python late binding); bind via default args instead.
* ``unordered-iteration`` — iterating a ``set``/``frozenset`` feeds
  hash-order-dependent sequences into scheduling/placement/channel selection.
* ``exception-hygiene`` — bare ``except`` / blanket ``except Exception``
  swallow :class:`repro.errors.SimulationError` and friends, hiding broken
  simulation state.

Rules resolve names through each file's import table, so ``import numpy as
np; np.random.rand()`` and ``from time import perf_counter`` are both caught
while an unrelated local ``def perf_counter()`` is not.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Type

from .engine import FileContext, Rule
from .findings import Finding, Severity

#: Shipped packages/modules deliberately OUTSIDE the determinism-lint scope.
#: Every exclusion must say why — ``tests/test_lint.py`` asserts that every
#: package :func:`discover_sim_packages` can see is either in scope or listed
#: here with a justification, so a new module can never silently escape lint.
EXCLUDED_PACKAGES: Dict[str, str] = {
    "repro.lint": (
        "the linter itself must name banned wall-clock/RNG symbols to detect "
        "them, and the simsan runtime guard wraps numpy.random by design"
    ),
    "repro.obs": (
        "scoping the obs package root would prefix-match every telemetry "
        "submodule; the sim-contract obs submodules are listed individually "
        "and the __init__ is recorder/session/logging wiring only"
    ),
    "repro.obs.metrics": (
        "the metrics registry measures wall time by design (the telemetry "
        "exemption pinned bit-identical-when-disabled by tests/test_obs.py)"
    ),
    "repro.obs.tracing": (
        "the span recorder pairs sim time with wall time by design (same "
        "telemetry exemption as repro.obs.metrics)"
    ),
    "repro.obs.export": (
        "exporters serialize already-recorded spans/metrics to files; they "
        "run after the simulation and never feed state back into it"
    ),
}


def discover_sim_packages(root: Optional[Path] = None) -> Tuple[str, ...]:
    """Walk ``src/repro`` and return every lintable package/module in scope.

    Top-level packages (``repro.ssd``, ``repro.serve``, ...) and top-level
    modules (``repro.config``, ``repro.cli``, ...) are one scope unit each;
    ``repro.obs`` is enumerated per submodule because its telemetry half is
    exempt while its analysis half (profile/health/perfdiff/digest/runs/
    streaming: sim-clock-only, seeded, pure functions of config+seed) lives
    under the same contract as the simulator proper.  Subtract
    :data:`EXCLUDED_PACKAGES` and sort, so the scope is deterministic and
    new modules are in scope by default.
    """
    base = root if root is not None else Path(__file__).resolve().parent.parent
    units: Set[str] = set()
    for entry in sorted(base.iterdir()):
        if entry.name == "__pycache__":
            continue
        if entry.is_dir() and (entry / "__init__.py").is_file():
            if entry.name == "obs":
                units.add("repro.obs")
                for sub in sorted(entry.glob("*.py")):
                    if sub.name != "__init__.py":
                        units.add(f"repro.obs.{sub.stem}")
            else:
                units.add(f"repro.{entry.name}")
        elif entry.suffix == ".py" and entry.name != "__init__.py":
            units.add(f"repro.{entry.stem}")
    return tuple(sorted(units - set(EXCLUDED_PACKAGES)))


#: Packages whose behavior feeds simulated timings, placement, or results.
#: Auto-discovered from the shipped tree (see :func:`discover_sim_packages`)
#: rather than hand-maintained, so a new package cannot dodge the contract.
SIM_PACKAGES: Tuple[str, ...] = discover_sim_packages()

#: Modules allowed to read the wall clock (the span recorder and metrics
#: registry measure real time by design) or that must talk about banned
#: names (this linter).  Deliberately narrower than ``repro.obs``: the
#: profiler/health/perf-diff analyses are sim-clock-only and stay in scope.
WALL_CLOCK_EXEMPT: Tuple[str, ...] = (
    "repro.obs.metrics",
    "repro.obs.tracing",
    "repro.lint",
)


# --------------------------------------------------------------------------
# Import resolution
# --------------------------------------------------------------------------


def build_import_table(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted path they were imported as.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import perf_counter as pc`` -> ``{"pc": "time.perf_counter"}``.
    Relative imports resolve inside this package and are irrelevant to the
    stdlib/numpy bans, so they are skipped.
    """
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                table[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def resolve_dotted(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Fully-qualified dotted name of ``node``, or ``None`` if unresolvable."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = imports.get(node.id)
    if root is None:
        return None
    parts.append(root)
    return ".".join(reversed(parts))


def _terminal_identifier(node: ast.AST) -> Optional[str]:
    """The last identifier of a Name / Attribute / Call expression."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _callee_name(node: ast.Call) -> Optional[str]:
    return _terminal_identifier(node.func)


def _numeric_literal(node: ast.AST) -> Optional[float]:
    """Value of a numeric literal (including unary +/-), else ``None``."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _numeric_literal(node.operand)
        if inner is None:
            return None
        return -inner if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    return None


# --------------------------------------------------------------------------
# no-wall-clock
# --------------------------------------------------------------------------


class NoWallClock(Rule):
    name = "no-wall-clock"
    severity = Severity.ERROR
    description = "forbid wall-clock reads in simulation-path packages"
    rationale = (
        "simulated time must come from the event kernel's pop time; "
        "wall-clock reads make timings vary run to run (repro.obs measures "
        "real time by design and is exempt)"
    )
    packages = SIM_PACKAGES
    exempt_packages = WALL_CLOCK_EXEMPT

    BANNED: Set[str] = {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }

    def check(self, context: FileContext) -> Iterable[Finding]:
        imports = build_import_table(context.tree)
        for node in ast.walk(context.tree):
            dotted: Optional[str] = None
            if isinstance(node, (ast.Attribute, ast.Name)):
                if isinstance(getattr(node, "ctx", None), ast.Load):
                    dotted = resolve_dotted(node, imports)
                    # only report the outermost attribute chain once
                    if isinstance(node, ast.Name) and imports.get(node.id) == node.id:
                        dotted = None  # a bare module reference, not a read
            elif isinstance(node, ast.ImportFrom) and not node.level:
                for alias in node.names:
                    candidate = f"{node.module}.{alias.name}"
                    if candidate in self.BANNED:
                        yield self.finding(
                            context,
                            node,
                            f"importing wall-clock source {candidate}; "
                            "simulation code must use simulated time",
                        )
                continue
            if dotted in self.BANNED:
                yield self.finding(
                    context,
                    node,
                    f"wall-clock read {dotted} in a simulation path; "
                    "use simulated time (repro.obs is the telemetry exemption)",
                )


# --------------------------------------------------------------------------
# seeded-rng-only
# --------------------------------------------------------------------------


class SeededRngOnly(Rule):
    name = "seeded-rng-only"
    severity = Severity.ERROR
    description = "require seeded, injected RNG streams (no global RNG state)"
    rationale = (
        "module-level numpy.random / random calls share hidden global state; "
        "the repo idiom is np.random.default_rng((seed, salt, index)) per "
        "stream, passed down explicitly"
    )

    #: numpy.random attributes that are constructors of explicit streams.
    SEEDABLE_CONSTRUCTORS: Set[str] = {
        "default_rng",
        "RandomState",
        "SeedSequence",
        "Generator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
        "BitGenerator",
    }

    def check(self, context: FileContext) -> Iterable[Finding]:
        imports = build_import_table(context.tree)
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = resolve_dotted(node.func, imports)
            if dotted is None:
                continue
            if dotted.startswith("numpy.random."):
                leaf = dotted.rsplit(".", 1)[1]
                if leaf in self.SEEDABLE_CONSTRUCTORS:
                    if not node.args and not node.keywords:
                        yield self.finding(
                            context,
                            node,
                            f"{leaf}() without a seed is nondeterministic; "
                            "pass an explicit seed tuple like "
                            "default_rng((seed, salt, index))",
                        )
                else:
                    yield self.finding(
                        context,
                        node,
                        f"module-level numpy.random.{leaf} uses hidden global "
                        "state; use a seeded default_rng(...) Generator "
                        "injected by the caller",
                    )
            elif dotted.startswith("random.") and dotted.count(".") == 1:
                leaf = dotted.rsplit(".", 1)[1]
                if leaf == "Random" and (node.args or node.keywords):
                    continue
                yield self.finding(
                    context,
                    node,
                    f"stdlib random.{leaf} draws from global or OS entropy; "
                    "use a seeded numpy Generator injected by the caller",
                )


# --------------------------------------------------------------------------
# sim-time-no-float-eq
# --------------------------------------------------------------------------

#: Identifier fragments that mark an expression as simulated-time-valued.
TIME_WORDS: Set[str] = {
    "now",
    "time",
    "start",
    "end",
    "delay",
    "latency",
    "deadline",
    "makespan",
    "elapsed",
    "duration",
    "timestamp",
    "when",
}


def _is_time_expression(node: ast.AST) -> bool:
    identifier = _terminal_identifier(node)
    if identifier is None:
        return False
    words = identifier.lower().split("_")
    return any(word in TIME_WORDS for word in words)


class SimTimeNoFloatEq(Rule):
    name = "sim-time-no-float-eq"
    severity = Severity.ERROR
    description = "forbid ==/!= between simulated-time expressions and float literals"
    rationale = (
        "simulated timestamps are sums of float durations; exact equality "
        "against a float literal depends on rounding, so order with <=/>= or "
        "compare with math.isclose"
    )

    def check(self, context: FileContext) -> Iterable[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for literal, other in ((left, right), (right, left)):
                    if (
                        isinstance(literal, ast.Constant)
                        and type(literal.value) is float
                        and _is_time_expression(other)
                    ):
                        yield self.finding(
                            context,
                            node,
                            f"exact float comparison of simulated time "
                            f"'{_terminal_identifier(other)}' against "
                            f"{literal.value!r}; use ordering or math.isclose",
                        )
                        break


# --------------------------------------------------------------------------
# raw-duration-literal
# --------------------------------------------------------------------------

#: callee name -> positional indexes that carry a time/duration in seconds.
TIMING_CALLEES: Dict[str, Tuple[int, ...]] = {
    "schedule": (0,),
    "schedule_at": (0,),
    "push": (0,),
    "acquire": (0, 1),
    "submit": (0,),
}

TIMING_KEYWORDS: Set[str] = {"delay", "time", "duration", "at", "deadline"}


class RawDurationLiteral(Rule):
    name = "raw-duration-literal"
    severity = Severity.WARNING
    description = "flag bare numeric durations at scheduling call sites"
    rationale = (
        "a bare literal hides its unit; repro.units helpers (us/ms/ns, "
        "transfer_time) or a named config constant say what the number means"
    )

    def check(self, context: FileContext) -> Iterable[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _callee_name(node)
            if callee not in TIMING_CALLEES:
                continue
            if not isinstance(node.func, ast.Attribute):
                continue  # bare push()/submit() is unlikely to be scheduling
            for index in TIMING_CALLEES[callee]:
                if index >= len(node.args):
                    continue
                value = _numeric_literal(node.args[index])
                if value is not None and value != 0:
                    yield self.finding(
                        context,
                        node.args[index],
                        f"bare duration literal {value:g} passed to "
                        f"{callee}(); use repro.units helpers (us/ms/ns) or "
                        "a named constant",
                    )
            for keyword in node.keywords:
                if keyword.arg in TIMING_KEYWORDS:
                    value = _numeric_literal(keyword.value)
                    if value is not None and value != 0:
                        yield self.finding(
                            context,
                            keyword.value,
                            f"bare duration literal {value:g} for "
                            f"{callee}({keyword.arg}=...); use repro.units "
                            "helpers (us/ms/ns) or a named constant",
                        )


# --------------------------------------------------------------------------
# closure-capture-in-schedule
# --------------------------------------------------------------------------

SCHEDULE_CALLEES: Set[str] = {"schedule", "schedule_at", "push", "call_later"}


def _bound_names(func: ast.AST) -> Set[str]:
    """Parameter names of a function/lambda (bound at call time, safe)."""
    args = getattr(func, "args", None)
    if args is None:
        return set()
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names


def _free_loads(func: ast.AST) -> Set[str]:
    """Names a function/lambda body reads but never binds itself.

    Default-argument expressions are excluded: they evaluate at definition
    time, which is exactly the safe ``lambda n=name: ...`` binding idiom.
    """
    bound = _bound_names(func)
    loads: Set[str] = set()
    body = func.body if isinstance(func.body, list) else [func.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    loads.add(node.id)
                else:
                    bound.add(node.id)
    return loads - bound


class _ScheduleClosureVisitor(ast.NodeVisitor):
    """Tracks enclosing loop variables and inspects scheduling call sites."""

    def __init__(self, rule: "ClosureCaptureInSchedule", context: FileContext):
        self.rule = rule
        self.context = context
        self.findings: List[Finding] = []
        self.loop_stack: List[Set[str]] = []
        #: inner defs that capture a loop variable, by name
        self.tainted_defs: Dict[str, Set[str]] = {}

    # -- loops -----------------------------------------------------------
    def _loop_vars(self) -> Set[str]:
        vars_: Set[str] = set()
        for frame in self.loop_stack:
            vars_ |= frame
        return vars_

    def _visit_loop(self, node: ast.AST, targets: Set[str]) -> None:
        self.loop_stack.append(targets)
        for stmt in getattr(node, "body", []):
            self.visit(stmt)
        self.loop_stack.pop()
        for stmt in getattr(node, "orelse", []):
            self.visit(stmt)

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        self._visit_loop(node, _target_names(node.target))

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self.visit(node.iter)
        self._visit_loop(node, _target_names(node.target))

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self._visit_loop(node, set())

    # -- functions -------------------------------------------------------
    def _visit_function(self, node: ast.AST) -> None:
        name = getattr(node, "name", None)
        if self.loop_stack and name is not None:
            captured = _free_loads(node) & self._loop_vars()
            if captured:
                self.tainted_defs[name] = captured
        saved = self.loop_stack
        self.loop_stack = []
        for stmt in getattr(node, "body", []):
            self.visit(stmt)
        self.loop_stack = saved

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- call sites ------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        callee = _callee_name(node)
        if callee in SCHEDULE_CALLEES and self.loop_stack:
            loop_vars = self._loop_vars()
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                if isinstance(arg, ast.Lambda):
                    captured = _free_loads(arg) & loop_vars
                    if captured:
                        self._report(arg, callee, captured, "lambda")
                elif isinstance(arg, ast.Name) and arg.id in self.tainted_defs:
                    self._report(
                        arg, callee, self.tainted_defs[arg.id], f"'{arg.id}'"
                    )
        self.generic_visit(node)

    def _report(
        self, node: ast.AST, callee: str, captured: Set[str], what: str
    ) -> None:
        names = ", ".join(sorted(captured))
        self.findings.append(
            self.rule.finding(
                self.context,
                node,
                f"{what} passed to {callee}() captures loop variable(s) "
                f"{names} by reference (late binding): every event sees the "
                f"final value; bind with a default arg "
                f"(lambda {names}={names}: ...)",
            )
        )


def _target_names(target: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


class ClosureCaptureInSchedule(Rule):
    name = "closure-capture-in-schedule"
    severity = Severity.ERROR
    description = "flag scheduled callbacks that late-bind a loop variable"
    rationale = (
        "a lambda scheduled inside a loop closes over the variable, not its "
        "value; by the time the simulator fires the event the loop has "
        "finished and every callback sees the last iteration's value"
    )

    def check(self, context: FileContext) -> Iterable[Finding]:
        visitor = _ScheduleClosureVisitor(self, context)
        visitor.visit(context.tree)
        return visitor.findings


# --------------------------------------------------------------------------
# unordered-iteration
# --------------------------------------------------------------------------


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class UnorderedIteration(Rule):
    name = "unordered-iteration"
    severity = Severity.ERROR
    description = "flag iteration over set/frozenset in scheduling/placement code"
    rationale = (
        "set iteration order depends on insertion history and hashing; when "
        "the elements feed channel selection, placement, or event scheduling "
        "the simulation stops being reproducible — wrap in sorted(...)"
    )
    packages = ("repro.ssd", "repro.layout", "repro.serve")

    def check(self, context: FileContext) -> Iterable[Finding]:
        set_names: Set[str] = set()
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Assign) and _is_set_expression(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        set_names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if _is_set_expression(node.value) and isinstance(
                    node.target, ast.Name
                ):
                    set_names.add(node.target.id)

        def iter_sites() -> Iterator[Tuple[ast.AST, ast.AST]]:
            for node in ast.walk(context.tree):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    yield node, node.iter
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
                    for generator in node.generators:
                        yield node, generator.iter
                elif isinstance(node, ast.DictComp):
                    for generator in node.generators:
                        yield node, generator.iter

        for site, iterable in iter_sites():
            if _is_set_expression(iterable):
                yield self.finding(
                    context,
                    iterable,
                    "iterating a set literal/constructor directly; wrap in "
                    "sorted(...) so downstream scheduling and placement stay "
                    "deterministic",
                )
            elif isinstance(iterable, ast.Name) and iterable.id in set_names:
                yield self.finding(
                    context,
                    iterable,
                    f"iterating set '{iterable.id}' directly; wrap in "
                    "sorted(...) so downstream scheduling and placement stay "
                    "deterministic",
                )


# --------------------------------------------------------------------------
# exception-hygiene
# --------------------------------------------------------------------------

BLANKET_EXCEPTIONS: Set[str] = {"Exception", "BaseException"}


class ExceptionHygiene(Rule):
    name = "exception-hygiene"
    severity = Severity.ERROR
    description = "forbid bare except / blanket except Exception in sim code"
    rationale = (
        "blanket handlers swallow SimulationError/ProtocolError and keep a "
        "broken simulation running; catch the specific repro.errors type"
    )
    packages = ("repro.ssd", "repro.core", "repro.serve")

    def _blanket_name(self, node: Optional[ast.AST]) -> Optional[str]:
        if node is None:
            return None
        if isinstance(node, ast.Name) and node.id in BLANKET_EXCEPTIONS:
            return node.id
        if isinstance(node, ast.Attribute) and node.attr in BLANKET_EXCEPTIONS:
            return node.attr
        if isinstance(node, ast.Tuple):
            for element in node.elts:
                name = self._blanket_name(element)
                if name:
                    return name
        return None

    def check(self, context: FileContext) -> Iterable[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    context,
                    node,
                    "bare except catches everything including "
                    "KeyboardInterrupt; catch a specific repro.errors type",
                )
                continue
            blanket = self._blanket_name(node.type)
            if blanket:
                yield self.finding(
                    context,
                    node,
                    f"blanket 'except {blanket}' swallows simulation faults; "
                    "catch a specific repro.errors type (SimulationError, "
                    "ProtocolError, ...)",
                )


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

RULE_CLASSES: Tuple[Type[Rule], ...] = (
    NoWallClock,
    SeededRngOnly,
    SimTimeNoFloatEq,
    RawDurationLiteral,
    ClosureCaptureInSchedule,
    UnorderedIteration,
    ExceptionHygiene,
)


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule."""
    return [cls() for cls in RULE_CLASSES]


def rules_by_name() -> Dict[str, Type[Rule]]:
    return {cls.name: cls for cls in RULE_CLASSES}
