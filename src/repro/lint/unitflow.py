"""Deep pass: unit/dimension flow across the simulator.

Everything in the simulator is a bare ``float``, so nothing stops a
milliseconds value reaching a seconds-typed scheduler or a ``bytes`` count
being added to a ``bytes/s`` rate — the classic silent-corruption bug in
event-driven models.  This pass infers dimensions from the
:mod:`repro.units` vocabulary and propagates them through local assignments
and arithmetic:

* **sources** — ``us()/ms()/ns()`` and ``transfer_time()/compute_time()``
  produce SECONDS; ``gbps()/mbps()`` BYTES_PER_S; ``gflops()/gops()``
  OPS_PER_S; the ``KiB``…``TB`` constants BYTES; ``SECOND``…``NANOSECOND``
  SECONDS.  Parameter names declare dimensions by suffix convention
  (``*_s``/``*_seconds`` → SECONDS, ``*_bytes`` → BYTES, ``*_bps`` →
  BYTES_PER_S, ``*_ops`` → OPS);
* **propagation** — ``+``/``-`` require matching dimensions;
  ``SECONDS * BYTES_PER_S → BYTES``, ``BYTES / BYTES_PER_S → SECONDS``,
  ``OPS / OPS_PER_S → SECONDS``, and so on; multiplying or dividing by a
  dimensionless scalar preserves the dimension;
* **sinks** — scheduler entry points (``schedule``, ``push``, ``acquire``,
  ``block_until``…) demand SECONDS; ``transfer_time(num_bytes,
  bandwidth_bps)`` demands (BYTES, BYTES_PER_S); project functions demand
  whatever their parameter suffixes declare.  Passing a *known different*
  dimension is a finding; UNKNOWN stays silent (the pass is conservative —
  no false positives on un-annotated code).

It also generalizes the per-file ``raw-duration-literal`` rule across module
boundaries: a bare nonzero numeric literal passed to *another module's*
function for a seconds-suffixed parameter is flagged even though the callee
is not one of the hard-coded scheduler names.
"""

from __future__ import annotations

import ast
import enum
from typing import Dict, Iterable, Optional, Tuple

from .findings import Finding
from .project import DeepRule, FunctionInfo, ModuleInfo, ProjectGraph
from .rules import SIM_PACKAGES, resolve_dotted


class Dim(enum.Enum):
    SECONDS = "seconds"
    BYTES = "bytes"
    BYTES_PER_S = "bytes/s"
    OPS_PER_S = "ops/s"
    OPS = "ops"
    DIMENSIONLESS = "dimensionless"
    UNKNOWN = "unknown"


#: repro.units callables -> dimension of their return value.
_CALL_SOURCES: Dict[str, Dim] = {
    "us": Dim.SECONDS,
    "ms": Dim.SECONDS,
    "ns": Dim.SECONDS,
    "transfer_time": Dim.SECONDS,
    "compute_time": Dim.SECONDS,
    "gbps": Dim.BYTES_PER_S,
    "mbps": Dim.BYTES_PER_S,
    "gflops": Dim.OPS_PER_S,
    "gops": Dim.OPS_PER_S,
}

#: repro.units module constants -> dimension.
_BYTES_CONSTANTS = ("KiB", "MiB", "GiB", "TiB", "KB", "MB", "GB", "TB")
_SECONDS_CONSTANTS = ("SECOND", "MILLISECOND", "MICROSECOND", "NANOSECOND")

#: Known sinks: callee name -> {arg position: expected dim}.  Mirrors (and
#: extends) TIMING_CALLEES from the per-file rules.
_SINKS: Dict[str, Dict[int, Dim]] = {
    "schedule": {0: Dim.SECONDS},
    "schedule_at": {0: Dim.SECONDS},
    "push": {0: Dim.SECONDS},
    "block_until": {0: Dim.SECONDS},
    "acquire": {0: Dim.SECONDS, 1: Dim.SECONDS},
    "transfer_time": {0: Dim.BYTES, 1: Dim.BYTES_PER_S},
    "compute_time": {1: Dim.OPS_PER_S},
    # Wrapping an already-seconds value doubles the conversion:
    "us": {0: Dim.DIMENSIONLESS},
    "ms": {0: Dim.DIMENSIONLESS},
    "ns": {0: Dim.DIMENSIONLESS},
}

#: Parameter-name suffixes that declare a dimension by convention.
_PARAM_SUFFIXES: Tuple[Tuple[str, Dim], ...] = (
    ("_seconds", Dim.SECONDS),
    ("_s", Dim.SECONDS),
    ("_bytes", Dim.BYTES),
    ("_bps", Dim.BYTES_PER_S),
    ("_ops", Dim.OPS),
)

#: Time-ish parameter names for the cross-module raw-literal check.
_TIME_PARAM_NAMES = ("duration", "delay", "timeout", "deadline", "interval")

_MUL_TABLE: Dict[Tuple[Dim, Dim], Dim] = {
    (Dim.SECONDS, Dim.BYTES_PER_S): Dim.BYTES,
    (Dim.BYTES_PER_S, Dim.SECONDS): Dim.BYTES,
    (Dim.SECONDS, Dim.OPS_PER_S): Dim.OPS,
    (Dim.OPS_PER_S, Dim.SECONDS): Dim.OPS,
}

_DIV_TABLE: Dict[Tuple[Dim, Dim], Dim] = {
    (Dim.BYTES, Dim.SECONDS): Dim.BYTES_PER_S,
    (Dim.BYTES, Dim.BYTES_PER_S): Dim.SECONDS,
    (Dim.OPS, Dim.SECONDS): Dim.OPS_PER_S,
    (Dim.OPS, Dim.OPS_PER_S): Dim.SECONDS,
    (Dim.SECONDS, Dim.SECONDS): Dim.DIMENSIONLESS,
    (Dim.BYTES, Dim.BYTES): Dim.DIMENSIONLESS,
    (Dim.OPS, Dim.OPS): Dim.DIMENSIONLESS,
}


def param_dim(name: str) -> Dim:
    for suffix, dim in _PARAM_SUFFIXES:
        if name.endswith(suffix):
            return dim
    return Dim.UNKNOWN


def _is_units_callee(dotted: Optional[str], name: str) -> bool:
    """True when a call resolves to repro.units (or is a bare units name)."""
    if dotted is None:
        return False
    return dotted == f"repro.units.{name}" or dotted == name


class _DimInferencer:
    """Infers dimensions of expressions within one function scope."""

    def __init__(self, info: ModuleInfo, func: Optional[FunctionInfo]) -> None:
        self.info = info
        self.locals: Dict[str, Dim] = {}
        if func is not None:
            for param in func.params:
                dim = param_dim(param)
                if dim is not Dim.UNKNOWN:
                    self.locals[param] = dim
        self.mixes: Dict[int, Tuple[ast.AST, Dim, Dim]] = {}

    def infer(self, expr: ast.AST, depth: int = 0) -> Dim:
        if depth > 12:
            return Dim.UNKNOWN
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, (int, float)) and not isinstance(
                expr.value, bool
            ):
                return Dim.DIMENSIONLESS
            return Dim.UNKNOWN
        if isinstance(expr, ast.Name):
            dim = self.locals.get(expr.id)
            if dim is not None:
                return dim
            if expr.id in _BYTES_CONSTANTS:
                return Dim.BYTES
            if expr.id in _SECONDS_CONSTANTS:
                return Dim.SECONDS
            inferred = param_dim(expr.id)
            return inferred
        if isinstance(expr, ast.Attribute):
            if expr.attr in _BYTES_CONSTANTS:
                return Dim.BYTES
            if expr.attr in _SECONDS_CONSTANTS:
                return Dim.SECONDS
            return param_dim(expr.attr)
        if isinstance(expr, ast.Call):
            name = ""
            if isinstance(expr.func, ast.Name):
                name = expr.func.id
            elif isinstance(expr.func, ast.Attribute):
                name = expr.func.attr
            dotted = resolve_dotted(expr.func, self.info.imports)
            if name in _CALL_SOURCES and (
                _is_units_callee(dotted, name) or dotted is None
            ):
                return _CALL_SOURCES[name]
            return Dim.UNKNOWN
        if isinstance(expr, ast.UnaryOp):
            return self.infer(expr.operand, depth + 1)
        if isinstance(expr, ast.IfExp):
            then = self.infer(expr.body, depth + 1)
            other = self.infer(expr.orelse, depth + 1)
            return then if then is other else Dim.UNKNOWN
        if isinstance(expr, ast.BinOp):
            left = self.infer(expr.left, depth + 1)
            right = self.infer(expr.right, depth + 1)
            if isinstance(expr.op, (ast.Add, ast.Sub)):
                if (
                    left is not Dim.UNKNOWN
                    and right is not Dim.UNKNOWN
                    and left is not right
                    and Dim.DIMENSIONLESS not in (left, right)
                ):
                    self.mixes.setdefault(id(expr), (expr, left, right))
                    return Dim.UNKNOWN
                if left is right:
                    return left
                for side in (left, right):
                    if side not in (Dim.UNKNOWN, Dim.DIMENSIONLESS):
                        return side
                return Dim.UNKNOWN
            if isinstance(expr.op, ast.Mult):
                if (left, right) in _MUL_TABLE:
                    return _MUL_TABLE[(left, right)]
                if left is Dim.DIMENSIONLESS and right is not Dim.UNKNOWN:
                    return right
                if right is Dim.DIMENSIONLESS and left is not Dim.UNKNOWN:
                    return left
                return Dim.UNKNOWN
            if isinstance(expr.op, ast.Div):
                if (left, right) in _DIV_TABLE:
                    return _DIV_TABLE[(left, right)]
                if right is Dim.DIMENSIONLESS and left is not Dim.UNKNOWN:
                    return left
                return Dim.UNKNOWN
            return Dim.UNKNOWN
        return Dim.UNKNOWN

    def learn(self, node: ast.AST) -> None:
        """Record dims of single-target local assignments, in source order."""
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                dim = self.infer(node.value)
                if dim is Dim.UNKNOWN:
                    dim = param_dim(target.id)
                if dim is not Dim.UNKNOWN:
                    self.locals[target.id] = dim
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                dim = self.infer(node.value)
                if dim is not Dim.UNKNOWN:
                    self.locals[node.target.id] = dim


def _module_in_scope(module: str) -> bool:
    return any(
        module == pkg or module.startswith(pkg + ".") for pkg in SIM_PACKAGES
    )


def _nonzero_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        value = node.value
        return isinstance(value, (int, float)) and not isinstance(value, bool) and value != 0
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _nonzero_literal(node.operand)
    return False


class UnitFlow(DeepRule):
    name = "unit-flow"
    description = "dimension mismatch or raw literal crossing a unit boundary"
    rationale = (
        "sim quantities are bare floats; mixing seconds with bytes/s or "
        "handing a milliseconds literal to a seconds-typed API corrupts "
        "every downstream latency silently — dimensions must flow through "
        "the repro.units vocabulary"
    )

    def check_project(self, project: ProjectGraph) -> Iterable[Finding]:
        for module_name in sorted(project.modules):
            info = project.modules[module_name]
            if not _module_in_scope(info.module):
                continue
            yield from self._check_module(project, info)

    def _scopes(
        self, project: ProjectGraph, info: ModuleInfo
    ) -> Iterable[Tuple[Optional[FunctionInfo], ast.AST]]:
        funcs = [
            f for f in project.functions().values() if f.module == info.module
        ]
        for func in funcs:
            yield func, func.node
        yield None, info.tree

    def _check_module(
        self, project: ProjectGraph, info: ModuleInfo
    ) -> Iterable[Finding]:
        for func, scope in self._scopes(project, info):
            inferencer = _DimInferencer(info, func)
            for node in _scope_walk(scope):
                inferencer.learn(node)
                if isinstance(node, ast.BinOp) and isinstance(
                    node.op, (ast.Add, ast.Sub)
                ):
                    inferencer.infer(node)  # records any dimension mix
                if isinstance(node, ast.Call):
                    yield from self._check_call(project, info, inferencer, node)
            for expr, left, right in inferencer.mixes.values():
                yield self.finding(
                    info,
                    expr,
                    f"mixing dimensions: {left.value} {_op_label(expr)} "
                    f"{right.value}; convert through repro.units first",
                )

    def _check_call(
        self,
        project: ProjectGraph,
        info: ModuleInfo,
        inferencer: _DimInferencer,
        node: ast.Call,
    ) -> Iterable[Finding]:
        name = ""
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr

        # 1. Known sinks (scheduler/units entry points) by callee name.
        expected = _SINKS.get(name)
        if expected is not None:
            for pos, want in expected.items():
                if pos >= len(node.args):
                    continue
                got = inferencer.infer(node.args[pos])
                if want is Dim.DIMENSIONLESS:
                    # us()/ms()/ns() double-wrap: feeding an already-seconds
                    # value through a unit constructor converts twice.
                    if got is Dim.SECONDS:
                        yield self.finding(
                            info,
                            node,
                            f"{name}() applied to a value already in seconds "
                            "— double unit conversion",
                        )
                    continue
                if got in (Dim.UNKNOWN, Dim.DIMENSIONLESS):
                    continue
                if got is not want:
                    yield self.finding(
                        info,
                        node,
                        f"argument {pos} of {name}() has dimension "
                        f"{got.value}, expected {want.value}",
                    )

        # 2. Project functions: parameter suffixes declare dimensions, and a
        #    raw nonzero literal for a seconds parameter across a module
        #    boundary is the interprocedural raw-duration-literal.
        target = project.resolve_call(info, node)
        if target is None:
            return
        bound = target.bind_args(node)
        for param, arg in bound.items():
            want = param_dim(param)
            time_named = want is Dim.SECONDS or any(
                tok in param.lower() for tok in _TIME_PARAM_NAMES
            )
            if want is Dim.UNKNOWN and not time_named:
                continue
            got = inferencer.infer(arg)
            if (
                want is not Dim.UNKNOWN
                and got not in (Dim.UNKNOWN, Dim.DIMENSIONLESS)
                and got is not want
            ):
                yield self.finding(
                    info,
                    node,
                    f"parameter '{param}' of {target.qualname} declares "
                    f"{want.value} but the argument has dimension {got.value}",
                )
            elif (
                want is Dim.SECONDS
                and target.module != info.module
                and _nonzero_literal(arg)
            ):
                yield self.finding(
                    info,
                    node,
                    f"raw numeric literal passed across a module boundary "
                    f"for seconds parameter '{param}' of {target.qualname}; "
                    "wrap it in a repro.units constructor (us/ms/ns)",
                )


def _op_label(expr: ast.BinOp) -> str:
    return "+" if isinstance(expr.op, ast.Add) else "-"


def _scope_walk(root: ast.AST) -> Iterable[ast.AST]:
    """Walk ``root`` without descending into nested function scopes.

    Each function is analyzed exactly once — by its own
    :class:`_DimInferencer` with its own parameter dims — so a nested
    ``def`` must not be re-walked by the enclosing scope.  Breadth-first,
    matching :func:`ast.walk`, so assignments are learned before the deeper
    expressions that use them.
    """
    from collections import deque

    queue: "deque[ast.AST]" = deque([root])
    while queue:
        node = queue.popleft()
        if node is not root and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        yield node
        queue.extend(ast.iter_child_nodes(node))
