"""The observer slot: which recorders the simulator reports to.

Five observers can watch a run: the metrics registry, the span tracer, the
causal collector (:mod:`repro.obs.causal`), the sim-sanitizer
(:mod:`repro.lint.simsan`) and the fault injector
(:mod:`repro.faults.injector`).  A :class:`Hooks` record names the one
installed in each field, and this module holds the process-global record.
Call sites read it with :func:`current` and test the observer's ``enabled``
flag before touching any other member, so a run with every field off does
the same arithmetic in the same order as a build without observers.

"Off" is :data:`~repro.obs.metrics.NULL_REGISTRY` and
:data:`~repro.obs.tracing.NULL_TRACER` for the first two fields, because
pipeline code opens ``tracer.span(...)`` without a guard.  The other three
share :data:`OFF`, whose only member is ``enabled = False``.

:func:`installed` replaces fields for the length of a block::

    with hooks.installed(collector=CausalCollector()):
        simulator.run(arrivals)

:func:`swap` and :func:`restore` are the same save and restore for a
session that outlives one block (``obs.configure()`` on the CLI).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Iterator

from .metrics import NULL_REGISTRY
from .tracing import NULL_TRACER


class _Off:
    """The off value of the collector, sanitizer and injector fields."""

    __slots__ = ()
    enabled = False


OFF = _Off()


@dataclass(frozen=True)
class Hooks:
    """The installed observer per field (see the module docstring)."""

    registry: Any = NULL_REGISTRY
    tracer: Any = NULL_TRACER
    collector: Any = OFF
    sanitizer: Any = OFF
    injector: Any = OFF


_ALL_OFF = Hooks()
_current = _ALL_OFF


def current() -> Hooks:
    """The installed observers; every field is off until one is installed."""
    return _current


def swap(**fields: Any) -> Hooks:
    """Install the named fields (``None`` means off); return the old record.

    Fields not named keep their observer.  An unknown field name raises
    ``TypeError`` from :func:`dataclasses.replace`.  Pass the returned
    record to :func:`restore` to undo the swap.
    """
    global _current
    previous = _current
    _current = replace(previous, **{
        name: getattr(_ALL_OFF, name, None) if value is None else value
        for name, value in fields.items()
    })
    return previous


def restore(saved: Hooks) -> None:
    """Reinstall a record :func:`swap` returned, every field at once."""
    global _current
    _current = saved


@contextmanager
def installed(**fields: Any) -> Iterator[Hooks]:
    """Install the named fields for a block, then restore the whole record.

    The previous record comes back also when the block raises.
    """
    saved = swap(**fields)
    try:
        yield _current
    finally:
        restore(saved)
