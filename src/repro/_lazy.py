"""Lazy package exports: a package re-exports names without importing them.

Every package ``__init__`` declares its public names as one table from a
relative module name to the names that module defines, and hands it to
:func:`lazy_exports`, which returns the PEP 562 module ``__getattr__`` and
``__dir__`` plus ``__all__``::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".device": ("SSDDevice", "TileAccessResult"),
        ".ftl": ("FlashTranslationLayer",),
    })

``import repro.ssd`` then loads no submodule; the first read of
``repro.ssd.SSDDevice`` (an attribute access, ``from repro.ssd import
SSDDevice`` or ``from repro.ssd import *``) imports ``repro.ssd.device`` and
stores the name in the package namespace, so later reads are plain
attribute lookups and ``setattr`` on the package replaces the name as it
would an eager re-export.

New code inside ``repro`` imports the defining module, not the package, so
it loads only what it uses.  ``repro lint --deep`` reads each table as the
``from <module> import <name>`` statements it replaces, so the layering
contract sees the same package edges.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``'s re-exports.

    ``table`` maps a module name relative to ``package`` (as in
    ``from .engine import ...``) to the names re-exported from it.
    """
    origin: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, list(origin)
