"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package declares which names it re-exports and from which of its
modules; a module is imported the first time one of its names is asked
for, so ``import repro`` compiles nothing of the program and a run
loads only the modules of the lane it drives::

    __all__, __getattr__, __dir__ = lazy_exports(
        globals(),
        (".log", ("Log", "serial_permutations")),
        (".operations", ("Operation", "read", "write")),
    )

``from package import *``, ``dir(package)`` and attribute access to a
submodule (``repro.engine.pipeline.parallel`` after ``import
repro.engine.pipeline``) behave as they did with eager imports.  A
resolved name is stored in the package namespace, so it costs one dict
lookup afterwards.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Iterable


def lazy_exports(
    namespace: dict[str, Any], *groups: tuple[str, Iterable[str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the module owning
    *namespace*; each group is ``(relative module, names)``, and
    ``__all__`` lists the names in group order."""
    owner = namespace["__name__"]
    anchor = namespace["__package__"]
    is_package = "__path__" in namespace
    origin = {name: module for module, names in groups for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, anchor), name)
        elif is_package and not name.startswith("__"):
            try:
                value = importlib.import_module(f"{owner}.{name}")
            except ModuleNotFoundError as missing:
                if missing.name != f"{owner}.{name}":
                    raise
                raise AttributeError(
                    f"module {owner!r} has no attribute {name!r}"
                ) from None
        else:
            raise AttributeError(f"module {owner!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return list(origin), __getattr__, __dir__
