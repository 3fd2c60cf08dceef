"""Lazy package exports (PEP 562).

An initialiser that imports its submodules makes every process that
touches one module of the package pay for all of them.  Each package
under ``repro`` instead names the module that defines each exported
name, and a name's module is imported the first time the name is used::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.obs.store": ("EventStore", "StoredEvent", "StoreRecorder"),
        "repro.obs.dashboard": ("DashboardServer",),
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, table: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``, where
    ``table`` maps each defining module to the names it exports.

    The first lookup of a name imports its module and stores the object in
    the package namespace, so later lookups never reach ``__getattr__``.
    Any other attribute is tried as a submodule, which keeps
    ``import repro; repro.net.api`` working as it did when the
    initialisers imported their submodules.
    """
    origin = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package]
    for name, module in origin.items():
        # Importing a submodule binds it in its package under its own
        # name, which would hide a lazy name it shares: bind that one now.
        if module == f"{package}.{name}":
            setattr(namespace, name, getattr(importlib.import_module(module), name))

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
                raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(namespace, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(namespace)) | set(origin))

    return list(origin), __getattr__, __dir__
