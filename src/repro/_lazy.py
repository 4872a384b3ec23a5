"""Import-on-use package exports (PEP 562).

A package declares each public name with the module that defines it::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "RunConfig": "repro.runtime.config",
        "parse": "repro.syntax.parser",
    })

The defining module is imported the first time the name is read, and the
value is then cached on the package, so ``import repro`` costs only the
modules that a caller's names reach.  ``module:attr`` exports ``attr``
under another name.  The returned ``__all__`` is the sorted export names;
a package that also defines public names eagerly adds those to it.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Callable, Dict, List, Tuple

#: package name -> {exported name: (defining module, attribute)}
_PACKAGES: Dict[str, Dict[str, Tuple[str, str]]] = {}


class _LazyPackage(types.ModuleType):
    """A package whose exports survive the import of a same-named submodule.

    Importing ``pkg.name`` makes the import system bind the submodule as
    the package attribute ``name``.  Where an export shares the name of
    the module that defines it (``repro.tracing.record``,
    ``repro.monitoring.compose``, ``repro.languages.strict``), that would
    replace the exported object with the module; the binding is redirected
    to the object instead, as an eager ``from .name import name`` did.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, types.ModuleType):
            target = _PACKAGES.get(self.__name__, {}).get(name)
            if target is not None and target[0] == value.__name__:
                value = getattr(value, target[1])
        super().__setattr__(name, value)


def lazy_exports(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for a package serving ``exports``."""
    table = {}
    for name, target in exports.items():
        module_name, _, attr = target.partition(":")
        table[name] = (module_name, attr or name)
    _PACKAGES[package] = table
    module = sys.modules[package]
    module.__class__ = _LazyPackage

    def __getattr__(name: str) -> object:
        try:
            module_name, attr = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module_name), attr)
        setattr(module, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(module.__dict__) | set(table))

    return __getattr__, __dir__, sorted(table)
