"""Lazy re-exports for a package ``__init__`` (PEP 562).

A package whose ``__init__`` imported every module it re-exports made
each importer of one of its modules pay for all of them, and for what
those import in turn (``repro`` for ``repro.core``, hence scipy and
networkx).  An ``__init__`` built on :func:`lazy_exports` imports a
module on the first access of one of its names instead.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for ``package``, given its re-exports
    as relative module -> names.

    A name is imported from its module on first access and then kept as
    a plain attribute.  Any other name is tried as a submodule, so
    ``import repro; repro.store`` works as it did while the ``__init__``
    imported everything.
    """
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str):
        if name in origin:
            value = getattr(importlib.import_module(origin[name], package),
                            name)
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(f"module {package!r} has no "
                                     f"attribute {name!r}") from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
