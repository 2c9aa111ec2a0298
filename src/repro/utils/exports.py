"""Package export tables: a public name loads its module on first use.

Every package ``__init__`` is one table, module -> the names it defines::

    exports(globals(), {
        ".checkpoint_store": "CheckpointStore FullCheckpointRecord",
        ".": "initializers",          # a submodule, exported as itself
    })

``from repro.storage import CheckpointStore`` then imports
``repro.storage.checkpoint_store`` and what that imports, nothing else
(PEP 562 module ``__getattr__``): a job loads only the modules it runs.
A resolved name is stored in the package namespace, so the next lookup
is a plain attribute read.
"""

from __future__ import annotations

import importlib


def exports(namespace: dict, table: dict[str, str]) -> None:
    """Define ``__getattr__``, ``__dir__``, ``__all__`` (the table's names,
    in table order, after any ``__all__`` the package already set) and
    ``__exports__`` (name -> module) in the package ``namespace``."""
    package = namespace["__name__"]
    where: dict[str, str] = {}
    for module, names in table.items():
        for name in names.split():
            if name in where:
                raise ValueError(f"{package} exports {name!r} twice")
            where[name] = module

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        if module == ".":
            value = importlib.import_module("." + name, package)
        else:
            value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | where.keys())

    namespace.update(__getattr__=__getattr__, __dir__=__dir__,
                     __exports__=where,
                     __all__=[*namespace.get("__all__", ()), *where])
