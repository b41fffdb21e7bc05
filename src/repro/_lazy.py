"""Lazy package namespaces (PEP 562).

A package ``__init__`` names the module that defines each of its public
names; a name is imported from there on first access, not when the
package is.  Importing one module therefore loads that module's own
imports, not every sibling its package re-exports: ``import
repro.service.executor`` no longer pulls in the attacks, the HTML
report or the HTTP client.
"""

from __future__ import annotations

import importlib
import sys


def lazy_namespace(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for the package ``package``.

    ``exports`` maps each defining module, relative to ``package``
    (``".cpa"``, ``".attacks.spa"``), to the names it exports;
    ``"analyze as spa_analyze"`` exports ``analyze`` under another name.
    A resolved name is stored on the package, so only its first access
    goes through ``__getattr__``.  Any other name is looked up as a
    submodule (``repro.obs``, ``from repro.harness import pool``).

    A name that is also the name of its defining submodule
    (``programs.des_source`` the function, defined in
    ``programs/des_source.py``) is bound at once: importing that
    submodule later then finds it loaded and leaves the package
    attribute alone.  Bound lazily, the first ``import
    repro.programs.des_source`` would set the attribute to the module.
    """
    namespace = vars(sys.modules[package])
    table: dict[str, tuple[str, str]] = {}
    for module, names in exports.items():
        for entry in names:
            attr, _, alias = entry.partition(" as ")
            table[alias or attr] = (module, attr)

    def __getattr__(name: str):
        target = table.get(name)
        if target is None:
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}") \
                    from None
        module, attr = target
        value = getattr(importlib.import_module(module, package), attr)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *table})

    for name, (module, _) in table.items():
        if module == "." + name:
            __getattr__(name)
    return list(table), __getattr__, __dir__
