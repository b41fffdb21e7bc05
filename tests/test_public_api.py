"""Public API hygiene: exports exist, are documented, and stay stable."""

import importlib
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

SUBPACKAGES = ["repro.isa", "repro.machine", "repro.energy", "repro.des",
               "repro.aes", "repro.lang", "repro.programs", "repro.masking",
               "repro.attacks", "repro.harness", "repro.obs", "repro.service"]

#: ``__all__`` names that are submodules.  Every other name must be an
#: object, and the very object its defining module holds.
SUBMODULE_EXPORTS = {("repro.programs", "markers")}


def export_mismatches(module_name: str) -> list[str]:
    """The ``__all__`` names of ``module_name`` that are missing or are
    not the object their defining module holds.

    A function or class is found in the module its ``__module__`` names;
    any other object in some ``repro`` module that binds it under the
    same name.  A name that resolves to a module, where the package
    exports a function or class of that name, is the clash of a
    submodule named like what it defines (``programs.des_source``).
    """
    module = importlib.import_module(module_name)
    problems = []
    for name in module.__all__:
        try:
            value = getattr(module, name)
        except AttributeError:
            problems.append(f"{module_name}.{name} missing")
            continue
        if (module_name, name) in SUBMODULE_EXPORTS:
            same = isinstance(value, types.ModuleType) \
                and value.__name__ == f"{module_name}.{name}"
        elif isinstance(value, types.ModuleType):
            same = False
        elif hasattr(value, "__module__") and hasattr(value, "__name__"):
            owner = sys.modules.get(value.__module__)
            same = getattr(owner, value.__name__, None) is value
        else:
            same = any(vars(owner).get(name) is value
                       for owner_name, owner in list(sys.modules.items())
                       if owner_name.startswith("repro.")
                       and not hasattr(owner, "__path__"))
        if not same:
            problems.append(f"{module_name}.{name} is {value!r:.80}")
    return problems


@pytest.mark.parametrize("module_name", ["repro"] + SUBPACKAGES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{module_name} has no __all__"
    assert export_mismatches(module_name) == []


#: Imports every ``repro`` module, leaves in sorted order after the
#: packages, then checks every package's exports.
_SUBMODULES_FIRST = """
import importlib, importlib.util, json, pkgutil, sys
import repro
names = sorted(info.name for info in
               pkgutil.walk_packages(repro.__path__, "repro."))
for name in names:
    if name != "repro.__main__":
        importlib.import_module(name)
spec = importlib.util.spec_from_file_location("public_api", sys.argv[1])
checks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(checks)
print(json.dumps([problem for package in ["repro", *checks.SUBPACKAGES]
                  for problem in checks.export_mismatches(package)]))
"""


def test_all_names_resolve_after_every_submodule_import():
    """Names resolve to the same objects whatever was imported first: a
    fresh interpreter that imports ``repro.programs.des_source`` before
    asking for ``repro.programs.des_source`` still gets the function."""
    src = Path(repro.__file__).resolve().parents[1]
    completed = subprocess.run(
        [sys.executable, "-c", _SUBMODULES_FIRST, __file__],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert json.loads(completed.stdout.splitlines()[-1]) == []


@pytest.mark.parametrize("module_name", ["repro"] + SUBPACKAGES)
def test_all_sorted_and_unique(module_name):
    module = importlib.import_module(module_name)
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), f"{module_name}: duplicates"


@pytest.mark.parametrize("module_name", ["repro"] + SUBPACKAGES)
def test_public_callables_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not inspect.getdoc(obj):
                undocumented.append(name)
    assert not undocumented, \
        f"{module_name}: missing docstrings on {undocumented}"


def test_module_docstrings():
    for module_name in ["repro"] + SUBPACKAGES:
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"


def test_version_string():
    assert repro.__version__
    parts = repro.__version__.split(".")
    assert len(parts) >= 2
    assert all(part.isdigit() for part in parts)


def test_quickstart_docstring_is_accurate():
    """The package docstring's quickstart snippet must actually run."""
    from repro import KEY_A, PT_A, ROUND1_DES, compile_des, des_run

    compiled = compile_des(ROUND1_DES, masking="selective")
    run = des_run(compiled.program, KEY_A, PT_A)
    assert run.total_uj > 0
    assert run.cycles > 0
