"""Cold start: the ``repro`` modules an import or a first pooled job loads.

Package namespaces resolve their names on first access, so importing
one module loads that module's own imports, not every sibling its
package re-exports.  These gates count modules in fresh interpreters;
they time nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: The exact number of ``repro.*`` modules (the package included) each
#: entry point loads.  A new module-level import on one of these paths
#: changes the count: update it here if the import belongs there.
ENTRY_POINT_MODULES = {
    "repro.cli": 5,
    "repro.attacks.tvla": 16,
    "repro.obs.leakage": 12,
    "repro.service.executor": 27,
}

#: Module name prefixes none of those entry points may load: the
#: attacks, the experiment registry and sweeps, the HTML report, AES and
#: the HTTP client.  One of them on the path means an eager re-export.
FORBIDDEN = ("repro.attacks.cpa", "repro.attacks.dpa", "repro.attacks.spa",
             "repro.attacks.timing", "repro.attacks.second_order",
             "repro.harness.experiments", "repro.harness.sweeps",
             "repro.obs.report", "repro.aes", "repro.service.client")

_LOADED = """
import json, sys
import {module}
print(json.dumps(sorted(name for name in sys.modules
                        if name == "repro" or name.startswith("repro."))))
"""


def _fresh(code: str, *args: str, **env: str) -> str:
    """The last line a fresh interpreter running ``code`` prints."""
    completed = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True,
        text=True, check=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(SRC), **env))
    return completed.stdout.splitlines()[-1]


@pytest.mark.parametrize("module", sorted(ENTRY_POINT_MODULES))
def test_entry_point_loads_only_its_own_imports(module):
    loaded = json.loads(_fresh(_LOADED.format(module=module)))
    assert [name for name in loaded if name.startswith(FORBIDDEN)] == []
    assert len(loaded) == ENTRY_POINT_MODULES[module], loaded


#: Forks a warm pool generation while the parent has imported only the
#: pool and the engine, compiles a job after the fork, and runs it on a
#: worker through ``execute_job``, unpickling it there too; prints the
#: ``repro`` modules the worker imported meanwhile.
_FIRST_POOLED_JOB = """
import json, os, pickle, sys
from repro.harness import pool
from repro.harness.engine import CompileRequest, SimJob


def repro_modules():
    return {name for name in sys.modules
            if name == "repro" or name.startswith("repro.")}


def first_job_imports(payload):
    from repro.harness.engine import execute_job

    before = repro_modules()
    execute_job(pickle.loads(payload))
    return sorted(repro_modules() - before)


lease = pool.acquire_lease(1)
try:
    lease.submit(os.getpid).result()
    from repro.programs.des_source import DesProgramSpec

    request = CompileRequest(spec=DesProgramSpec(rounds=1, include_ip=False,
                                                 include_fp=False))
    program = request if sys.argv[1] == "request" else request.compile()
    job = SimJob(program=program,
                 des_pair=(0x133457799BBCDFF1, 0x0123456789ABCDEF))
    print(json.dumps(lease.submit(first_job_imports,
                                  pickle.dumps(job)).result()))
finally:
    lease.release()
    pool.shutdown_shared_pool()
"""


@pytest.mark.parametrize("program", ["request", "prebuilt"])
def test_warm_worker_first_job_imports_nothing(program, tmp_path):
    """The pool's initializer imports the whole job path, so a warm
    worker's first job, compile included, loads no ``repro`` module."""
    imported = json.loads(_fresh(_FIRST_POOLED_JOB, program,
                                 REPRO_COMPILE_CACHE_DIR=str(tmp_path)))
    assert imported == []
