#!/usr/bin/env python
"""Modules and cold-start time of each entry point, in fresh interpreters.

For every entry point in ``ENTRY_POINTS`` it starts ``N`` fresh
interpreters that import it, and prints one JSON line: the number of
``repro.*`` modules loaded (the package included) and the median and
quartiles of the import time.  A last line times ``N`` daemon boots,
from spawning ``python -m repro serve`` to its ``listening`` line.

Bytecode caches change the figures about twofold; the probe measures
the interpreter as configured (``PYTHONDONTWRITEBYTECODE=1`` compiles
every import from source, ``PYTHONPYCACHEPREFIX`` moves the caches).

Usage: ``PYTHONPATH=src python tools/import_probe.py [N]`` (N = 7).
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Entry point name -> the modules it imports.  ``benchmark`` is the set
#: the end-to-end benchmark times as ``import_s``.
ENTRY_POINTS = {
    "repro": ("repro",),
    "repro.cli": ("repro.cli",),
    "repro.attacks.tvla": ("repro.attacks.tvla",),
    "repro.service.executor": ("repro.service.executor",),
    "repro.service.server": ("repro.service.server",),
    "benchmark": ("repro.attacks.tvla", "repro.harness.engine",
                  "repro.harness.pool", "repro.lang.compiler",
                  "repro.machine.engines", "repro.machine.fastpath",
                  "repro.obs.leakage", "repro.service.executor"),
}

_IMPORT = """
import sys, time
start = time.perf_counter()
import {modules}
elapsed = time.perf_counter() - start
print(elapsed, sum(name == "repro" or name.startswith("repro.")
                   for name in sys.modules))
"""


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_s": round(median, 4), "q1_s": round(q1, 4),
            "q3_s": round(q3, 4)}


def import_figures(modules: tuple[str, ...], repeats: int) -> dict:
    code = _IMPORT.format(modules=", ".join(modules))
    samples, counts = [], set()
    for _ in range(repeats):
        elapsed, count = subprocess.run(
            [sys.executable, "-c", code], env=_env(), capture_output=True,
            text=True, check=True).stdout.split()
        samples.append(float(elapsed))
        counts.add(int(count))
    if len(counts) != 1:
        raise RuntimeError(f"module count varies between runs: {counts}")
    return {"modules": counts.pop(), **_summary(samples)}


def boot_seconds() -> float:
    """Spawn to ``listening`` of one daemon, which is then drained."""
    start = time.perf_counter()
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        env=_env(), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    try:
        event = json.loads(daemon.stdout.readline())
        elapsed = time.perf_counter() - start
        if event.get("event") != "listening":
            raise RuntimeError(f"daemon announced {event}")
        return elapsed
    finally:
        daemon.send_signal(signal.SIGTERM)
        daemon.wait(timeout=60)


def main(argv: list[str]) -> int:
    repeats = int(argv[0]) if argv else 7
    for name, modules in ENTRY_POINTS.items():
        print(json.dumps({"entry_point": name, "repeats": repeats,
                          **import_figures(modules, repeats)}), flush=True)
    boots = [boot_seconds() for _ in range(repeats)]
    print(json.dumps({"entry_point": "serve (spawn to listening)",
                      "repeats": repeats, **_summary(boots)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
