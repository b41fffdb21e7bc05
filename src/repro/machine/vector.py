"""Placeholder for the deleted vector trace-batch engine.

The engine itself is gone: every batch now runs per job on the ``fast``
schedule replay (with its ``reference`` fallback).  This module stays
only because the frozen end-to-end benchmark harness
(``benchmarks/e2e/library.py``) still runs ``from repro.machine import
fastpath, vector`` and calls :func:`_clear_caches`.  The next change to
that benchmark deletes this module, together with its
``machine.plan_compile`` span and its ``engine_runs.vector`` metric.
"""


def _clear_caches() -> None:
    """No-op: there are no vector plans left to forget."""
