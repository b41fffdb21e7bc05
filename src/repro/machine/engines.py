"""Pluggable execution-engine registry.

Engine selection used to be an if/else baked into the harness runner;
this registry makes the backends first-class so an engine plugs in
without touching every caller:

* :func:`resolve` maps an explicit ``--engine`` argument or the ambient
  ``$REPRO_ENGINE`` variable onto a registered engine name (default
  ``"fast"``), raising :class:`ValueError` for unknown names;
* :class:`EngineSpec` describes one backend: how to build a CPU-like
  executor for a single trace (``factory``) and which engine serves a
  run the backend declines (``fallback`` — walked transitively by the
  harness runner).  Batches run per job through
  :func:`~repro.harness.engine.run_jobs`, one trace per ``factory`` call.

Attribution and streaming runs need the per-cycle tracker hooks, which
only the reference engine drives; the harness runner pins those runs to
``reference`` whichever engine was requested.

The registered engines:

========== ============================================= ==========
name       execution model                               fallback
========== ============================================= ==========
fast       schedule replay, one trace per call           reference
reference  cycle-accurate five-stage pipeline            —
========== ============================================= ==========

Factories import their backend modules lazily, so importing this module
never drags in NumPy-heavy engine code.  :mod:`repro.machine` re-exports
:func:`resolve` under its historical ``resolve_engine`` name.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

#: Engine names accepted by ``--engine`` / ``$REPRO_ENGINE``.
ENGINES: tuple[str, ...] = ("fast", "reference")


@dataclass(frozen=True)
class EngineSpec:
    """One pluggable execution backend.

    ``factory(program, tracker, *, operand_isolation, collect_mix,
    max_cycles)`` returns a CPU-like object (``write_symbol_words`` /
    ``run`` / ``pipeline`` surface); it may raise
    :class:`~repro.machine.fastpath.ScheduleFallback` to decline the run,
    in which case the harness retries on ``fallback`` (transitively).
    """

    name: str
    factory: Callable[..., object]
    fallback: Optional[str] = None


_REGISTRY: dict[str, EngineSpec] = {}


def register(spec: EngineSpec) -> None:
    """Register (or replace) an engine backend under ``spec.name``."""
    _REGISTRY[spec.name] = spec


def get(name: str) -> EngineSpec:
    """The registered :class:`EngineSpec` for ``name``."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(f"unknown engine {name!r} "
                         f"(expected one of {names()})")
    return spec


def names() -> tuple[str, ...]:
    """Registered engine names, in registration order."""
    return tuple(_REGISTRY)


def resolve(engine: Optional[str] = None) -> str:
    """Effective engine name: explicit argument, else ``$REPRO_ENGINE``,
    else ``"fast"``.  Unknown names raise :class:`ValueError`."""
    if engine:
        if engine not in _REGISTRY:
            raise ValueError(f"unknown engine {engine!r} "
                             f"(expected one of {names()})")
        return engine
    configured = os.environ.get("REPRO_ENGINE", "").strip().lower()
    if configured:
        if configured not in _REGISTRY:
            raise ValueError(f"unknown REPRO_ENGINE={configured!r} "
                             f"(expected one of {names()})")
        return configured
    return "fast"


# ---------------------------------------------------------------------------
# Built-in backends (lazy imports: no engine code loads until first use)
# ---------------------------------------------------------------------------

def _fast_factory(program, tracker, *, operand_isolation: bool,
                  collect_mix: bool, max_cycles: int):
    from . import fastpath

    bound = fastpath.bound_schedule_for(program,
                                        operand_isolation=operand_isolation,
                                        max_cycles=max_cycles)
    return fastpath.ReplayCPU(program, bound, tracker=tracker,
                              operand_isolation=operand_isolation,
                              collect_mix=collect_mix)


def _reference_factory(program, tracker, *, operand_isolation: bool,
                       collect_mix: bool, max_cycles: int):
    from .cpu import CPU

    return CPU(program, tracker=tracker,
               operand_isolation=operand_isolation, collect_mix=collect_mix)


register(EngineSpec("fast", _fast_factory, fallback="reference"))
register(EngineSpec("reference", _reference_factory))
