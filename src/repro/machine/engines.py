"""Pluggable execution-engine registry.

Engine selection used to be an if/else baked into the harness runner;
this registry makes the backends first-class so a new engine (like the
vectorized trace-batch engine) plugs in without touching every caller:

* :func:`resolve` maps an explicit ``--engine`` argument or the ambient
  ``$REPRO_ENGINE`` variable onto a registered engine name (default
  ``"fast"``), raising :class:`ValueError` for unknown names;
* :class:`EngineSpec` describes one backend: how to build a CPU-like
  executor for a single trace (``factory``), which engine serves a run the
  backend declines (``fallback`` — walked transitively by the harness
  runner), and an optional whole-batch entry point (``batch``) for engines
  that natively execute many traces at once.  A batch-only engine has no
  ``factory``: its single traces replay on its ``fallback`` engine.

Attribution and streaming runs need the per-cycle tracker hooks, which
only the reference engine drives; the harness runner pins those runs to
``reference`` whichever engine was requested.

The registered engines:

========== ============================================= ==========
name       execution model                               fallback
========== ============================================= ==========
fast       schedule replay, one trace per call           reference
reference  cycle-accurate five-stage pipeline            —
vector     schedule replay over a whole NumPy trace      fast
           batch (``[n_traces, ...]`` state arrays);
           batch-only — its single traces run on fast
========== ============================================= ==========

Factories import their backend modules lazily, so importing this module
never drags in NumPy-heavy engine code.  :mod:`repro.machine` re-exports
:func:`resolve` under its historical ``resolve_engine`` name.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

#: Engine names accepted by ``--engine`` / ``$REPRO_ENGINE``.
ENGINES: tuple[str, ...] = ("fast", "reference", "vector")
#: Engines that replay the program's recorded cycle schedule
#: (:mod:`repro.machine.fastpath`).
SCHEDULE_ENGINES: tuple[str, ...] = ("fast", "vector")


@dataclass(frozen=True)
class EngineSpec:
    """One pluggable execution backend.

    ``factory(program, tracker, *, operand_isolation, collect_mix,
    max_cycles)`` returns a CPU-like object (``write_symbol_words`` /
    ``run`` / ``pipeline`` surface); it may raise
    :class:`~repro.machine.fastpath.ScheduleFallback` to decline the run,
    in which case the harness retries on ``fallback`` (transitively).
    ``factory=None`` marks a batch-only engine: the runner serves each of
    its single traces on ``fallback`` from the first attempt, exactly as
    if that engine had been requested (see :func:`single_trace_engine`).

    ``batch(jobs, program, cache_hit)`` — optional — executes a
    homogeneous list of :class:`~repro.harness.engine.SimJob` natively
    and returns their :class:`~repro.harness.engine.JobResult` list, or
    ``None`` to decline (the harness then runs the jobs one by one).
    """

    name: str
    factory: Optional[Callable[..., object]]
    fallback: Optional[str] = None
    batch: Optional[Callable[..., Optional[list]]] = None


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


def single_trace_engine(name: str) -> str:
    """The engine that runs one trace requested on ``name``: ``name``
    itself, or for a batch-only engine its ``fallback``."""
    spec = get(name)
    return name if spec.factory is not None else spec.fallback


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


def _vector_batch(jobs: Sequence, program, cache_hit=None) -> Optional[list]:
    from . import vector

    return vector.run_job_batch(jobs, program, cache_hit=cache_hit)


register(EngineSpec("fast", _fast_factory, fallback="reference"))
register(EngineSpec("reference", _reference_factory))
register(EngineSpec("vector", factory=None, fallback="fast",
                    batch=_vector_batch))
