"""The two execution engines and how a name picks one.

* :func:`resolve` maps an explicit ``--engine`` argument or the ambient
  ``$REPRO_ENGINE`` variable onto an engine name (default ``"fast"``),
  raising :class:`ValueError` for unknown names;
* :func:`build_cpu` builds the CPU-like executor of one trace.

========== ============================================= ==========
name       execution model                               fallback
========== ============================================= ==========
fast       schedule replay, one trace per call           reference
reference  cycle-accurate five-stage pipeline            —
========== ============================================= ==========

The fast engine may raise :class:`~repro.machine.fastpath.ScheduleFallback`
to decline a run; the harness runner then re-runs it on ``reference``.
Attribution runs need the per-cycle tracker hooks, which only the
reference engine drives; the harness runner pins those runs to
``reference`` whichever engine was requested.  Backends import lazily,
so importing this module never drags in NumPy-heavy engine code.
"""

from __future__ import annotations

import os
from typing import Optional

#: Engine names accepted by ``--engine`` / ``$REPRO_ENGINE``.
ENGINES: tuple[str, ...] = ("fast", "reference")


def resolve(engine: Optional[str] = None) -> str:
    """Effective engine name: explicit argument, else ``$REPRO_ENGINE``,
    else ``"fast"``.  Unknown names raise :class:`ValueError`."""
    if engine:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r} "
                             f"(expected one of {ENGINES})")
        return engine
    configured = os.environ.get("REPRO_ENGINE", "").strip().lower()
    if configured:
        if configured not in ENGINES:
            raise ValueError(f"unknown REPRO_ENGINE={configured!r} "
                             f"(expected one of {ENGINES})")
        return configured
    return "fast"


def build_cpu(engine: str, program, tracker, *, operand_isolation: bool,
              collect_mix: bool, max_cycles: int):
    """A CPU-like executor (``write_symbol_words`` / ``run`` /
    ``pipeline`` surface) for one trace on ``engine``."""
    if engine == "fast":
        from . import fastpath

        bound = fastpath.bound_schedule_for(
            program, operand_isolation=operand_isolation,
            max_cycles=max_cycles)
        return fastpath.ReplayCPU(program, bound, tracker=tracker,
                                  operand_isolation=operand_isolation,
                                  collect_mix=collect_mix)
    from .cpu import CPU

    return CPU(program, tracker=tracker,
               operand_isolation=operand_isolation, collect_mix=collect_mix)
