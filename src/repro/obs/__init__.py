"""repro.obs — structured observability for the simulator stack.

Three pieces, all zero-dependency:

* a **metrics registry** (:mod:`repro.obs.registry`): labeled counters,
  gauges, and histograms — ``instructions_executed{opcode=xor,
  secure=true}``, ``energy_component_pj{component=dbus}``,
  ``compile_cache_lookups{result=hit}``;
* **span tracing** (:mod:`repro.obs.spans`): nested context-manager
  spans with wall and CPU time — ``experiment > job > compile >
  execute``;
* **run manifests** (:mod:`repro.obs.manifest`): one JSON document per
  run capturing package version, toolchain fingerprint, configuration,
  metric snapshot, and span tree, written atomically next to results.

The sink is **off by default**: every instrumentation site in the hot
layers is gated on :func:`enabled`, so an un-observed run executes the
exact seed code path (energy output bit-identical, overhead limited to
one predicate per run — never per cycle).  Enable it programmatically
(:func:`enable`), per scope (:func:`scope`), or from the environment
(``REPRO_OBS=1``).  :func:`enable` also exports ``REPRO_OBS=1`` so pool
workers observe themselves under either fork or spawn start methods; a
worker's registry snapshot and span tree ride home on its
:class:`~repro.harness.engine.JobResult` and merge deterministically in
submission order.

Typical use::

    from repro import obs

    obs.enable()
    with obs.span("experiment", id="tab1"):
        result = run_experiment("tab1")
    manifest = obs.build_manifest(experiment_id="tab1", config={...})
    obs.write_manifest(manifest, "tab1.manifest.json")
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Iterator

from .._lazy import lazy_namespace
# ObsContext below needs these three modules, so their names are bound
# now; the rest resolve on first access.
from .attribution import AttributionSink
from .registry import (CardinalityError, Counter, Gauge, Histogram,
                       MetricsRegistry, bucket_quantile, snapshot_totals)
from .spans import SpanRecord, Tracer, render_tree

_lazy_names, __getattr__, __dir__ = lazy_namespace(__name__, {
    ".events": ("EventLog",),
    ".flamegraph": ("aggregate_spans", "flamegraph_html", "svg_flamegraph"),
    ".manifest": ("aggregate_manifests", "build_manifest", "diff_totals",
                  "load_manifest", "summarize_manifest", "write_manifest"),
    ".progress": ("ProgressReporter", "reporter_from_env", "sink_from_env"),
    ".streaming": ("DisclosureCurve", "WelchTAccumulator",
                   "WelfordAccumulator"),
})

__all__ = [
    "AttributionSink", "CardinalityError", "Counter", "Gauge", "Histogram",
    "MetricsRegistry", "ObsContext", "SpanRecord", "Tracer", "attribution",
    "attribution_enabled", "bucket_quantile", "disable",
    "disable_attribution", "enable", "enable_attribution", "enabled",
    "registry", "render_tree", "scope", "snapshot_totals", "span", "tracer",
    *_lazy_names,
]


class ObsContext:
    """One observability scope: a registry, a tracer, and an attribution
    accumulator.

    The engine pushes a fresh context around each job so per-job metrics,
    spans, and attribution cells serialize independently of whatever else
    the process has recorded.  The attribution accumulator is a plain
    :class:`~repro.obs.attribution.AttributionSink`; per-run sinks merge
    into it (sums are associative, so any merge order that respects
    submission order is deterministic).
    """

    def __init__(self):
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.attribution = AttributionSink()


#: The process-wide root context: what every thread reads when it has no
#: scope of its own open.  Scopes themselves are **thread-local** (see
#: :class:`_ThreadState`), so concurrent scopes — the service daemon's
#: executor threads each tracing their own request — never interleave.
_root_context = ObsContext()


class _ThreadState(threading.local):
    """Per-thread observability state: the scope stack plus forced-enable
    counters.  ``threading.local`` runs ``__init__`` once per thread, so
    every thread starts with an empty stack over the shared root."""

    def __init__(self):
        self.stack: list[ObsContext] = []
        self.forced = 0
        self.forced_attribution = 0


_thread_state = _ThreadState()

_ENV_FLAG = "REPRO_OBS"


def _env_enabled() -> bool:
    return os.environ.get(_ENV_FLAG, "").strip().lower() \
        not in ("", "0", "false", "off")


_enabled = _env_enabled()


def enabled() -> bool:
    """Is the observability sink collecting?  (Default: off.)

    True when the sink is enabled process-wide (:func:`enable`,
    ``REPRO_OBS=1``) **or** the current thread is inside a forced scope
    (``scope(force=True)``) — the request-scoped tracing the service
    uses without toggling the global sink for unrelated threads.
    """
    return _enabled or _thread_state.forced > 0


def enable() -> None:
    """Turn the sink on, for this process and any future workers."""
    global _enabled
    _enabled = True
    os.environ[_ENV_FLAG] = "1"


def disable() -> None:
    """Turn the sink off (the default no-op state)."""
    global _enabled
    _enabled = False
    os.environ[_ENV_FLAG] = "0"


_ATTR_ENV_FLAG = "REPRO_ATTRIBUTION"


def _attr_env_enabled() -> bool:
    return os.environ.get(_ATTR_ENV_FLAG, "").strip().lower() \
        not in ("", "0", "false", "off")


_attribution_enabled = _attr_env_enabled()


def attribution_enabled() -> bool:
    """Is per-PC energy attribution collecting?  (Default: off.)

    Like :func:`enabled`, honors both the process-wide flag and the
    current thread's forced scopes (``scope(attribution=True)``).
    """
    return _attribution_enabled or _thread_state.forced_attribution > 0


def enable_attribution() -> None:
    """Turn attribution on, for this process and any future workers.

    Attribution rides on the observability sink (per-run sinks merge into
    the current context and ship home on ``JobResult``), so enabling it
    also enables the sink.
    """
    global _attribution_enabled
    _attribution_enabled = True
    os.environ[_ATTR_ENV_FLAG] = "1"
    enable()


def disable_attribution() -> None:
    """Turn attribution off (the default state)."""
    global _attribution_enabled
    _attribution_enabled = False
    os.environ[_ATTR_ENV_FLAG] = "0"


def attribution() -> AttributionSink:
    """The current context's attribution accumulator."""
    return context().attribution


def context() -> ObsContext:
    """The current observability context (this thread's innermost scope,
    else the shared process-wide root)."""
    stack = _thread_state.stack
    return stack[-1] if stack else _root_context


def registry() -> MetricsRegistry:
    """The current metrics registry."""
    return context().registry


def tracer() -> Tracer:
    """The current span tracer."""
    return context().tracer


@contextmanager
def scope(force: bool = False,
          attribution: bool = False) -> Iterator[ObsContext]:
    """Push a fresh registry+tracer; metrics recorded inside stay local.

    Used by the engine to isolate per-job observability (serial and
    worker paths alike) and by tests to keep the module-level context
    clean.  Scopes are per-thread: a scope opened on one thread is
    invisible to every other thread, so concurrent scoped work (the
    service daemon's executor threads) cannot interleave span trees.

    ``force=True`` additionally makes :func:`enabled` answer True *for
    this thread* while the scope is open — request-scoped tracing
    without flipping the process-wide sink (no ``REPRO_OBS`` export, so
    sibling threads and their pool dispatch decisions are untouched).
    ``attribution=True`` does the same for :func:`attribution_enabled`
    (and implies ``force``).
    """
    fresh = ObsContext()
    state = _thread_state
    state.stack.append(fresh)
    forced = force or attribution
    if forced:
        state.forced += 1
    if attribution:
        state.forced_attribution += 1
    try:
        yield fresh
    finally:
        state.stack.pop()
        if forced:
            state.forced -= 1
        if attribution:
            state.forced_attribution -= 1


class _NullSpan:
    """Reusable no-op context manager for disabled-sink span sites."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, **attributes):
    """Open a span in the current tracer; a shared no-op when disabled."""
    if not _enabled and not _thread_state.forced:
        return _NULL_SPAN
    return context().tracer.span(name, **attributes)


def counter(name: str, help: str = "") -> Counter:
    """Shorthand for ``registry().counter(...)``."""
    return context().registry.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    """Shorthand for ``registry().gauge(...)``."""
    return context().registry.gauge(name, help)


def histogram(name: str, help: str = "", **kwargs) -> Histogram:
    """Shorthand for ``registry().histogram(...)``."""
    return context().registry.histogram(name, help, **kwargs)


def reset() -> None:
    """Clear the current context's metrics and spans (tests, REPL)."""
    current = context()
    current.registry.reset()
    current.tracer.reset()
    current.attribution.reset()
