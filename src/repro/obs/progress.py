"""Live progress telemetry for long-running campaigns.

A million-trace TVLA run is silent for hours with only post-hoc
manifests to show for it.  This module adds the mid-flight view:

* :class:`ProgressReporter` — rate-limited heartbeats carrying jobs
  done/failed/retried, traces/sec, ETA and arbitrary statistic
  watermarks (e.g. the current max |t|), written as
  :mod:`repro.obs.events` records (``heartbeat``, ``finished``) to an
  opt-in :class:`~repro.obs.events.EventLog` (stderr or an append-only
  file) and published to the metrics registry when observability is
  enabled;
* a module-level *current reporter* stack so the resilience layer can
  report failures/retries without threading a reporter through every
  call signature (mirrors the obs context stack).

Everything here is off by default: with ``REPRO_PROGRESS`` unset and no
reporter constructed, the engine's behavior — and the energy traces —
are bit-identical to a build without this module.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Callable, Optional

from .events import EventLog, make_record

#: Opt-in env var: ``-`` or ``stderr`` streams heartbeats to stderr, any
#: other value is treated as a path opened in append mode.
PROGRESS_ENV = "REPRO_PROGRESS"
#: Minimum seconds between heartbeats (float); default 1.0.
INTERVAL_ENV = "REPRO_PROGRESS_INTERVAL"

DEFAULT_INTERVAL_S = 1.0


class ProgressReporter:
    """Heartbeat emitter for a batch of ``total`` jobs.

    ``job_done(done, total)`` matches the engine's progress-callback
    signature, so a reporter can be passed anywhere a plain callback is
    accepted.  Heartbeats are rate-limited to one per ``interval_s``
    except for the forced initial/final beats and ``heartbeat(force=True)``
    at stream checkpoints.
    """

    def __init__(self, total: int, label: str = "batch",
                 sink: Optional[EventLog] = None,
                 interval_s: float = DEFAULT_INTERVAL_S,
                 clock: Callable[[], float] = time.monotonic):
        self.total = int(total)
        self.label = label
        self.sink = sink
        self.interval_s = float(interval_s)
        self._clock = clock
        self._start = clock()
        self._last_emit: Optional[float] = None
        self.done = 0
        self.failed = 0
        self.retried = 0
        self.watermarks: dict[str, float] = {}
        self.heartbeats = 0
        self._finished = False

    # -- engine-facing hooks -------------------------------------------
    def job_done(self, done: int, total: Optional[int] = None) -> None:
        """Progress callback: ``done`` jobs out of ``total`` completed."""
        self.done = int(done)
        if total is not None:
            self.total = int(total)
        self.heartbeat()

    def note_failure(self) -> None:
        self.failed += 1
        self.heartbeat()

    def note_retry(self) -> None:
        self.retried += 1

    def set_watermark(self, name: str, value: float) -> None:
        self.watermarks[name] = float(value)

    # -- emission ------------------------------------------------------
    def _record(self, event: str) -> dict:
        elapsed = max(self._clock() - self._start, 0.0)
        rate = self.done / elapsed if elapsed > 0 else 0.0
        remaining = max(self.total - self.done, 0)
        eta = remaining / rate if rate > 0 else None
        fields = {
            "label": self.label,
            "done": self.done,
            "failed": self.failed,
            "retried": self.retried,
            "total": self.total,
            "elapsed_s": round(elapsed, 6),
            "rate_per_s": round(rate, 3),
            "eta_s": round(eta, 3) if eta is not None else None,
        }
        for name, value in sorted(self.watermarks.items()):
            fields[name] = value if abs(value) != float("inf") \
                else repr(value)
        return make_record(event, **fields)

    def heartbeat(self, force: bool = False) -> Optional[dict]:
        """Emit a heartbeat if the interval elapsed (or ``force``)."""
        now = self._clock()
        if not force and self._last_emit is not None \
                and now - self._last_emit < self.interval_s:
            return None
        self._last_emit = now
        self.heartbeats += 1
        record = self._record("heartbeat")
        if self.sink is not None:
            self.sink.write(record)
        # Imported lazily: this module is re-exported by the package
        # __init__, which is still initializing at our import time.
        from repro import obs

        if obs.enabled():
            obs.counter("progress_heartbeats",
                        "progress heartbeats emitted, by batch label") \
                .inc(label=self.label)
        return record

    def finish(self) -> dict:
        """Emit the terminal record (always, regardless of interval)."""
        if self._finished:
            return self._record("finished")
        self._finished = True
        self.heartbeats += 1
        record = self._record("finished")
        if self.sink is not None:
            self.sink.write(record)
            self.sink.close()
        return record


# -- current-reporter stack ------------------------------------------------
# The resilience layer sits several frames below whoever owns the
# reporter; a context-scoped stack lets it report failures/retries
# without changing every signature in between.

_reporter_stack: list[ProgressReporter] = []


def current() -> Optional[ProgressReporter]:
    """The innermost active reporter, or ``None``."""
    return _reporter_stack[-1] if _reporter_stack else None


@contextlib.contextmanager
def active(reporter: Optional[ProgressReporter]):
    """Make ``reporter`` the current reporter for the dynamic extent.

    ``None`` is accepted and is a no-op, so call sites can push
    unconditionally.
    """
    if reporter is None:
        yield None
        return
    _reporter_stack.append(reporter)
    try:
        yield reporter
    finally:
        _reporter_stack.pop()


def sink_from_env() -> Optional[EventLog]:
    """The heartbeat sink ``REPRO_PROGRESS`` names (never rotated)."""
    target = os.environ.get(PROGRESS_ENV, "").strip()
    if not target:
        return None
    return EventLog(target, max_bytes=None)


def interval_from_env() -> float:
    raw = os.environ.get(INTERVAL_ENV, "").strip()
    if not raw:
        return DEFAULT_INTERVAL_S
    try:
        return max(float(raw), 0.0)
    except ValueError:
        return DEFAULT_INTERVAL_S


def reporter_from_env(total: int, label: str = "batch") \
        -> Optional[ProgressReporter]:
    """Build a reporter from ``REPRO_PROGRESS`` — or ``None`` when the
    sink is not configured *or* a reporter is already active (a streaming
    campaign's outer reporter owns the batch; nested ``run_jobs`` chunks
    must not double-count)."""
    if current() is not None:
        return None
    sink = sink_from_env()
    if sink is None:
        return None
    return ProgressReporter(total, label=label, sink=sink,
                            interval_s=interval_from_env())
