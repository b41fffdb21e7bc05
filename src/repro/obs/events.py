"""The one instant-event record and its one JSONL writer.

Every telemetry line the package writes is an *instant event*::

    {"schema": "repro.obs.events/v1", "ts": <wall clock>, "event": <name>,
     **fields}

Three sinks write it, all through :class:`EventLog`:

* the daemon's event log (``repro serve --event-log``) — every request
  lifecycle transition, carrying the request and trace IDs, so an
  operator can reconstruct any request's timeline after the daemon is
  gone; size-rotated;
* the daemon's restart journal (``repro serve --journal``) — only the
  accounting events (:mod:`repro.service.journal`); never rotated;
* campaign progress (``--progress``, ``$REPRO_PROGRESS``) —
  ``heartbeat``/``finished`` records to stderr or a file
  (:mod:`repro.obs.progress`).

File lines are flushed and fsync'd before the write returns, so a crash
loses at most the line being written.  A rotating log renames the active
file to ``<path>.1`` (replacing any previous rotation) when appending a
line would push it past ``max_bytes`` — a bounded two-file window, not
an unbounded archive.  :func:`replay_events` reads the rotated file
first so replay order matches write order, and tolerates a truncated
final line (the torn write a crash can leave behind).
:func:`timeline_from_events` rebuilds one request's timeline with the
same projection the live ``/v1/requests/<id>/trace`` timeline uses
(:func:`timeline_entry`; a live record keeps it as a
:func:`compact_entry` tuple and renders it on read).

Span trees and manifests are not instant events: they are trees of
durations and keep their own formats (:mod:`repro.obs.spans`,
:mod:`repro.obs.manifest`).
"""

from __future__ import annotations

import json
import logging
import os
import sys
import threading
import time
from pathlib import Path
from typing import Optional, Union

logger = logging.getLogger("repro.obs.events")

SCHEMA = "repro.obs.events/v1"

#: Default rotation threshold (bytes) for ``--event-log``.
DEFAULT_MAX_BYTES = 4 * 1024 * 1024

#: Targets that stream to stderr instead of a file.
STDERR_TARGETS = ("-", "stderr")

#: Fields a timeline entry drops: the timeline already belongs to one
#: request, so its identity is not repeated per entry.
TRANSPORT_FIELDS = ("schema", "id", "trace_id")


def make_record(event: str, **fields) -> dict:
    """One instant-event record stamped with the schema and wall time."""
    record = {"schema": SCHEMA, "ts": round(time.time(), 6),
              "event": str(event)}
    record.update(fields)
    return record


def timeline_entry(record: dict, t_s: float) -> dict:
    """Project an event record onto a request timeline entry: the
    record minus :data:`TRANSPORT_FIELDS`, plus ``t_s`` seconds since
    the request's first event."""
    return render_entry(compact_entry(record, t_s))


def compact_entry(record: dict, t_s: float) -> tuple:
    """:func:`timeline_entry` as the flat tuple a live request record
    keeps, ``(t_s, key, value, key, value, ...)``: about half the bytes
    of the dict, which :func:`render_entry` rebuilds on read."""
    entry = [round(max(t_s, 0.0), 6)]
    for key, value in record.items():
        if key not in TRANSPORT_FIELDS:
            entry += (key, value)
    return tuple(entry)


def render_entry(entry: tuple) -> dict:
    """The timeline entry dict of a :func:`compact_entry` tuple."""
    document = dict(zip(entry[1::2], entry[2::2]))
    document["t_s"] = entry[0]
    return document


class EventLog:
    """Append-only JSONL sink for event records.

    ``target`` is a file path (opened lazily in append mode, so parallel
    writers interleave whole lines rather than truncating each other) or
    ``"-"``/``"stderr"`` (flushed, never fsync'd, never closed).
    ``max_bytes=None`` never rotates.

    Thread-safe: the daemon's admission path and every executor thread
    write through one shared instance.  Telemetry must never kill the
    work it narrates, so there is one failure rule: the first failed
    write (unopenable path, disk full, ``tail`` killed → EPIPE, stream
    closed underneath) logs one warning and disables the sink; that
    record and every later one are counted in :attr:`dropped`.
    """

    def __init__(self, target: Union[str, Path],
                 max_bytes: Optional[int] = DEFAULT_MAX_BYTES):
        self.target = str(target)
        self.path: Optional[Path] = None \
            if self.target in STDERR_TARGETS else Path(target)
        self.max_bytes = None if max_bytes is None \
            else max(int(max_bytes), 4096)
        self.events_written = 0
        self.rotations = 0
        #: Set by the first failed write (or :meth:`close`); records
        #: written after that are dropped.
        self.disabled = False
        #: Records discarded because the sink was disabled.
        self.dropped = 0
        self._lock = threading.Lock()
        self._stream = None
        self._size = 0

    @property
    def rotated_path(self) -> Path:
        return self.path.with_name(self.path.name + ".1")

    def emit(self, event: str, **fields) -> None:
        """Build one record (:func:`make_record`) and write it."""
        self.write(make_record(event, **fields))

    def write(self, record: dict) -> None:
        """Append one already-built record as a JSON line."""
        line = json.dumps(record, sort_keys=True, default=repr) + "\n"
        with self._lock:
            if self.disabled:
                self.dropped += 1
                return
            try:
                if self.path is None:
                    sys.stderr.write(line)
                    sys.stderr.flush()
                else:
                    self._append_locked(line.encode("utf-8"))
            except (OSError, ValueError) as error:
                # ValueError covers writes to a stream something else
                # closed.
                self._fail_locked(error)
            else:
                self.events_written += 1

    def _append_locked(self, data: bytes) -> None:
        if self._stream is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(self.path, "ab")
            self._size = self._stream.tell()
        if self.max_bytes is not None and self._size \
                and self._size + len(data) > self.max_bytes:
            self._rotate_locked()
        self._stream.write(data)
        self._stream.flush()
        os.fsync(self._stream.fileno())
        self._size += len(data)

    def _rotate_locked(self) -> None:
        self._stream.close()
        os.replace(self.path, self.rotated_path)
        self._stream = open(self.path, "ab")
        self._size = 0
        self.rotations += 1

    def _fail_locked(self, error: Exception) -> None:
        self.disabled = True
        self.dropped += 1
        logger.warning("event sink %s: write failed (%s); disabled for "
                       "the rest of the run", self.target, error)
        self._close_locked()
        # Imported lazily: this module is imported while the obs
        # package is still initializing.
        from repro import obs

        if obs.enabled():
            obs.counter("event_sink_errors",
                        "event sinks disabled after a write error").inc()

    def _close_locked(self) -> None:
        if self._stream is not None:
            try:
                self._stream.close()
            except OSError:
                pass  # a dead disk may refuse even the close flush
            self._stream = None

    def close(self) -> None:
        """Close the file (never stderr); later records are dropped."""
        with self._lock:
            self.disabled = True
            self._close_locked()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_events(path: Union[str, Path]) -> tuple[list[dict], int]:
    """The records of one file, and how many non-blank lines were not
    records of this schema (a torn tail, corruption, a foreign
    format).  A missing file reads as no records."""
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return [], 0
    events: list[dict] = []
    rejected = 0
    for line in raw.split(b"\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            record = None
        if isinstance(record, dict) and record.get("schema") == SCHEMA:
            events.append(record)
        else:
            rejected += 1
    return events, rejected


def replay_events(path: Union[str, Path],
                  include_rotated: bool = True) -> list[dict]:
    """All surviving events in write order (rotated file first)."""
    path = Path(path)
    events: list[dict] = []
    if include_rotated:
        events.extend(read_events(path.with_name(path.name + ".1"))[0])
    events.extend(read_events(path)[0])
    return events


def timeline_from_events(events: list[dict],
                         request_id: str) -> list[dict]:
    """Rebuild one request's lifecycle timeline from replayed events.

    Each entry is :func:`timeline_entry` of the request's record, so it
    equals the live timeline entry field for field except ``t_s``:
    that is wall-clock offset from the first event here, a monotonic
    offset from submission in the live record.
    """
    timeline: list[dict] = []
    origin: Optional[float] = None
    for record in events:
        if record.get("id") != request_id:
            continue
        ts = float(record.get("ts", 0.0))
        if origin is None:
            origin = ts
        timeline.append(timeline_entry(record, ts - origin))
    return timeline
