"""Durable request journal: what a killed daemon can still account for.

The journal is an :class:`~repro.obs.events.EventLog` that never
rotates and receives only the accounting events — ``session_start``
(with the ``recovered_interrupted`` IDs), ``received`` and ``terminal``
per request, ``session_end`` — each line flushed and fsync'd, so after
a SIGKILL the journal tail is at worst a truncated final line, never
silent loss.  On restart the daemon replays the journal into a
:class:`RecoveryReport`: requests with both lines are *accounted*,
requests with only ``received`` were *interrupted* by the kill — the
daemon reports them (``/v1/recovery``) instead of pretending they never
happened.

Lines are :mod:`repro.obs.events` records (no pickle: the journal is a
forensic artifact an operator reads with ``jq``).  A line of any other
schema is preserved but not replayed, only counted as malformed —
recovery is best-effort forensics, never a correctness dependency of
new requests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from ..obs.events import EventLog, read_events
from .protocol import TERMINAL_STATES

#: Schema tag of the ``/v1/recovery`` document.
REPORT_SCHEMA = "repro.service.journal/v1"

#: Per-request events the journal receives (two lines per request).
ACCOUNTING_EVENTS = ("received", "terminal")


@dataclass
class RecoveryReport:
    """What a replayed journal says about the previous daemon's life."""

    path: str = ""
    #: Requests that reached a terminal state, by state name.
    completed: dict[str, int] = field(default_factory=dict)
    #: Requests submitted but never finished (killed mid-flight/queued).
    interrupted: list[str] = field(default_factory=list)
    #: Journal lines that failed to parse (truncated tail, corruption,
    #: another schema).
    malformed_lines: int = 0
    sessions: int = 0

    @property
    def total_submitted(self) -> int:
        return sum(self.completed.values()) + len(self.interrupted)

    def to_dict(self) -> dict:
        return {"schema": REPORT_SCHEMA, "path": self.path,
                "completed": dict(sorted(self.completed.items())),
                "interrupted": list(self.interrupted),
                "malformed_lines": self.malformed_lines,
                "sessions": self.sessions,
                "total_submitted": self.total_submitted}


def open_journal(path: Union[str, Path]) \
        -> tuple[EventLog, RecoveryReport]:
    """Replay the journal at ``path``, then reopen it for a new session
    whose ``session_start`` line records what the replay recovered."""
    recovery = replay(path)
    journal = EventLog(path, max_bytes=None)
    journal.emit("session_start", pid=os.getpid(),
                 recovered_interrupted=list(recovery.interrupted))
    return journal, recovery


def replay(path: Union[str, Path]) -> RecoveryReport:
    """Fold an existing journal into a :class:`RecoveryReport`.

    Tolerates a truncated or corrupt tail (the SIGKILL case) by counting
    malformed lines instead of raising; unknown events are skipped, so
    old daemons' journals never wedge a new one.
    """
    report = RecoveryReport(path=str(path))
    events, report.malformed_lines = read_events(path)
    received: dict[str, None] = {}
    for record in events:
        event = record.get("event")
        if event == "session_start":
            report.sessions += 1
        elif event == "received" and isinstance(record.get("id"), str):
            received.setdefault(record["id"], None)
        elif event == "terminal" and isinstance(record.get("id"), str):
            state = record.get("state")
            if state in TERMINAL_STATES:
                received.pop(record["id"], None)
                report.completed[state] = \
                    report.completed.get(state, 0) + 1
            else:
                report.malformed_lines += 1
    report.interrupted = list(received)
    return report
