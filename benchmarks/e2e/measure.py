"""Spans, self times and the per-run record of the end-to-end benchmark.

A traced run records one span per call into a layer, from the
benchmark's own code: ``{id, name, start, end, parent, run_id,
workload}``.  Spans live in memory and are written to ``spans.json``
when the run ends.  Work the benchmark cannot wrap directly -- replay
inside pool workers, and the daemon-side spans of a served request --
is *placed*: a child of known duration is laid into the part of its
parent that no other child covers yet (``synthetic: true``).  Time that
does not fit is dropped and summed in ``unplaced_s``, so what placing
loses shows instead of disappearing.

A span's self time is its duration minus the part of it its children
cover, so over a run the self times of all spans add up exactly to the
summed duration of the root spans (the traced wall).  The roots are the
benchmark's own ``setup`` and ``op`` spans; their self time is the
residual no layer accounts for.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from contextlib import contextmanager
from typing import Optional


class SpanRecorder:
    """In-memory span store; one open-span stack per thread."""

    def __init__(self, run_id: str, workload: str):
        self.run_id = run_id
        self.workload = workload
        self.origin = time.perf_counter()
        self.spans: dict[int, dict] = {}
        #: Placed time that found no room in its parent (see :meth:`place`).
        self.unplaced_s = 0.0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new(self, name: str, start: float, parent: Optional[int],
             attributes: dict) -> dict:
        record = {"id": next(self._ids), "name": name, "start": start,
                  "end": start, "parent": parent, "run_id": self.run_id,
                  "workload": self.workload}
        if attributes:
            record["attributes"] = attributes
        with self._lock:
            self.spans[record["id"]] = record
        return record

    @contextmanager
    def span(self, name: str, **attributes):
        """Time the enclosed call; yields the span id."""
        stack = self._stack()
        record = self._new(name, time.perf_counter() - self.origin,
                           stack[-1] if stack else None, attributes)
        stack.append(record["id"])
        try:
            yield record["id"]
        finally:
            stack.pop()
            record["end"] = time.perf_counter() - self.origin

    def place(self, parent: int, name: str, duration: float,
              after: Optional[float] = None, **attributes) -> int:
        """Lay ``duration`` seconds of ``name`` into ``parent``.

        Starting at ``after`` (default: the parent's start), the time
        fills the parent's gaps -- instants no sibling covers -- in
        order, one span per gap used, and whatever does not fit is
        dropped and added to ``unplaced_s``, so placing never
        double-counts.  Returns the id of the first span laid (a
        zero-length one when no room is left).
        """
        with self._lock:
            host = self.spans[parent]
            siblings = sorted((span["start"], span["end"])
                              for span in self.spans.values()
                              if span["parent"] == parent)
        cursor = host["start"] if after is None \
            else max(after, host["start"])
        gaps, edge = [], host["start"]
        for low, high in siblings + [(host["end"], host["end"])]:
            if low > edge:
                gaps.append((edge, low))
            edge = max(edge, high)
        attributes = dict(attributes, synthetic=True)
        first, remaining = None, max(duration, 0.0)
        for low, high in gaps:
            start = max(low, cursor)
            length = min(remaining, high - start)
            if length <= 0:
                continue
            record = self._new(name, start, parent, attributes)
            record["end"] = start + length
            first = first or record["id"]
            remaining -= length
            if remaining <= 0:
                break
        with self._lock:
            self.unplaced_s += max(remaining, 0.0)
        if first is None:
            first = self._new(name, min(cursor, host["end"]), parent,
                              attributes)["id"]
        return first

    def end_of(self, span_id: int) -> float:
        return self.spans[span_id]["end"]

    def records(self) -> list[dict]:
        with self._lock:
            return sorted(self.spans.values(), key=lambda span: span["id"])


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, cursor = 0.0, start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    return {span["id"]: (span["end"] - span["start"])
            - _covered(span["start"], span["end"],
                       children.get(span["id"], ()))
            for span in spans}


def breakdown(spans: list[dict]) -> dict:
    """Self time per span name, the traced wall and the residual."""
    own = self_times(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    wall = residual = 0.0
    for span in spans:
        if span["parent"] is None:
            wall += span["end"] - span["start"]
            residual += own[span["id"]]
            continue
        by_name[span["name"]] = by_name.get(span["name"], 0.0) \
            + own[span["id"]]
        calls[span["name"]] = calls.get(span["name"], 0) + 1
    return {"self_s": by_name, "calls": calls, "traced_wall_s": wall,
            "residual_s": residual}


class Run:
    """What one workload run measured and checked.

    ``ops`` holds one dict per measured operation (a campaign, a sweep
    variant, a request): ``latency_s``, ``traces``, ``ok``, and in a
    traced run ``traced``/``pair`` so each traced operation can be
    compared with its untraced twin.  ``counts`` collects the per-layer
    counters a workload can read from outside.
    """

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool, smoke: bool, run_dir, run_id: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.smoke = smoke
        self.run_dir = run_dir
        self.spans = SpanRecorder(run_id, workload) if traced else None
        self.import_s = 0.0
        self.setups: list[float] = []
        self.ops: list[dict] = []
        self.window_s = 0.0
        #: Serving: wall of the lockstep steps no request was traced in.
        self.untraced_steps_s = 0.0
        self.peak_rss_mb = math.nan
        self.checks: list[dict] = []
        self.counts: dict[str, float] = {}
        self.notes: list[str] = []
        self._lock = threading.Lock()

    def op(self, **fields) -> None:
        with self._lock:
            self.ops.append(fields)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        with self._lock:
            self.checks.append({"name": name, "ok": bool(ok),
                                "detail": str(detail)})

    def note(self, message: str) -> None:
        """A diagnostic line for the run's log (not a check)."""
        with self._lock:
            self.notes.append(message)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def deadline(self) -> float:
        return time.perf_counter() + self.seconds


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return math.nan
