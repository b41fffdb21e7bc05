"""Persistence for traces and experiment results.

Energy traces are the expensive artifact in this system (seconds of
simulation each); saving them lets attack development iterate offline, and
lets experiment results be archived/diffed across code changes.

Formats: numpy ``.npz`` for numeric data, JSON for experiment summaries,
CSV for tabular rows, and **streaming** NDJSON/CSV per-cycle trace export
(:class:`StreamingTraceWriter`) whose memory footprint is bounded by a
small line buffer regardless of trace length — million-cycle batch runs
can export their traces without ever holding them in RAM
(``run_with_trace(..., stream=writer, keep_trace=False)``).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from ..energy.tracker import COMPONENTS
from ..energy.trace import EnergyTrace
from .experiments import ExperimentResult

PathLike = Union[str, Path]


class StreamingTraceWriter:
    """Bounded-memory per-cycle trace writer (NDJSON or CSV).

    Plugs into :class:`~repro.energy.tracker.EnergyTracker` as its
    ``stream`` sink: the tracker calls :meth:`write_cycle` once per cycle
    and the writer appends one line per cycle, flushing its line buffer
    every ``buffer_cycles`` cycles — memory use is O(buffer), not
    O(cycles).

    * ``ndjson`` — one JSON object per line: ``{"cycle": n, "pj": total}``
      plus a ``"components"`` object when per-component collection is on;
      phase markers can be appended via :meth:`write_marker`.
    * ``csv`` — header ``cycle,total_pj[,<component>...]``; markers are
      not representable and are silently skipped.

    The format defaults from the path suffix (``.csv`` -> csv, anything
    else -> ndjson).  Use as a context manager or call :meth:`close`.
    """

    FORMATS = ("ndjson", "csv")

    def __init__(self, path: PathLike, fmt: Optional[str] = None,
                 buffer_cycles: int = 4096,
                 component_names: Sequence[str] = COMPONENTS):
        self.path = Path(path)
        if fmt is None:
            fmt = "csv" if self.path.suffix.lower() == ".csv" else "ndjson"
        if fmt not in self.FORMATS:
            raise ValueError(f"unknown trace format {fmt!r} "
                             f"(expected one of {self.FORMATS})")
        self.fmt = fmt
        self.component_names = tuple(component_names)
        self.buffer_cycles = max(1, int(buffer_cycles))
        self.cycles_written = 0
        self._buffer: list[str] = []
        self._wrote_header = False
        self._handle = open(self.path, "w", encoding="utf-8")

    # -- tracker sink interface ---------------------------------------

    def write_cycle(self, index: int, total_pj: float,
                    components=None) -> None:
        if self.fmt == "csv":
            if not self._wrote_header:
                names = ",".join(self.component_names) \
                    if components is not None else ""
                header = "cycle,total_pj" + ("," + names if names else "")
                self._buffer.append(header)
                self._wrote_header = True
            line = f"{index},{total_pj!r}"
            if components is not None:
                line += "," + ",".join(repr(value) for value in components)
        else:
            if components is not None:
                parts = ",".join(f'"{name}":{value!r}' for name, value
                                 in zip(self.component_names, components))
                line = (f'{{"cycle":{index},"pj":{total_pj!r},'
                        f'"components":{{{parts}}}}}')
            else:
                line = f'{{"cycle":{index},"pj":{total_pj!r}}}'
        self._buffer.append(line)
        self.cycles_written += 1
        if len(self._buffer) >= self.buffer_cycles:
            self.flush()

    def write_marker(self, cycle: int, value: int) -> None:
        """Append a phase-marker record (NDJSON only)."""
        if self.fmt == "ndjson":
            self._buffer.append(f'{{"marker":{value},"cycle":{cycle}}}')

    def write_markers(self, markers: Sequence[tuple[int, int]]) -> None:
        for cycle, value in markers:
            self.write_marker(cycle, value)

    # -- lifecycle ----------------------------------------------------

    def flush(self) -> None:
        if self._buffer:
            self._handle.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self.flush()
            self._handle.close()

    def __enter__(self) -> "StreamingTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def save_trace(trace: EnergyTrace, path: PathLike) -> None:
    """Save an EnergyTrace to ``.npz`` (energy, markers, components)."""
    markers = np.asarray(trace.markers, dtype=np.int64).reshape(-1, 2)
    payload = {"energy": trace.energy, "markers": markers,
               "label": np.array(trace.label)}
    if trace.components is not None:
        payload["components"] = trace.components
    np.savez_compressed(Path(path), **payload)


def load_trace(path: PathLike) -> EnergyTrace:
    """Load an EnergyTrace saved by :func:`save_trace`."""
    with np.load(Path(path), allow_pickle=False) as data:
        markers = tuple((int(cycle), int(value))
                        for cycle, value in data["markers"])
        components = data["components"] if "components" in data else None
        return EnergyTrace(energy=data["energy"], markers=markers,
                           components=components,
                           label=str(data["label"]))


def experiment_to_dict(result: ExperimentResult) -> dict:
    """JSON-serializable representation of an experiment result."""
    payload = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "summary": {key: (value.item()
                          if isinstance(value, np.generic) else value)
                    for key, value in result.summary.items()},
        "series": {name: np.asarray(values).tolist()
                   for name, values in result.series.items()},
        "rows": [list(row) for row in result.rows],
        "notes": result.notes,
    }
    if result.leakage is not None:
        payload["leakage"] = result.leakage.to_dict()
    return payload


def save_experiment_json(result: ExperimentResult, path: PathLike,
                         include_series: bool = True) -> None:
    """Save an experiment result as JSON."""
    payload = experiment_to_dict(result)
    if not include_series:
        payload["series"] = {name: f"<{len(values)} values omitted>"
                             for name, values in result.series.items()}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def save_summary_csv(results: list[ExperimentResult],
                     path: PathLike) -> None:
    """Save experiment summaries as long-format CSV
    (experiment_id, key, value)."""
    with open(Path(path), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["experiment_id", "key", "value"])
        for result in results:
            for key, value in result.summary.items():
                writer.writerow([result.experiment_id, key, value])
