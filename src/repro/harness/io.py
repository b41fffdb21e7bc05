"""Persistence for traces and experiment results.

Energy traces are the expensive artifact in this system (seconds of
simulation each); saving them lets attack development iterate offline, and
lets experiment results be archived/diffed across code changes.

Formats: numpy ``.npz`` for numeric data, JSON for experiment summaries,
CSV for tabular rows, and NDJSON/CSV per-cycle text for a finished trace
(:func:`export_trace`, behind ``repro run --trace-out``).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

import numpy as np

from ..energy.tracker import COMPONENTS
from ..energy.trace import EnergyTrace
from .experiments import ExperimentResult

PathLike = Union[str, Path]


def export_trace(trace: EnergyTrace, path: PathLike) -> str:
    """Write a finished trace as per-cycle text; returns the format.

    A ``.csv`` path gets a ``cycle,total_pj`` header and one row per
    cycle; any other path gets NDJSON, one ``{"cycle":n,"pj":v}`` object
    per cycle, then one ``{"marker":m,"cycle":c}`` object per phase
    marker.  Per-component energies, when the trace has them, follow as
    columns or as a ``"components"`` object.  Floats are written by
    ``repr``, so they read back exactly.
    """
    path = Path(path)
    energy = trace.energy.tolist()
    parts = None if trace.components is None else trace.components.tolist()
    names = () if parts is None else COMPONENTS[:trace.components.shape[1]]
    if path.suffix.lower() == ".csv":
        fmt = "csv"
        lines = [",".join(("cycle", "total_pj") + names)]
        for index, total in enumerate(energy):
            row = (index, total,
                   *(parts[index] if parts is not None else ()))
            lines.append(",".join(map(repr, row)))
    else:
        fmt = "ndjson"
        lines = []
        for index, total in enumerate(energy):
            line = f'{{"cycle":{index},"pj":{total!r}'
            if parts is not None:
                fields = ",".join(f'"{name}":{value!r}' for name, value
                                  in zip(names, parts[index]))
                line += f',"components":{{{fields}}}'
            lines.append(line + "}")
        lines += [f'{{"marker":{value},"cycle":{cycle}}}'
                  for cycle, value in trace.markers]
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(line + "\n" for line in lines)
    return fmt


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
