"""Run manifests: the machine-readable record of one measurement.

A manifest answers, a month later, "what exactly produced these numbers?"
It captures the package version, a fingerprint of the toolchain sources,
the platform, the run configuration (masking policy, energy parameters,
seeds, effective worker count), the final metrics snapshot, and the span
tree, plus the full energy-attribution cell table and the leakage
verdicts when the run collected them — one JSON document written
**atomically** next to the results it describes, so a crash mid-write
never leaves a half manifest.

The manifest is the one observability artifact of a run, and
``repro obs`` renders everything from it: ``summarize`` (one manifest,
or an aggregate/diff of several; :func:`aggregate_manifests` is the
library entry point), ``attribution``, ``report`` and ``flamegraph``.
"""

from __future__ import annotations

import json
import os
import platform
import secrets
import sys
import time
from pathlib import Path
from typing import Optional, Union

from .attribution import summarize_attribution
from .registry import MetricsRegistry, snapshot_totals
from .spans import render_tree

PathLike = Union[str, Path]

#: v3: the ``attribution`` section is the full
#: :meth:`~repro.obs.attribution.AttributionSink.snapshot` (cells,
#: ``pc_info``, ``total_pj``); readers roll it up on read.
SCHEMA = "repro.obs.manifest/v3"


def build_manifest(experiment_id: Optional[str] = None,
                   config: Optional[dict] = None,
                   summary: Optional[dict] = None,
                   metrics: Optional[dict] = None,
                   spans: Optional[list] = None,
                   leakage: Optional[dict] = None) -> dict:
    """Assemble a manifest document from the current observability state.

    ``metrics``/``spans`` default to the *current* context's snapshot and
    span tree; pass them explicitly to build a manifest for a scoped run.
    ``config`` is the caller's configuration record (masking policy,
    energy parameters, seeds, jobs); ``summary`` carries experiment
    headline scalars.

    Two optional sections, omitted when empty:

    * ``attribution`` — the current context's attribution snapshot, whole
      (every (pc, unit, class, secure) cell), when it holds cells;
    * ``leakage`` — a :class:`~repro.obs.leakage.LeakageReport` dict (or
      a mapping of several).
    """
    from . import context
    from ..fingerprint import source_fingerprint

    current = context()
    if metrics is None:
        metrics = current.registry.snapshot()
    if spans is None:
        spans = current.tracer.tree()
    manifest: dict = {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "created_iso": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "package": {"name": "repro", "version": _package_version()},
        "toolchain_fingerprint": source_fingerprint(),
        "platform": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "system": platform.system(),
            "machine": platform.machine(),
        },
        "argv": list(sys.argv),
        "config": dict(config or {}),
        "metrics": metrics,
        "spans": spans,
    }
    fault_plan = os.environ.get("REPRO_FAULT_PLAN")
    if fault_plan:
        # Injected faults invalidate timing comparisons; a manifest from
        # such a run must say so.
        manifest["fault_plan"] = fault_plan
    if experiment_id is not None:
        manifest["experiment_id"] = experiment_id
    if summary is not None:
        manifest["summary"] = {key: _jsonable(value)
                               for key, value in summary.items()}
    if current.attribution:
        manifest["attribution"] = current.attribution.snapshot()
    if leakage:
        manifest["leakage"] = leakage
    return manifest


def _package_version() -> str:
    from .. import __version__

    return __version__


def _jsonable(value):
    """Coerce numpy scalars / exotic types to JSON-safe primitives."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return str(value)


def write_manifest(manifest: dict, path: PathLike) -> Path:
    """Atomically write a manifest next to its results; returns the path.

    The file gets the mode a plain ``open()`` would give it under the
    process umask (0644 under the usual 022), like the result JSON and
    report beside it.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(manifest, indent=2, sort_keys=True,
                         default=_jsonable)
    temp_name = target.with_name(
        f".{target.name}.{secrets.token_hex(8)}.manifest.tmp")
    handle = os.open(temp_name, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                     0o666)
    try:
        with os.fdopen(handle, "w") as stream:
            stream.write(payload)
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return target


def load_manifest(path: PathLike) -> dict:
    """Load a manifest written by :func:`write_manifest`."""
    manifest = json.loads(Path(path).read_text())
    schema = manifest.get("schema")
    if schema != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} run manifest "
                         f"(schema={schema!r})")
    return manifest


def aggregate_manifests(manifests: list[dict]) -> dict:
    """Merge the metric snapshots of several manifests into one.

    Counters and histograms add; gauges add as per-run totals (see
    :meth:`~repro.obs.registry.MetricsRegistry.merge_snapshot`).  Returns
    an aggregate record with the merged snapshot plus provenance counts.
    """
    registry = MetricsRegistry()
    experiment_ids = []
    for manifest in manifests:
        registry.merge_snapshot(manifest.get("metrics", {}))
        experiment_ids.append(manifest.get("experiment_id", "-"))
    return {
        "manifests": len(manifests),
        "experiment_ids": experiment_ids,
        "metrics": registry.snapshot(),
    }


def diff_totals(before: dict, after: dict) -> list[tuple[str, float, float]]:
    """Per-series (name, before, after) rows across two manifests.

    Includes every series present in either manifest; absent series read
    as zero, so new or vanished metrics are visible in the diff.
    """
    totals_before = snapshot_totals(before.get("metrics", {}))
    totals_after = snapshot_totals(after.get("metrics", {}))
    names = sorted(set(totals_before) | set(totals_after))
    return [(name, totals_before.get(name, 0.0), totals_after.get(name, 0.0))
            for name in names]


def summarize_manifest(manifest: dict) -> str:
    """Human-readable rendering of one manifest."""
    lines: list[str] = []
    package = manifest.get("package", {})
    lines.append(f"manifest: {manifest.get('experiment_id', '-')}  "
                 f"({package.get('name', '?')} "
                 f"{package.get('version', '?')}, "
                 f"toolchain {manifest.get('toolchain_fingerprint', '?')})")
    platform_info = manifest.get("platform", {})
    if platform_info:
        lines.append("  platform: "
                     + " ".join(f"{key}={value}" for key, value
                                in sorted(platform_info.items())))
    created = manifest.get("created_iso")
    if created:
        lines.append(f"  created:  {created}")
    config = manifest.get("config", {})
    if config:
        lines.append("  config:")
        for key, value in sorted(config.items()):
            lines.append(f"    {key:<28} {value}")
    summary = manifest.get("summary", {})
    if summary:
        lines.append("  summary:")
        for key, value in sorted(summary.items()):
            formatted = f"{value:,.3f}" if isinstance(value, float) \
                else value
            lines.append(f"    {key:<40} {formatted}")
    totals = snapshot_totals(manifest.get("metrics", {}))
    if totals:
        lines.append("  metrics:")
        for name, value in totals.items():
            formatted = f"{value:,.3f}" if isinstance(value, float) \
                and not float(value).is_integer() else f"{int(value):,}"
            lines.append(f"    {name:<56} {formatted}")
    if manifest.get("attribution"):
        attribution = summarize_attribution(manifest["attribution"], top=5)
        lines.append(f"  attribution: {attribution['total_pj']:,.3f}"
                     f" pJ over {attribution['cells']} cells")
        for section in ("by_unit", "by_region"):
            lines.append(f"    {section}:")
            for key, slot in sorted(attribution[section].items(),
                                    key=lambda kv: -kv[1]["pj"]):
                lines.append(f"      {key:<24} {slot['pj']:,.3f} pJ"
                             f"  ({slot['events']:,} events)")
        hotspots = attribution["top_hotspots"]
        if hotspots:
            lines.append("    top hotspots:")
            for spot in hotspots:
                where = f"pc=0x{spot['pc']:04x}" if spot.get("pc", -1) >= 0 \
                    else "overhead"
                line_no = spot.get("line")
                if line_no:
                    where += f" line {line_no}"
                lines.append(f"      {where:<28} {spot['pj']:,.3f} pJ")
    leakage = manifest.get("leakage", {})
    if leakage:
        # Either one report dict or a mapping of labelled reports.
        reports = leakage.values() if "regions" not in leakage \
            else [leakage]
        lines.append("  leakage:")
        for report in reports:
            label = report.get("label", "-")
            verdict = "PASS" if report.get("passed") else "FAIL"
            lines.append(f"    {label:<32} {verdict} "
                         f"({report.get('violations', 0)} violation(s), "
                         f"budget {report.get('budget_pj', 0.0):g} pJ)")
    spans = manifest.get("spans", [])
    if spans:
        lines.append("  spans:")
        lines.extend("    " + line for line in render_tree(spans))
    return "\n".join(lines)
