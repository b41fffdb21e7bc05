"""Self-contained HTML leakage report (``repro obs report``).

One HTML file, no external assets: charts are inline SVG, styling is an
embedded stylesheet, and everything renders offline — the artifact can be
attached to a CI run or mailed around like the paper's figures.

Sections (each rendered only when its data is present):

* headline summary (experiment id, config, scalar observables);
* per-cycle charts — the paper's Figs. 6-12 as decimated SVG polylines,
  with multi-series overlays for A/B comparisons;
* the leakage-budget verdict table (:mod:`repro.obs.leakage`), colored
  by pass/fail;
* energy attribution — per-unit bars stacked by instruction class,
  secured/unsecured/overhead region shares, and the top-N hotspot table
  with source lines (:mod:`repro.obs.attribution`).

Entry points: :func:`build_report` (compose from parts),
:func:`report_from_manifest` (everything a run manifest carries), and
:func:`write_report`.
"""

from __future__ import annotations

import math
from html import escape
from pathlib import Path
from typing import Optional, Sequence, Union

from .attribution import CLASSES, summarize_attribution

PathLike = Union[str, Path]

#: Colorblind-safe palette (Okabe-Ito), cycled across series/segments.
PALETTE = ("#0072B2", "#D55E00", "#009E73", "#CC79A7",
           "#E69F00", "#56B4E9", "#F0E442", "#000000")

#: Maximum polyline points per chart; longer series are bucket-averaged.
MAX_POINTS = 800

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial,
       sans-serif; margin: 2rem auto; max-width: 62rem; color: #1a1a2e; }
h1 { font-size: 1.5rem; border-bottom: 2px solid #0072B2;
     padding-bottom: .3rem; }
h2 { font-size: 1.15rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: .75rem 0; font-size: .85rem; }
th, td { border: 1px solid #cbd5e1; padding: .3rem .6rem;
         text-align: left; }
th { background: #eef2f7; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
tr.pass td.verdict { background: #d1e7d1; color: #14532d;
                     font-weight: 600; }
tr.fail td.verdict { background: #f8d7da; color: #7f1d1d;
                     font-weight: 600; }
tr.info td.verdict { color: #475569; }
.verdict-banner { display: inline-block; padding: .25rem .9rem;
                  border-radius: .4rem; font-weight: 700; }
.verdict-banner.pass { background: #d1e7d1; color: #14532d; }
.verdict-banner.fail { background: #f8d7da; color: #7f1d1d; }
figure { margin: 1rem 0; }
figcaption { font-size: .8rem; color: #475569; margin-top: .25rem; }
code { background: #eef2f7; padding: 0 .25rem; border-radius: .2rem; }
.meta { color: #475569; font-size: .8rem; }
svg text { font-family: inherit; }
"""


# ---------------------------------------------------------------------------
# series handling
# ---------------------------------------------------------------------------


def decimate(values: Sequence[float], max_points: int = MAX_POINTS
             ) -> list[float]:
    """Bucket-mean a series down to at most ``max_points`` samples."""
    values = [float(v) for v in values]
    n = len(values)
    if n <= max_points:
        return values
    step = n / max_points
    out = []
    for i in range(max_points):
        lo, hi = int(i * step), max(int(i * step) + 1, int((i + 1) * step))
        bucket = values[lo:hi]
        out.append(sum(bucket) / len(bucket))
    return out


def _finite(values: Sequence[float]) -> list[float]:
    return [v for v in values if math.isfinite(v)]


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.01:
        return f"{value:.3g}"
    return f"{value:.2f}"


# ---------------------------------------------------------------------------
# SVG primitives
# ---------------------------------------------------------------------------


def svg_line_chart(series: dict[str, Sequence[float]], title: str = "",
                   width: int = 880, height: int = 240,
                   unit: str = "pJ") -> str:
    """Overlay line chart of one or more equally-sampled series."""
    pad_l, pad_r, pad_t, pad_b = 64, 12, 22, 30
    plot_w, plot_h = width - pad_l - pad_r, height - pad_t - pad_b
    decimated = {name: decimate(values) for name, values in series.items()
                 if len(values)}
    if not decimated:
        return ""
    all_values = _finite([v for vs in decimated.values() for v in vs])
    if not all_values:
        return ""
    low, high = min(all_values), max(all_values)
    if low > 0:
        low = 0.0
    if high < 0:
        high = 0.0
    span = (high - low) or 1.0

    def x_of(i: int, n: int) -> float:
        return pad_l + (plot_w * i / max(1, n - 1))

    def y_of(v: float) -> float:
        return pad_t + plot_h * (1 - (v - low) / span)

    parts = [f'<svg viewBox="0 0 {width} {height}" width="{width}" '
             f'height="{height}" role="img">']
    if title:
        parts.append(f'<text x="{pad_l}" y="14" font-size="12" '
                     f'font-weight="600">{escape(title)}</text>')
    # Axis frame + zero line + min/max ticks.
    parts.append(f'<rect x="{pad_l}" y="{pad_t}" width="{plot_w}" '
                 f'height="{plot_h}" fill="#f8fafc" stroke="#cbd5e1"/>')
    zero_y = y_of(0.0)
    if low < 0 < high:
        parts.append(f'<line x1="{pad_l}" y1="{zero_y:.1f}" '
                     f'x2="{pad_l + plot_w}" y2="{zero_y:.1f}" '
                     f'stroke="#94a3b8" stroke-dasharray="3 3"/>')
    for value, y in ((high, pad_t + 8), (low, pad_t + plot_h)):
        parts.append(f'<text x="{pad_l - 6}" y="{y}" font-size="10" '
                     f'text-anchor="end" fill="#475569">'
                     f'{_fmt(value)}</text>')
    parts.append(f'<text x="{pad_l - 6}" y="{pad_t + plot_h / 2:.0f}" '
                 f'font-size="10" text-anchor="end" fill="#475569">'
                 f'{escape(unit)}</text>')
    # Series polylines + legend.
    legend_x = pad_l + 4
    for index, (name, values) in enumerate(decimated.items()):
        color = PALETTE[index % len(PALETTE)]
        points = " ".join(
            f"{x_of(i, len(values)):.1f},{y_of(v):.1f}"
            for i, v in enumerate(values) if math.isfinite(v))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="1.2"/>')
        if len(decimated) > 1 or name != "series":
            parts.append(f'<rect x="{legend_x}" y="{pad_t + 4}" width="10" '
                         f'height="10" fill="{color}"/>')
            parts.append(f'<text x="{legend_x + 13}" y="{pad_t + 13}" '
                         f'font-size="10">{escape(name)}</text>')
            legend_x += 22 + 6 * len(name)
    parts.append(f'<text x="{pad_l}" y="{height - 8}" font-size="10" '
                 f'fill="#475569">cycle →</text>')
    parts.append("</svg>")
    return "".join(parts)


def svg_stacked_bars(bars: dict[str, dict[str, float]], title: str = "",
                     width: int = 880, unit: str = "pJ") -> str:
    """Horizontal stacked bars: one bar per key, segments per sub-key."""
    bars = {name: {seg: v for seg, v in segments.items() if v > 0}
            for name, segments in bars.items()}
    bars = {name: segments for name, segments in bars.items() if segments}
    if not bars:
        return ""
    segment_names: list[str] = [c for c in CLASSES
                                if any(c in segs for segs in bars.values())]
    for segs in bars.values():
        for name in segs:
            if name not in segment_names:
                segment_names.append(name)
    color_of = {name: PALETTE[i % len(PALETTE)]
                for i, name in enumerate(segment_names)}
    bar_h, gap, pad_l, pad_r, pad_t = 22, 8, 110, 90, 22
    legend_h = 18
    height = pad_t + len(bars) * (bar_h + gap) + legend_h + 8
    max_total = max(sum(segs.values()) for segs in bars.values())
    plot_w = width - pad_l - pad_r

    parts = [f'<svg viewBox="0 0 {width} {height}" width="{width}" '
             f'height="{height}" role="img">']
    if title:
        parts.append(f'<text x="{pad_l}" y="14" font-size="12" '
                     f'font-weight="600">{escape(title)}</text>')
    y = pad_t
    for name, segments in sorted(bars.items(),
                                 key=lambda kv: -sum(kv[1].values())):
        total = sum(segments.values())
        parts.append(f'<text x="{pad_l - 8}" y="{y + bar_h - 7}" '
                     f'font-size="11" text-anchor="end">{escape(name)}'
                     f'</text>')
        x = float(pad_l)
        for segment in segment_names:
            value = segments.get(segment, 0.0)
            if value <= 0:
                continue
            w = plot_w * value / max_total
            parts.append(f'<rect x="{x:.1f}" y="{y}" width="{max(w, 0.5):.1f}" '
                         f'height="{bar_h}" fill="{color_of[segment]}">'
                         f'<title>{escape(segment)}: {_fmt(value)} '
                         f'{escape(unit)}</title></rect>')
            x += w
        parts.append(f'<text x="{x + 6:.1f}" y="{y + bar_h - 7}" '
                     f'font-size="10" fill="#475569">'
                     f'{_fmt(total)} {escape(unit)}</text>')
        y += bar_h + gap
    # Legend row.
    x = float(pad_l)
    for segment in segment_names:
        parts.append(f'<rect x="{x:.1f}" y="{y}" width="10" height="10" '
                     f'fill="{color_of[segment]}"/>')
        parts.append(f'<text x="{x + 13:.1f}" y="{y + 9}" font-size="10">'
                     f'{escape(segment)}</text>')
        x += 26 + 6 * len(segment)
    parts.append("</svg>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# HTML sections
# ---------------------------------------------------------------------------


def _kv_table(record: dict, caption: str = "") -> str:
    rows = []
    for key, value in record.items():
        shown = _fmt(value) if isinstance(value, float) else str(value)
        rows.append(f"<tr><td>{escape(str(key))}</td>"
                    f'<td class="num">{escape(shown)}</td></tr>')
    cap = f"<caption>{escape(caption)}</caption>" if caption else ""
    return (f"<table>{cap}<tr><th>key</th><th>value</th></tr>"
            + "".join(rows) + "</table>")


def leakage_section(leakage: dict) -> str:
    """Verdict table(s) for one report dict or a mapping of several."""
    reports = [leakage] if "regions" in leakage else list(leakage.values())
    parts = ["<h2>Leakage budget</h2>"]
    for report in reports:
        verdict = "pass" if report.get("passed") else "fail"
        label = report.get("label") or "differential"
        budget = report.get("budget_pj", 0.0)
        banner = (f'<p><span class="verdict-banner {verdict}">'
                  f'{verdict.upper()}</span> '
                  f"<strong>{escape(str(label))}</strong> — "
                  f"budget {_fmt(budget)} pJ")
        if report.get("budget_t") is not None:
            banner += f", |t| &lt; {_fmt(report['budget_t'])}"
        banner += (f", {report.get('violations', 0)} violation(s)</p>")
        parts.append(banner)
        rows = []
        for region in report.get("regions", []):
            protected = region.get("protected")
            passed = region.get("passed")
            css = ("pass" if passed else "fail") if protected else "info"
            cells = [
                f"<td>{escape(str(region.get('region', '?')))}</td>",
                f'<td class="num">{region.get("start", 0)}&ndash;'
                f'{region.get("end", 0)}</td>',
                f"<td>{'yes' if protected else 'no'}</td>",
                f'<td class="num">{_fmt(region.get("max_abs_diff_pj", 0.0))}'
                f"</td>",
                f'<td class="num">{region.get("leaking_cycles", 0)}</td>',
            ]
            t_max = region.get("welch_t_max")
            cells.append(f'<td class="num">'
                         f'{_fmt(t_max) if t_max is not None else "-"}</td>')
            if protected:
                text = "PASS" if passed else "FAIL"
            else:
                text = "unprotected"
            cells.append(f'<td class="verdict">{text}</td>')
            rows.append(f'<tr class="{css}">' + "".join(cells) + "</tr>")
        parts.append(
            "<table><tr><th>region</th><th>cycles</th><th>protected</th>"
            "<th>max |Δ| pJ</th><th>leaking cycles</th><th>max |t|</th>"
            "<th>verdict</th></tr>" + "".join(rows) + "</table>")
    return "".join(parts)


def _unit_class_matrix(attribution: dict) -> dict[str, dict[str, float]]:
    """unit -> class -> pJ over an attribution snapshot's cells."""
    matrix: dict[str, dict[str, float]] = {}
    for _, unit, iclass, _, pj, _ in attribution["cells"]:
        row = matrix.setdefault(unit, {})
        row[iclass] = row.get(iclass, 0.0) + pj
    return matrix


def attribution_section(attribution: dict) -> str:
    """Stacked per-unit bars, region shares, and the hotspot table."""
    summary = summarize_attribution(attribution)
    parts = ["<h2>Energy attribution</h2>"]
    parts.append(f'<p class="meta">{_fmt(summary["total_pj"])} pJ '
                 f'attributed across {summary["cells"]} '
                 f"(pc, unit, class) cells.</p>")
    matrix = _unit_class_matrix(attribution)
    chart = svg_stacked_bars(matrix,
                             title="per pipeline unit, by instruction class")
    if chart:
        parts.append(f"<figure>{chart}</figure>")
    by_region = summary["by_region"]
    if by_region:
        region_bars = {name: {"energy": slot["pj"]}
                       for name, slot in by_region.items()}
        chart = svg_stacked_bars(
            region_bars, title="secured slice vs rest vs overhead")
        parts.append(f"<figure>{chart}</figure>")
    hotspots = summary["top_hotspots"]
    if hotspots:
        parts.append("<h2>Hotspots</h2>")
        rows = []
        for spot in hotspots:
            rows.append(
                "<tr>"
                f'<td class="num">0x{spot.get("pc", 0):04x}</td>'
                f"<td><code>{escape(str(spot.get('asm') or '?'))}</code></td>"
                f'<td class="num">{spot.get("line") or "-"}</td>'
                f"<td>{'yes' if spot.get('sliced') else 'no'}</td>"
                f'<td class="num">{_fmt(spot.get("pj", 0.0))}</td>'
                f'<td class="num">{spot.get("events", 0):,}</td>'
                f'<td class="num">{100 * spot.get("share", 0.0):.1f}%</td>'
                "</tr>")
        parts.append(
            "<table><tr><th>pc</th><th>instruction</th><th>line</th>"
            "<th>secured</th><th>pJ</th><th>events</th><th>share</th></tr>"
            + "".join(rows) + "</table>")
    return "".join(parts)


def flamegraph_section(spans: Sequence[dict]) -> str:
    """Wall/CPU icicle charts of the recorded span forest."""
    # Imported here: flamegraph reuses this module's palette, so a
    # module-level import would be circular.
    from .flamegraph import svg_flamegraph

    charts = []
    for metric, caption in (("wall", "wall time"), ("cpu", "CPU time")):
        chart = svg_flamegraph(spans, metric=metric)
        if chart:
            charts.append(f"<figure>{chart}<figcaption>span profile by "
                          f"{caption}; same-name spans merged, hover for "
                          f"timings</figcaption></figure>")
    if not charts:
        return ""
    return "<h2>Where the time went</h2>" + "".join(charts)


def charts_section(series: dict[str, Sequence[float]],
                   title: str = "Per-cycle energy") -> str:
    charts = []
    for name, values in series.items():
        chart = svg_line_chart({name: values}, title=name)
        if chart:
            charts.append(f"<figure>{chart}<figcaption>{escape(name)}: "
                          f"{len(values)} samples"
                          + (f", decimated to {MAX_POINTS}"
                             if len(values) > MAX_POINTS else "")
                          + "</figcaption></figure>")
    if not charts:
        return ""
    return f"<h2>{escape(title)}</h2>" + "".join(charts)


# ---------------------------------------------------------------------------
# document assembly
# ---------------------------------------------------------------------------


def build_report(title: str,
                 summary: Optional[dict] = None,
                 series: Optional[dict[str, Sequence[float]]] = None,
                 overlays: Optional[dict[str, dict[str, Sequence[float]]]]
                 = None,
                 leakage: Optional[dict] = None,
                 attribution: Optional[dict] = None,
                 spans: Optional[Sequence[dict]] = None,
                 meta: Optional[dict] = None,
                 notes: str = "") -> str:
    """Compose the self-contained HTML document from its parts.

    ``series`` maps name -> per-cycle values (one chart each);
    ``overlays`` maps chart-title -> {label: values} for multi-series
    A/B charts; ``leakage`` is a :class:`LeakageReport` dict (or mapping
    of them); ``attribution`` an attribution snapshot; ``spans`` a
    recorded span forest (rendered as wall/CPU flamegraphs); ``meta``
    small provenance strings for the footer.
    """
    body = [f"<h1>{escape(title)}</h1>"]
    if leakage:
        passed = leakage.get("passed") if "regions" in leakage else \
            all(r.get("passed") for r in leakage.values())
        verdict = "pass" if passed else "fail"
        body.append(f'<p><span class="verdict-banner {verdict}">leakage '
                    f"budget: {verdict.upper()}</span></p>")
    if summary:
        body.append("<h2>Summary</h2>")
        body.append(_kv_table(summary))
    if overlays:
        body.append("<h2>Differential charts</h2>")
        for chart_title, chart_series in overlays.items():
            chart = svg_line_chart(chart_series, title=chart_title)
            if chart:
                body.append(f"<figure>{chart}</figure>")
    if series:
        body.append(charts_section(series))
    if leakage:
        body.append(leakage_section(leakage))
    if attribution:
        body.append(attribution_section(attribution))
    if spans:
        body.append(flamegraph_section(spans))
    if notes:
        body.append(f'<p class="meta">{escape(notes)}</p>')
    if meta:
        footer = " · ".join(f"{escape(str(k))}: {escape(str(v))}"
                            for k, v in meta.items())
        body.append(f'<hr/><p class="meta">{footer}</p>')
    return ("<!DOCTYPE html><html><head><meta charset='utf-8'/>"
            f"<title>{escape(title)}</title>"
            f"<style>{_STYLE}</style></head><body>"
            + "".join(body) + "</body></html>")


def report_from_manifest(manifest: dict,
                         result: Optional[dict] = None) -> str:
    """Build the HTML report from a run manifest (and optionally the
    saved experiment-result JSON, which carries the per-cycle series).

    Summary rows come in sorted key order, so a manifest held in memory
    and the same manifest loaded back from disk render identically.
    """
    experiment_id = manifest.get("experiment_id") or "run"
    title = f"repro leakage report — {experiment_id}"
    summary = dict(manifest.get("summary") or {})
    series = {}
    leakage = manifest.get("leakage")
    notes = ""
    if result:
        series = {name: values for name, values
                  in (result.get("series") or {}).items()
                  if isinstance(values, list)}
        leakage = leakage or result.get("leakage")
        summary = summary or dict(result.get("summary") or {})
        notes = result.get("notes", "")
    summary = dict(sorted(summary.items()))
    package = manifest.get("package", {})
    meta = {
        "schema": manifest.get("schema", "?"),
        "package": f"{package.get('name', '?')} "
                   f"{package.get('version', '?')}",
        "toolchain": manifest.get("toolchain_fingerprint", "?"),
        "created": manifest.get("created_iso", "?"),
    }
    return build_report(title, summary=summary, series=series,
                        leakage=leakage,
                        attribution=manifest.get("attribution"),
                        spans=manifest.get("spans"),
                        meta=meta, notes=notes)


def _timeline_section(timeline: Sequence[dict]) -> str:
    """Lifecycle table: one row per recorded transition."""
    if not timeline:
        return ""
    rows = []
    for entry in timeline:
        detail = ", ".join(
            f"{key}={value}" for key, value in sorted(entry.items())
            if key not in ("event", "t_s", "ts"))
        rows.append(
            f"<tr><td>{escape(str(entry.get('event', '?')))}</td>"
            f'<td class="num">{float(entry.get("t_s", 0.0)):.6f}</td>'
            f"<td>{escape(detail)}</td></tr>")
    return ("<h2>Lifecycle timeline</h2>"
            "<table><tr><th>event</th><th>t+ (s)</th><th>detail</th></tr>"
            + "".join(rows) + "</table>")


def _phase_latency_section(spans: Sequence[dict],
                           queued_s: Optional[float]) -> str:
    """Per-phase wall/CPU breakdown from the request's span forest."""
    from .spans import phase_totals

    totals = phase_totals(list(spans)) if spans else {}
    if not totals and queued_s is None:
        return ""
    rows = []
    if queued_s is not None:
        rows.append('<tr><td>queue wait</td>'
                    f'<td class="num">{queued_s:.6f}</td>'
                    '<td class="num">-</td><td class="num">1</td></tr>')
    for name, slot in sorted(totals.items(),
                             key=lambda kv: -kv[1]["wall_s"]):
        rows.append(
            f"<tr><td>{escape(name)}</td>"
            f'<td class="num">{slot["wall_s"]:.6f}</td>'
            f'<td class="num">{slot["cpu_s"]:.6f}</td>'
            f'<td class="num">{slot["count"]}</td></tr>')
    return ("<h2>Per-phase latency</h2>"
            "<table><tr><th>phase</th><th>wall (s)</th><th>cpu (s)</th>"
            "<th>spans</th></tr>" + "".join(rows) + "</table>")


def svg_sparkline(values: Sequence[float], width: int = 220,
                  height: int = 36, color: str = PALETTE[0]) -> str:
    """Minimal inline sparkline (no axes) for the dashboard tiles."""
    values = _finite([float(v) for v in values])
    if len(values) < 2:
        return ""
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    points = " ".join(
        f"{2 + (width - 4) * i / (len(values) - 1):.1f},"
        f"{2 + (height - 4) * (1 - (v - low) / span):.1f}"
        for i, v in enumerate(values))
    return (f'<svg viewBox="0 0 {width} {height}" width="{width}" '
            f'height="{height}" role="img">'
            f'<polyline points="{points}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/></svg>')


def latency_quantiles(snapshot: dict,
                      metric: str = "service_request_seconds"
                      ) -> dict[str, float]:
    """p50/p95/p99 across *all* series of one histogram metric.

    The snapshot publishes per-series estimates; the dashboard wants the
    whole-service view, so the raw bucket counts are merged and
    re-estimated with :func:`~repro.obs.registry.bucket_quantile`.
    """
    from .registry import bucket_quantile

    entry = snapshot.get(metric)
    if not entry or entry.get("kind") != "histogram":
        return {}
    bounds = tuple(float(bound) for bound in entry.get("buckets", []))
    merged: Optional[list[int]] = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    for series in entry.get("series", []):
        counts = [int(count) for count in series.get("counts", [])]
        if merged is None:
            merged = counts
        else:
            merged = [a + b for a, b in zip(merged, counts)]
        for bound_name, picker in (("min", min), ("max", max)):
            value = series.get(bound_name)
            if value is not None and math.isfinite(value):
                current = minimum if bound_name == "min" else maximum
                chosen = value if current is None \
                    else picker(current, value)
                if bound_name == "min":
                    minimum = chosen
                else:
                    maximum = chosen
    if merged is None or not sum(merged):
        return {}
    return {name: bucket_quantile(bounds, merged, q,
                                  minimum=minimum, maximum=maximum)
            for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))}


def dashboard_html(health: dict, snapshot: dict,
                   history: Sequence[dict],
                   refresh_s: float = 2.0) -> str:
    """Self-contained auto-refreshing SLO dashboard (``GET /dashboard``).

    ``history`` is the server's rolling sample list ({queue_depth,
    inflight, p95_s, goodput} per sample) rendered as sparklines; the
    page re-fetches itself every ``refresh_s`` via ``<meta refresh>`` —
    no JavaScript, no external assets.
    """
    status = health.get("status", "?")
    quantiles = latency_quantiles(snapshot)
    outcome = "pass" if status == "ok" else "fail"
    body = ["<h1>repro service dashboard</h1>",
            f'<p><span class="verdict-banner {outcome}">'
            f"{escape(str(status))}</span> "
            f'<span class="meta">uptime '
            f'{_fmt(float(health.get("uptime_s", 0.0)))}s · auto-refresh '
            f"every {_fmt(refresh_s)}s</span></p>"]
    stats = {
        "queue depth": f'{health.get("queue_depth", 0)}'
                       f' / {health.get("queue_capacity", 0)}',
        "in flight": health.get("inflight", 0),
        "executor alive": health.get("workers_alive", 0),
        "breaker open": health.get("breaker_open", 0),
    }
    for name, value in quantiles.items():
        stats[f"latency {name} (s)"] = _fmt(value)
    for state, count in (health.get("terminal") or {}).items():
        stats[f"terminal: {state}"] = count
    cache = health.get("verdict_cache") or {}
    if cache:
        stats["verdict cache hits"] = cache.get("hits", 0)
        stats["verdict cache misses"] = cache.get("misses", 0)
        stats["artifact store entries"] = (
            f'{cache.get("entries", 0)}'
            f' ({cache.get("bytes", 0)} / {cache.get("max_bytes", 0)} B)')
        stats["artifact store evictions"] = cache.get("evictions", 0)
    pool = health.get("pool") or {}
    if pool:
        stats["pool leases"] = (f'{pool.get("leases", 0)}'
                                f' ({pool.get("warm_acquires", 0)} warm)')
        stats["pool rebuilds"] = pool.get("rebuilds", 0)
        stats["pool generation"] = (
            f'{pool.get("generation", 0)}'
            f' ({"live" if pool.get("live") else "down"})')
    body.append(_kv_table(stats, caption="service level"))
    if history:
        tiles = []
        for key, label in (("queue_depth", "queue depth"),
                           ("inflight", "in flight"),
                           ("p95_s", "p95 latency (s)"),
                           ("goodput", "goodput traces")):
            values = [float(sample.get(key, 0.0)) for sample in history]
            chart = svg_sparkline(values,
                                  color=PALETTE[len(tiles) % len(PALETTE)])
            if chart:
                tiles.append(f"<figure>{chart}<figcaption>"
                             f"{escape(label)} (last {len(values)} "
                             f"samples, now {_fmt(values[-1])})"
                             "</figcaption></figure>")
        if tiles:
            body.append("<h2>Trends</h2>" + "".join(tiles))
    return ("<!DOCTYPE html><html><head><meta charset='utf-8'/>"
            f'<meta http-equiv="refresh" content="{refresh_s:g}"/>'
            "<title>repro service dashboard</title>"
            f"<style>{_STYLE}</style></head><body>"
            + "".join(body) + "</body></html>")


def request_report_html(document: dict) -> str:
    """Self-contained HTML report for one service request.

    ``document`` is the trace document
    (:meth:`~repro.service.protocol.RequestRecord.trace_document`),
    optionally carrying the terminal ``result``: verdict banner,
    request summary, per-phase latency breakdown (queue wait + span
    phases), lifecycle timeline, the leakage verdict table, attribution
    charts, and wall/CPU flamegraphs — everything inline, nothing
    fetched.  Served by ``GET /v1/requests/<id>/report.html``.
    """
    request_id = document.get("id", "?")
    state = document.get("state", "?")
    result = document.get("result") or {}
    request = document.get("request") or {}
    error = document.get("error")
    title = f"repro request {request_id} — {state}"
    body = [f"<h1>{escape(title)}</h1>"]

    verdict = (result.get("verdict") or {})
    if verdict:
        outcome = "pass" if verdict.get("passed") else "fail"
        body.append(f'<p><span class="verdict-banner {outcome}">leakage '
                    f"budget: {outcome.upper()}</span></p>")
    else:
        outcome = "pass" if state == "done" else "fail"
        body.append(f'<p><span class="verdict-banner {outcome}">'
                    f"request {escape(state)}</span></p>")
    if error:
        body.append(f"<p><strong>{escape(str(error.get('code', '?')))}"
                    f"</strong>: {escape(str(error.get('message', '')))}"
                    "</p>")

    summary = {"id": request_id,
               "trace id": document.get("trace_id", "?"),
               "state": state,
               "client": request.get("client", "?"),
               "mode": request.get("mode", "?"),
               "masking": request.get("masking", "?"),
               "priority": request.get("priority", "?")}
    if document.get("queued_s") is not None:
        summary["queue wait (s)"] = document["queued_s"]
    if document.get("latency_s") is not None:
        summary["latency (s)"] = document["latency_s"]
    if result:
        summary.update({
            "traces": result.get("n_traces", "?"),
            "total pJ": result.get("total_pj", "?"),
            "engines": ", ".join(f"{name}×{count}" for name, count in
                                 (result.get("engines") or {}).items()),
            "compile cache hit": result.get("cache_hit", "?"),
            "trace digest": str(result.get("trace_digest", "?"))[:16],
        })
    body.append("<h2>Summary</h2>")
    body.append(_kv_table(summary))

    spans = document.get("spans") or []
    body.append(_phase_latency_section(spans, document.get("queued_s")))
    body.append(_timeline_section(document.get("timeline") or []))
    if verdict:
        body.append(leakage_section(verdict))
    if document.get("attribution"):
        body.append(attribution_section(document["attribution"]))
    if spans:
        if document.get("spans_compacted"):
            body.append('<p class="meta">span tree compacted '
                        "(aggregated by name) to bound memory.</p>")
        body.append(flamegraph_section(spans))
    return ("<!DOCTYPE html><html><head><meta charset='utf-8'/>"
            f"<title>{escape(title)}</title>"
            f"<style>{_STYLE}</style></head><body>"
            + "".join(body) + "</body></html>")


def write_report(html: str, path: PathLike) -> Path:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(html, encoding="utf-8")
    return target
