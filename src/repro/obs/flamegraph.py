"""Flamegraph rendering of recorded span forests.

Turns the span trees the tracer collects (:mod:`repro.obs.spans` — wall
and CPU time, ``experiment > job > compile > execute`` nesting) into the
classic icicle/flamegraph visualization, in two forms:

* :func:`svg_flamegraph` — a static SVG fragment embedded into the
  self-contained HTML report (:mod:`repro.obs.report`);
* :func:`flamegraph_html` — a standalone interactive page (click to
  zoom, wall/CPU metric toggle, hover tooltips) built from the same
  aggregation, stdlib-only like the rest of the report engine.

Aggregation merges sibling spans with the same name (all ``trace[i]``
jobs of a campaign collapse into one ``job`` frame whose width is their
summed time), mirroring how ``flamegraph.pl`` folds stacks; *self* time
is a frame's own time minus its children's, so the hot leaf — compile,
execute, or the engine overhead between them — is visible at a glance.
"""

from __future__ import annotations

import html
import json
from typing import Optional, Sequence

from .report import PALETTE


class Frame:
    """One aggregated node of the flamegraph: same-name sibling spans
    merged, children aggregated recursively."""

    __slots__ = ("name", "wall_s", "cpu_s", "count", "children")

    def __init__(self, name: str):
        self.name = name
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.count = 0
        self.children: dict[str, "Frame"] = {}

    def absorb(self, node: dict) -> None:
        self.wall_s += float(node.get("wall_s", 0.0))
        self.cpu_s += float(node.get("cpu_s", 0.0))
        self.count += 1
        for child in node.get("children", []):
            name = str(child.get("name", "?"))
            self.children.setdefault(name, Frame(name)).absorb(child)

    def value(self, metric: str) -> float:
        return self.wall_s if metric == "wall" else self.cpu_s

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "wall_s": round(self.wall_s, 9),
            "cpu_s": round(self.cpu_s, 9),
            "count": self.count,
            "children": [child.to_dict()
                         for child in self.children.values()],
        }


def aggregate_spans(spans: Sequence[dict]) -> Frame:
    """Fold a span forest into one aggregated frame tree.

    The returned synthetic ``all`` root spans the whole forest; its
    time is the sum of the root spans' (the idle gaps between top-level
    spans are not attributed anywhere, same as folded-stack tools).
    """
    root = Frame("all")
    for node in spans:
        name = str(node.get("name", "?"))
        root.children.setdefault(name, Frame(name)).absorb(node)
    root.wall_s = sum(child.wall_s for child in root.children.values())
    root.cpu_s = sum(child.cpu_s for child in root.children.values())
    root.count = sum(child.count for child in root.children.values())
    return root


def _color(name: str) -> str:
    return PALETTE[sum(name.encode()) % len(PALETTE)]


def _layout(frame: Frame, metric: str, depth: int, x: float, scale: float,
            rows: list[dict], min_px: float = 0.5) -> None:
    width = frame.value(metric) * scale
    if width < min_px:
        return
    rows.append({"frame": frame, "depth": depth, "x": x, "width": width})
    offset = x
    for child in frame.children.values():
        _layout(child, metric, depth + 1, offset, scale, rows, min_px)
        offset += child.value(metric) * scale


def svg_flamegraph(spans: Sequence[dict], metric: str = "wall",
                   width: int = 880, row_height: int = 18,
                   title: Optional[str] = None) -> str:
    """Static SVG icicle of the span forest (root on top).

    Frames narrower than half a pixel are elided — at report scale they
    carry no signal and only bloat the document.
    """
    root = aggregate_spans(spans)
    total = root.value(metric)
    if total <= 0 or not root.children:
        return ("<svg xmlns='http://www.w3.org/2000/svg' width='880' "
                "height='24'><text x='4' y='16' font-size='12' "
                "fill='#666'>no span data</text></svg>")
    scale = width / total
    rows: list[dict] = []
    _layout(root, metric, 0, 0.0, scale, rows)
    depth_limit = max(row["depth"] for row in rows) + 1
    height = depth_limit * row_height + (22 if title else 2)
    top = 20 if title else 0
    parts = [f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
             f"height='{height}' font-family='monospace' font-size='11'>"]
    if title:
        parts.append(f"<text x='0' y='13' font-size='12' fill='#333'>"
                     f"{html.escape(title)}</text>")
    for row in rows:
        frame = row["frame"]
        y = top + row["depth"] * row_height
        w = max(row["width"] - 0.5, 0.5)
        seconds = frame.value(metric)
        share = 100.0 * seconds / total
        label = (f"{frame.name} — {seconds:.3f}s {metric} "
                 f"({share:.1f}%), {frame.count}×")
        parts.append(
            f"<g><title>{html.escape(label)}</title>"
            f"<rect x='{row['x']:.2f}' y='{y}' width='{w:.2f}' "
            f"height='{row_height - 1}' fill='{_color(frame.name)}' "
            f"rx='1'/>")
        if row["width"] > 40:
            text = html.escape(frame.name)
            parts.append(f"<text x='{row['x'] + 3:.2f}' y='{y + 12}' "
                         f"fill='#fff'>{text}</text>")
        parts.append("</g>")
    parts.append("</svg>")
    return "".join(parts)


_HTML_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
 body {{ font-family: monospace; margin: 16px; background: #fafafa; }}
 h1 {{ font-size: 16px; }}
 #meta {{ color: #666; font-size: 12px; margin-bottom: 8px; }}
 #controls {{ margin: 8px 0; }}
 #controls button {{ font-family: monospace; margin-right: 6px; }}
 #graph {{ position: relative; width: 100%; }}
 .frame {{ position: absolute; height: 17px; overflow: hidden;
          white-space: nowrap; color: #fff; font-size: 11px;
          line-height: 17px; padding-left: 3px; border-radius: 2px;
          box-sizing: border-box; cursor: pointer; }}
 .frame:hover {{ outline: 1.5px solid #333; }}
 #detail {{ margin-top: 10px; color: #333; font-size: 12px;
           min-height: 1.2em; }}
</style>
</head>
<body>
<h1>{title}</h1>
<div id="meta">{meta}</div>
<div id="controls">
 <button onclick="setMetric('wall_s')">wall</button>
 <button onclick="setMetric('cpu_s')">cpu</button>
 <button onclick="zoomTo(null)">reset zoom</button>
</div>
<div id="graph"></div>
<div id="detail">click a frame to zoom; hover for timing</div>
<script>
const ROOT = {frames};
const PALETTE = {palette};
let metric = "wall_s";
let focus = null;
function color(name) {{
  let sum = 0;
  for (const ch of name) sum += ch.codePointAt(0);
  return PALETTE[sum % PALETTE.length];
}}
function value(frame) {{ return frame[metric]; }}
function setMetric(m) {{ metric = m; render(); }}
function zoomTo(frame) {{ focus = frame; render(); }}
function render() {{
  const graph = document.getElementById("graph");
  graph.textContent = "";
  const root = focus || ROOT;
  const total = value(root);
  if (total <= 0) {{ graph.textContent = "no span data"; return; }}
  const width = graph.clientWidth || 880;
  const rowH = 18;
  let maxDepth = 0;
  function walk(frame, depth, x, scale) {{
    const w = value(frame) * scale;
    if (w < 0.5) return;
    maxDepth = Math.max(maxDepth, depth);
    const div = document.createElement("div");
    div.className = "frame";
    div.style.left = x + "px";
    div.style.top = (depth * rowH) + "px";
    div.style.width = Math.max(w - 1, 1) + "px";
    div.style.background = color(frame.name);
    div.textContent = w > 40 ? frame.name : "";
    const pct = (100 * value(frame) / total).toFixed(1);
    const secs = value(frame).toFixed(4);
    div.title = frame.name + " — " + secs + "s (" + pct + "%), " +
      frame.count + "x";
    div.onclick = () => zoomTo(frame);
    div.onmouseenter = () => {{
      document.getElementById("detail").textContent = div.title;
    }};
    graph.appendChild(div);
    let offset = x;
    for (const child of frame.children) {{
      walk(child, depth + 1, offset, scale);
      offset += value(child) * scale;
    }}
  }}
  walk(root, 0, 0, width / total);
  graph.style.height = ((maxDepth + 1) * rowH + 4) + "px";
}}
window.addEventListener("resize", render);
render();
</script>
</body>
</html>
"""


def flamegraph_html(spans: Sequence[dict], title: str = "Span flamegraph",
                    meta: Optional[dict] = None) -> str:
    """Standalone interactive flamegraph page for a span forest.

    Self-contained: the aggregated frames are embedded as JSON and the
    renderer is a small inline script — no external assets, so the file
    can ride along as a CI artifact and open anywhere.
    """
    root = aggregate_spans(spans)
    meta_text = " · ".join(f"{key}={value}"
                           for key, value in sorted((meta or {}).items()))
    return _HTML_TEMPLATE.format(
        title=html.escape(title),
        meta=html.escape(meta_text) or "&nbsp;",
        frames=json.dumps(root.to_dict()),
        palette=json.dumps(list(PALETTE)),
    )
