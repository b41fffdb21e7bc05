"""Flamegraph aggregation and rendering (SVG fragment + standalone HTML)."""

import json

from repro.obs.flamegraph import (aggregate_spans, flamegraph_html,
                                  svg_flamegraph)
from repro.obs.spans import Tracer

SPANS = [
    {"name": "experiment", "wall_s": 10.0, "cpu_s": 8.0, "children": [
        {"name": "job", "wall_s": 4.0, "cpu_s": 3.5, "children": [
            {"name": "compile", "wall_s": 1.0, "cpu_s": 0.9,
             "children": []},
            {"name": "execute", "wall_s": 2.5, "cpu_s": 2.4,
             "children": []},
        ]},
        {"name": "job", "wall_s": 5.0, "cpu_s": 4.0, "children": [
            {"name": "execute", "wall_s": 4.5, "cpu_s": 3.8,
             "children": []},
        ]},
    ]},
]


def test_aggregate_merges_same_name_siblings():
    root = aggregate_spans(SPANS)
    experiment = root.children["experiment"]
    job = experiment.children["job"]
    assert job.count == 2
    assert job.wall_s == 9.0                 # 4.0 + 5.0 folded
    assert job.children["execute"].wall_s == 7.0
    assert job.children["compile"].count == 1
    assert root.wall_s == 10.0


def test_frame_to_dict_round_trips_through_json():
    document = json.loads(json.dumps(aggregate_spans(SPANS).to_dict()))
    assert document["name"] == "all"
    assert document["children"][0]["name"] == "experiment"


def test_svg_contains_frames_and_tooltips():
    svg = svg_flamegraph(SPANS, metric="wall")
    assert svg.startswith("<svg")
    assert "experiment" in svg
    assert "execute — 7.000s wall" in svg
    assert "2×" in svg                       # merged job count in tooltip


def test_svg_empty_spans_renders_placeholder():
    svg = svg_flamegraph([])
    assert "no span data" in svg


def test_svg_elides_sub_pixel_frames():
    spans = [{"name": "big", "wall_s": 1000.0, "cpu_s": 1.0,
              "children": [{"name": "tiny", "wall_s": 0.0001, "cpu_s": 0.0,
                            "children": []}]}]
    assert "tiny" not in svg_flamegraph(spans, metric="wall")


def test_html_is_standalone_and_embeds_frames():
    page = flamegraph_html(SPANS, title="ext-tvla <spans>",
                           meta={"experiment": "ext-tvla"})
    assert page.startswith("<!DOCTYPE html>")
    assert "ext-tvla &lt;spans&gt;" in page  # title escaped
    assert "experiment=ext-tvla" in page
    assert '"name": "experiment"' in page
    assert "<script>" in page
    assert "src=" not in page                # no external assets


def test_renders_real_tracer_output():
    tracer = Tracer()
    with tracer.span("experiment", id="t"):
        with tracer.span("job"):
            pass
        with tracer.span("job"):
            pass
    spans = tracer.tree()
    root = aggregate_spans(spans)
    assert root.children["experiment"].children["job"].count == 2
    assert "<svg" in svg_flamegraph(spans)
