"""Report formatting."""

import numpy as np

from repro.harness.report import ascii_table, sparkline


def test_ascii_table_alignment():
    table = ascii_table(["name", "value"], [("x", 1), ("longer", 22)])
    lines = table.splitlines()
    assert lines[0].startswith("name")
    assert "----" in lines[1]
    assert len(lines) == 4
    # Columns align: 'value' header position matches data.
    assert lines[0].index("value") == lines[2].index("1")


def test_ascii_table_empty_rows():
    table = ascii_table(["a"], [])
    assert table.splitlines()[0] == "a"


def test_sparkline_shape_and_range():
    line = sparkline(np.linspace(0, 1, 200), width=40)
    assert len(line) == 40
    assert line[0] == "\u2581"   # lowest block
    assert line[-1] == "\u2588"  # highest block


def test_sparkline_flat_series():
    line = sparkline(np.ones(10))
    assert set(line) == {"\u2581"}
    assert len(line) == 10


def test_sparkline_empty():
    assert sparkline(np.array([])) == ""


def test_sparkline_short_series_not_resampled():
    assert len(sparkline(np.array([1.0, 2.0, 3.0]), width=50)) == 3


def test_sparkline_nonfinite_samples_render_as_holes():
    values = np.array([1.0, np.nan, 3.0, np.inf, 2.0, -np.inf])
    line = sparkline(values, width=10)
    assert len(line) == 6
    assert line[1] == "·" and line[3] == "·" and line[5] == "·"
    # Finite samples still scale normally: the scale ignores the holes.
    assert line[0] == "▁"
    assert line[2] == "█"


def test_sparkline_all_nonfinite():
    assert sparkline(np.array([np.nan, np.inf])) == "··"


def test_sparkline_flat_finite_with_holes():
    line = sparkline(np.array([2.0, np.nan, 2.0]))
    assert line == "▁·▁"
