"""Plain-text reporting of experiment results (tables and series).

The paper's figures are line plots of per-cycle energy; with no display in
a CI environment we report the same data as fixed-width tables and
unicode sparklines.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def ascii_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render a fixed-width table."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(cells, widths)).rstrip()

    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in materialized)
    return "\n".join(lines)


_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


#: Glyph for buckets containing non-finite samples (NaN/inf).
_SPARK_HOLE = "·"


def sparkline(values: np.ndarray, width: int = 72) -> str:
    """Render a series as a unicode sparkline (the terminal's Fig. 6).

    The series is resampled to ``width`` buckets (bucket mean) and each
    bucket maps to one of eight block characters by value.  Buckets
    containing non-finite samples (NaN/inf) render as ``·`` and are
    excluded from the scale, so one bad sample cannot flatten — or crash —
    the rest of the line.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return ""
    if values.size > width:
        n = (values.size // width) * width
        buckets = values[:n].reshape(width, -1).mean(axis=1)
    else:
        buckets = values
    finite = np.isfinite(buckets)
    if not finite.any():
        return _SPARK_HOLE * buckets.size
    low = float(buckets[finite].min())
    high = float(buckets[finite].max())
    if high == low:
        return "".join(_SPARK_LEVELS[0] if ok else _SPARK_HOLE
                       for ok in finite)
    top = len(_SPARK_LEVELS) - 1
    with np.errstate(invalid="ignore"):
        scaled = (buckets - low) / (high - low) * top
    return "".join(
        _SPARK_LEVELS[min(top, max(0, int(round(level))))] if ok
        else _SPARK_HOLE
        for ok, level in zip(finite, scaled))
