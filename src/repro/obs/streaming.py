"""One-pass, bounded-memory statistics for million-trace campaigns.

The attack statistics in :mod:`repro.attacks.stats` operate on a full
``(n_traces, n_cycles)`` matrix — fine for a hundred traces, hopeless for
10⁶.  The fixed-vs-random TVLA campaign
(:func:`repro.attacks.tvla.streaming_assess_des_program`) instead folds
one trace at a time into O(n_cycles) state, independent of trace count:

* :class:`WelfordAccumulator` — per-cycle mean + M2 (Welford 1962),
  giving sample variance with any ``ddof``;
* :class:`WelchTAccumulator` — two Welford groups and the per-cycle
  Welch *t*-statistic, semantics matching
  :func:`repro.attacks.stats.welch_t_statistic` plus the
  deterministic-simulator "definite leak" ±inf corner of
  :func:`repro.attacks.tvla.fixed_vs_random`;
* :class:`DisclosureCurve` — the "traces-to-disclosure" headline metric:
  a Welch-|t| watermark sampled at trace-count checkpoints, and the
  minimum trace count from which the device stays disclosed.

Determinism contract: ``update`` order fixes the floating-point result
bit-for-bit.  The engine's chunked streaming path
(:func:`repro.harness.engine.run_stream`) updates in submission order, so
``jobs=1`` and ``jobs=N`` are **bit-identical** — the same gate
discipline as attribution snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


def _as_row(values) -> np.ndarray:
    row = np.asarray(values, dtype=np.float64)
    if row.ndim != 1:
        raise ValueError(f"expected a 1-D per-cycle vector, got shape "
                         f"{row.shape}")
    return row


class WelfordAccumulator:
    """Per-cycle streaming mean/variance (Welford)."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self):
        self.count: int = 0
        self.mean: Optional[np.ndarray] = None
        self.m2: Optional[np.ndarray] = None

    def update(self, values) -> None:
        """Fold one trace in, one cycle block
        (:func:`~repro.attacks.stats.cycle_blocks`) at a time: the
        temporaries are block-sized, the values those of the whole-row
        expressions."""
        from ..attacks.stats import cycle_blocks
        from ..machine.scoring import SCORE_BLOCK

        row = _as_row(values)
        if self.mean is None:
            self.count = 1
            self.mean = row.copy()
            self.m2 = np.zeros_like(row)
            return
        if row.shape != self.mean.shape:
            raise ValueError("trace is not cycle-aligned with accumulator")
        self.count += 1
        for start, stop in cycle_blocks(row.shape[0], SCORE_BLOCK):
            part, mean = row[start:stop], self.mean[start:stop]
            delta = part - mean
            mean += delta / self.count
            self.m2[start:stop] += delta * (part - mean)

    def variance(self, ddof: int = 1) -> np.ndarray:
        """Per-cycle variance; zeros when fewer than ``ddof + 1`` traces."""
        if self.m2 is None or self.count <= ddof:
            shape = self.m2.shape if self.m2 is not None else (0,)
            return np.zeros(shape)
        return self.m2 / (self.count - ddof)


class WelchTAccumulator:
    """Streaming per-cycle Welch *t* between two trace populations.

    ``update(trace, group)`` files a trace under group 0 or 1; the
    statistic matches :func:`repro.attacks.stats.welch_t_statistic`
    (``mean(group 1) − mean(group 0)`` over the pooled standard error,
    zeros until both groups hold ≥ 2 traces).  :meth:`t_statistic` with
    ``definite_leaks=True`` additionally reports the deterministic-
    simulator corner as ±inf: both groups at exactly zero variance with
    different means is a definite leak, not the 0 the plain formula
    yields (same rule as :func:`repro.attacks.tvla.fixed_vs_random`).
    """

    __slots__ = ("groups",)

    def __init__(self):
        self.groups = (WelfordAccumulator(), WelfordAccumulator())

    @property
    def count(self) -> int:
        return self.groups[0].count + self.groups[1].count

    def update(self, values, group: int) -> None:
        if group not in (0, 1):
            raise ValueError(f"group must be 0 or 1, got {group}")
        self.groups[group].update(values)

    def mean_difference(self) -> np.ndarray:
        """Per-cycle ``mean(group 1) − mean(group 0)``; zeros if a group
        is empty (difference-of-means semantics)."""
        g0, g1 = self.groups
        if g0.mean is None or g1.mean is None:
            for g in (g0, g1):
                if g.mean is not None:
                    return np.zeros_like(g.mean)
            return np.zeros(0)
        return g1.mean - g0.mean

    def t_statistic(self, definite_leaks: bool = False) -> np.ndarray:
        """Per-cycle Welch *t*.

        Evaluates ``diff / sqrt(var1/n1 + var0/n0)`` (0 where the pooled
        error is not positive) operation by operation, one cycle block
        (:func:`~repro.attacks.stats.cycle_blocks`) at a time into the
        output, so the statistic at a checkpoint costs the output row
        plus a few blocks; the values are those of the plain
        expression.
        """
        g0, g1 = self.groups
        if g0.count < 2 or g1.count < 2:
            return np.zeros_like(self.mean_difference())
        t = np.zeros_like(g0.mean)
        for window in self._windows():
            self._t_block(window, t[window], definite_leaks)
        return t

    def _windows(self):
        from ..attacks.stats import cycle_blocks
        from ..machine.scoring import SCORE_BLOCK

        for start, stop in cycle_blocks(self.groups[0].mean.shape[0],
                                        SCORE_BLOCK):
            yield slice(start, stop)

    def _t_block(self, window: slice, out: np.ndarray,
                 definite_leaks: bool) -> None:
        """Welch *t* of one cycle window into ``out`` (zeros on entry)."""
        g0, g1 = self.groups
        diff = np.subtract(g1.mean[window], g0.mean[window])
        denom = np.divide(g1.m2[window], g1.count - 1)
        np.divide(denom, g1.count, out=denom)
        error0 = np.divide(g0.m2[window], g0.count - 1)
        np.divide(error0, g0.count, out=error0)
        np.add(denom, error0, out=denom)
        np.sqrt(denom, out=denom)
        np.divide(diff, denom, out=out, where=denom > 0)
        if definite_leaks:
            # Exact-zero M2 in both groups means every trace of each
            # group was identical; a nonzero mean difference is then
            # an infinite-t leak in the limit.
            mask = g0.m2[window] == 0
            mask &= g1.m2[window] == 0
            mask &= diff != 0
            np.copysign(np.inf, diff, out=out, where=mask)

    def max_abs_t(self, definite_leaks: bool = True) -> float:
        """``max |t|`` over the cycles, the largest of the per-block
        maxima, so no ``t`` row is built."""
        g0, g1 = self.groups
        if g0.count < 2 or g1.count < 2:
            return 0.0
        maxima = []
        for window in self._windows():
            out = np.zeros(window.stop - window.start)
            self._t_block(window, out, definite_leaks)
            maxima.append(np.abs(out, out=out).max())
        return float(np.max(maxima)) if maxima else 0.0


@dataclass
class DisclosureCurve:
    """Traces-to-disclosure: Welch-|t| sampled at trace-count checkpoints.

    A checkpoint is disclosed when its value reaches ``threshold`` (the
    TVLA 4.5 bar).  The headline number, :attr:`disclosure_traces`, is
    the smallest recorded trace count from which the device is disclosed
    *at every later checkpoint too* — a |t| that touches the bar once and
    falls back is not a disclosure.  ``mode`` is always ``"t"``.
    """

    threshold: float
    mode: str = "t"
    checkpoints: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.mode != "t":
            raise ValueError(f"mode must be 't', got {self.mode!r}")

    def record(self, traces: int, value: float) -> None:
        if self.checkpoints and traces <= self.checkpoints[-1]:
            raise ValueError("checkpoints must be strictly increasing")
        self.checkpoints.append(int(traces))
        self.values.append(float(value))

    @property
    def disclosure_traces(self) -> Optional[int]:
        """Minimum recorded trace count of sustained disclosure, or
        ``None`` when the device never disclosed within the budget."""
        first: Optional[int] = None
        for traces, value in zip(self.checkpoints, self.values):
            if value >= self.threshold:
                if first is None:
                    first = traces
            else:
                first = None
        return first

    @property
    def final_value(self) -> float:
        return self.values[-1] if self.values else 0.0
