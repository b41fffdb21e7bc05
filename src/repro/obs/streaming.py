"""One-pass, bounded-memory statistics for million-trace campaigns.

The attack statistics in :mod:`repro.attacks.stats` operate on a full
``(n_traces, n_cycles)`` matrix — fine for a hundred traces, hopeless for
10⁶.  This module provides the streaming twins: accumulators that fold
one trace at a time into O(n_cycles) state (independent of trace count)
and support an **associative merge**, so sharded accumulators built by
``run_jobs`` workers (or chunks of a long campaign) combine into exactly
the statistic a single pass would have produced:

* :class:`MeanAccumulator` — per-cycle running mean (difference-of-means
  DPA needs nothing more);
* :class:`WelfordAccumulator` — per-cycle mean + M2 (Welford 1962;
  merged with the Chan/Golub/LeVeque parallel update), giving sample
  variance with any ``ddof``;
* :class:`WelchTAccumulator` — two Welford groups and the per-cycle
  Welch *t*-statistic, semantics matching
  :func:`repro.attacks.stats.welch_t_statistic` plus the
  deterministic-simulator "definite leak" ±inf corner of
  :func:`repro.attacks.tvla.fixed_vs_random`;
* :class:`CorrelationAccumulator` — online per-cycle Pearson correlation
  between a scalar prediction and the trace (streaming CPA);
* :class:`DisclosureCurve` — the "traces-to-disclosure" headline metric:
  a statistic watermark sampled at trace-count checkpoints, and the
  minimum trace count from which the device stays disclosed.

Determinism contract: ``update`` order fixes the floating-point result
bit-for-bit; ``merge`` is mathematically associative and commutative but
reorders float accumulation, so a sharded campaign equals the one-pass
result only to documented tolerance (``MERGE_RTOL``).  The engine's
chunked streaming path (:func:`repro.harness.engine.run_stream`) updates
in submission order, so ``jobs=1`` and ``jobs=N`` are **bit-identical**
there — the same gate discipline as attribution snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

#: Relative tolerance within which a sharded ``merge`` result is
#: guaranteed to match the single-pass accumulation (float reassociation
#: only; the estimators are algebraically identical).
MERGE_RTOL = 1e-9


def _as_row(values) -> np.ndarray:
    row = np.asarray(values, dtype=np.float64)
    if row.ndim != 1:
        raise ValueError(f"expected a 1-D per-cycle vector, got shape "
                         f"{row.shape}")
    return row


class MeanAccumulator:
    """Per-cycle running mean over incrementally observed traces.

    Cycle count is fixed by the first ``update``; later traces must be
    cycle-aligned (the same contract the batch matrix stack enforces).
    """

    __slots__ = ("count", "mean")

    def __init__(self):
        self.count: int = 0
        self.mean: Optional[np.ndarray] = None

    def update(self, values) -> None:
        row = _as_row(values)
        if self.mean is None:
            self.count = 1
            self.mean = row.copy()
            return
        if row.shape != self.mean.shape:
            raise ValueError("trace is not cycle-aligned with accumulator")
        self.count += 1
        self.mean += (row - self.mean) / self.count

    def merge(self, other: "MeanAccumulator") -> None:
        """Fold ``other`` into this accumulator (associative)."""
        if other.mean is None:
            return
        if self.mean is None:
            self.count = other.count
            self.mean = other.mean.copy()
            return
        if other.mean.shape != self.mean.shape:
            raise ValueError("accumulators are not cycle-aligned")
        total = self.count + other.count
        self.mean += (other.mean - self.mean) * (other.count / total)
        self.count = total


class WelfordAccumulator:
    """Per-cycle streaming mean/variance (Welford; Chan parallel merge)."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self):
        self.count: int = 0
        self.mean: Optional[np.ndarray] = None
        self.m2: Optional[np.ndarray] = None

    def update(self, values) -> None:
        row = _as_row(values)
        if self.mean is None:
            self.count = 1
            self.mean = row.copy()
            self.m2 = np.zeros_like(row)
            return
        if row.shape != self.mean.shape:
            raise ValueError("trace is not cycle-aligned with accumulator")
        self.count += 1
        delta = row - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (row - self.mean)

    def merge(self, other: "WelfordAccumulator") -> None:
        """Fold ``other`` into this accumulator (Chan/Golub/LeVeque)."""
        if other.mean is None:
            return
        if self.mean is None:
            self.count = other.count
            self.mean = other.mean.copy()
            self.m2 = other.m2.copy()
            return
        if other.mean.shape != self.mean.shape:
            raise ValueError("accumulators are not cycle-aligned")
        total = self.count + other.count
        delta = other.mean - self.mean
        self.m2 += other.m2 + delta * delta \
            * (self.count * other.count / total)
        self.mean += delta * (other.count / total)
        self.count = total

    def variance(self, ddof: int = 1) -> np.ndarray:
        """Per-cycle variance; zeros when fewer than ``ddof + 1`` traces."""
        if self.m2 is None or self.count <= ddof:
            shape = self.m2.shape if self.m2 is not None else (0,)
            return np.zeros(shape)
        return self.m2 / (self.count - ddof)


def merged(a, b):
    """``merge(a, b)`` as a pure function: a fresh accumulator holding
    ``a`` folded with ``b``, leaving both inputs untouched.  Works for
    every accumulator class in this module (anything with ``merge``)."""
    out = type(a)()
    out.merge(a)
    out.merge(b)
    return out


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

    def merge(self, other: "WelchTAccumulator") -> None:
        self.groups[0].merge(other.groups[0])
        self.groups[1].merge(other.groups[1])

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
        g0, g1 = self.groups
        if g0.count < 2 or g1.count < 2:
            return np.zeros_like(self.mean_difference())
        diff = g1.mean - g0.mean
        denom = np.sqrt(g1.variance(ddof=1) / g1.count
                        + g0.variance(ddof=1) / g0.count)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(denom > 0, diff / denom, 0.0)
        if definite_leaks:
            # Exact-zero M2 in both groups means every trace of each
            # group was identical; a nonzero mean difference is then an
            # infinite-t leak in the limit.
            definite = (g0.m2 == 0) & (g1.m2 == 0) & (diff != 0)
            t = np.where(definite, np.copysign(np.inf, diff), t)
        return t

    def max_abs_t(self, definite_leaks: bool = True) -> float:
        t = self.t_statistic(definite_leaks=definite_leaks)
        return float(np.abs(t).max()) if t.size else 0.0


class CorrelationAccumulator:
    """Online per-cycle Pearson correlation: scalar prediction × trace.

    Accumulates the raw cross-moments (n, Σh, Σh², Σt, Σt², Σht per
    cycle) so the correlation is computed on demand in O(n_cycles).
    Matches :func:`repro.attacks.cpa.correlation_trace` semantics:
    zero-variance cycles (or predictions) read as correlation 0.
    """

    __slots__ = ("count", "sum_h", "sum_h2", "sum_t", "sum_t2", "sum_ht")

    def __init__(self):
        self.count: int = 0
        self.sum_h: float = 0.0
        self.sum_h2: float = 0.0
        self.sum_t: Optional[np.ndarray] = None
        self.sum_t2: Optional[np.ndarray] = None
        self.sum_ht: Optional[np.ndarray] = None

    def update(self, values, prediction: float) -> None:
        row = _as_row(values)
        h = float(prediction)
        if self.sum_t is None:
            self.sum_t = np.zeros_like(row)
            self.sum_t2 = np.zeros_like(row)
            self.sum_ht = np.zeros_like(row)
        elif row.shape != self.sum_t.shape:
            raise ValueError("trace is not cycle-aligned with accumulator")
        self.count += 1
        self.sum_h += h
        self.sum_h2 += h * h
        self.sum_t += row
        self.sum_t2 += row * row
        self.sum_ht += h * row

    def merge(self, other: "CorrelationAccumulator") -> None:
        if other.sum_t is None:
            return
        if self.sum_t is None:
            self.count = other.count
            self.sum_h = other.sum_h
            self.sum_h2 = other.sum_h2
            self.sum_t = other.sum_t.copy()
            self.sum_t2 = other.sum_t2.copy()
            self.sum_ht = other.sum_ht.copy()
            return
        if other.sum_t.shape != self.sum_t.shape:
            raise ValueError("accumulators are not cycle-aligned")
        self.count += other.count
        self.sum_h += other.sum_h
        self.sum_h2 += other.sum_h2
        self.sum_t += other.sum_t
        self.sum_t2 += other.sum_t2
        self.sum_ht += other.sum_ht

    def correlation(self) -> np.ndarray:
        """Per-cycle Pearson ρ; zeros where either side is constant."""
        if self.sum_t is None or self.count < 2:
            return np.zeros(self.sum_t.shape if self.sum_t is not None
                            else (0,))
        n = self.count
        h_ss = n * self.sum_h2 - self.sum_h * self.sum_h
        t_ss = n * self.sum_t2 - self.sum_t * self.sum_t
        # Float cancellation can push a constant series epsilon-negative.
        h_ss = max(h_ss, 0.0)
        t_ss = np.maximum(t_ss, 0.0)
        numerator = n * self.sum_ht - self.sum_h * self.sum_t
        denominator = np.sqrt(h_ss * t_ss)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = np.where(denominator > 1e-12, numerator / denominator, 0.0)
        return rho


@dataclass
class DisclosureCurve:
    """Traces-to-disclosure: a statistic sampled at trace-count checkpoints.

    ``mode="t"`` treats ``value >= threshold`` as disclosed (Welch-|t|
    against the TVLA 4.5 bar); ``mode="rank"`` treats
    ``value <= threshold`` as disclosed (key rank dropping to 0).  The
    headline number, :attr:`disclosure_traces`, is the smallest recorded
    trace count from which the device is disclosed *at every later
    checkpoint too* — a rank that luckily touches 0 once and bounces
    back is not a disclosure.
    """

    threshold: float
    mode: str = "t"
    checkpoints: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in ("t", "rank"):
            raise ValueError(f"mode must be 't' or 'rank', got {self.mode!r}")

    def record(self, traces: int, value: float) -> None:
        if self.checkpoints and traces <= self.checkpoints[-1]:
            raise ValueError("checkpoints must be strictly increasing")
        self.checkpoints.append(int(traces))
        self.values.append(float(value))

    def disclosed(self, value: float) -> bool:
        if self.mode == "t":
            return value >= self.threshold
        return value <= self.threshold

    @property
    def disclosure_traces(self) -> Optional[int]:
        """Minimum recorded trace count of sustained disclosure, or
        ``None`` when the device never disclosed within the budget."""
        first: Optional[int] = None
        for traces, value in zip(self.checkpoints, self.values):
            if self.disclosed(value):
                if first is None:
                    first = traces
            else:
                first = None
        return first

    @property
    def final_value(self) -> float:
        return self.values[-1] if self.values else 0.0

    def to_dict(self) -> dict:
        values = [v if np.isfinite(v) else (float("inf") if v > 0
                                            else float("-inf"))
                  for v in self.values]
        return {
            "mode": self.mode,
            "threshold": self.threshold,
            "checkpoints": list(self.checkpoints),
            # JSON has no inf; the manifest writer stringifies them.
            "values": [v if np.isfinite(v) else repr(v) for v in values],
            "disclosure_traces": self.disclosure_traces,
        }
