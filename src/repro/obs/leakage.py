"""Leakage telemetry: per-region differential energy as a budget check.

The paper's security argument is a *flat differential trace*: two runs
with different keys (Figs. 7-9) or plaintexts (Figs. 10-11) consume
cycle-identical energy over the masked regions.  This module turns that
claim into first-class telemetry:

* phase markers (:mod:`repro.programs.markers`) delimit the named
  **regions** of a DES run — the initial permutation, the PC-1 key
  permutation, each round, the final permutation — and say which of them
  the masking pass claims to protect;
* :func:`assess_pair` scores a differential trace per region (max/mean
  absolute difference, number of leaking cycles) against a **leakage
  budget** in pJ: any *protected* region whose differential exceeds the
  budget is flagged as a violation;
* :func:`assess_population` runs the TVLA-style statistics of
  :mod:`repro.attacks.stats` (Welch t, SNR) over a trace matrix, region
  by region, against a t-budget.

A :class:`LeakageReport` serializes into the run manifest (schema v2
``leakage`` section), publishes gauges/counters to the metrics registry,
and renders as the verdict table of ``repro obs report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..programs.markers import (M_FP_END, M_FP_START, M_IP_END, M_IP_START,
                                M_KEYPERM_END, M_KEYPERM_START, M_ROUND_BASE)

#: Default leakage budget: the paper's masked differentials are exactly
#: flat, so anything above float-noise level in a protected region is a
#: genuine residual signal.
DEFAULT_BUDGET_PJ = 1e-6

#: Default Welch-t budget for population assessments (the classic TVLA
#: pass/fail threshold).
DEFAULT_BUDGET_T = 4.5


@dataclass(frozen=True)
class Region:
    """A named cycle window ``[start, end)`` with a protection claim."""

    name: str
    start: int
    end: int
    #: True if the masking policy claims this region's energy is
    #: data-independent (the key permutation and the cipher rounds).
    protected: bool


def regions_from_markers(markers: Sequence[tuple[int, int]],
                         n_cycles: int) -> list[Region]:
    """Build the DES region list from a run's (cycle, value) markers.

    Protected regions are *structurally* defined: the key permutation and
    every round are what the paper's selective masking secures, so an
    unmasked run is assessed against the same claims — that is exactly
    what makes its budget check fail.
    """
    cycles_of: dict[int, list[int]] = {}
    for cycle, value in markers:
        cycles_of.setdefault(value, []).append(cycle)

    def first(value: int) -> Optional[int]:
        cycles = cycles_of.get(value)
        return cycles[0] if cycles else None

    def first_after(value: int, start: int) -> Optional[int]:
        for cycle in cycles_of.get(value, ()):
            if cycle > start:
                return cycle
        return None

    regions: list[Region] = []

    def paired(name: str, start_value: int, end_value: int,
               protected: bool) -> None:
        start = first(start_value)
        if start is None:
            return
        end = first_after(end_value, start)
        regions.append(Region(name, start,
                              end if end is not None else n_cycles,
                              protected))

    paired("ip", M_IP_START, M_IP_END, protected=False)
    paired("keyperm", M_KEYPERM_START, M_KEYPERM_END, protected=True)

    round_starts = sorted((cycles[0], value - M_ROUND_BASE)
                          for value, cycles in cycles_of.items()
                          if M_ROUND_BASE <= value < M_ROUND_BASE + 16)
    fp_start = first(M_FP_START)
    for position, (start, round_index) in enumerate(round_starts):
        if position + 1 < len(round_starts):
            end = round_starts[position + 1][0]
        elif fp_start is not None and fp_start > start:
            end = fp_start
        else:
            end = n_cycles
        regions.append(Region(f"round{round_index:02d}", start, end,
                              protected=True))

    paired("fp", M_FP_START, M_FP_END, protected=False)
    regions.sort(key=lambda region: region.start)
    return regions


@dataclass
class RegionAssessment:
    """Leakage verdict for one region of a differential trace."""

    region: str
    start: int
    end: int
    protected: bool
    cycles: int
    max_abs_diff_pj: float
    mean_abs_diff_pj: float
    #: Cycles whose absolute differential exceeds the budget.
    leaking_cycles: int
    passed: bool
    #: Population statistics (None for two-trace assessments).
    welch_t_max: Optional[float] = None
    snr_max: Optional[float] = None

    def to_dict(self) -> dict:
        record = {
            "region": self.region, "start": self.start, "end": self.end,
            "protected": self.protected, "cycles": self.cycles,
            "max_abs_diff_pj": self.max_abs_diff_pj,
            "mean_abs_diff_pj": self.mean_abs_diff_pj,
            "leaking_cycles": self.leaking_cycles, "passed": self.passed,
        }
        if self.welch_t_max is not None:
            record["welch_t_max"] = self.welch_t_max
        if self.snr_max is not None:
            record["snr_max"] = self.snr_max
        return record


@dataclass
class LeakageReport:
    """Per-region leakage assessment of one differential (or population)."""

    budget_pj: float
    regions: list[RegionAssessment] = field(default_factory=list)
    #: Set for population assessments (Welch-t budget).
    budget_t: Optional[float] = None
    label: str = ""

    @property
    def passed(self) -> bool:
        """True iff every *protected* region stays inside the budget."""
        return all(assessment.passed for assessment in self.regions
                   if assessment.protected)

    @property
    def violations(self) -> list[RegionAssessment]:
        return [assessment for assessment in self.regions
                if assessment.protected and not assessment.passed]

    def to_dict(self) -> dict:
        record = {
            "budget_pj": self.budget_pj,
            "passed": self.passed,
            "violations": len(self.violations),
            "regions": [assessment.to_dict() for assessment in self.regions],
        }
        if self.budget_t is not None:
            record["budget_t"] = self.budget_t
        if self.label:
            record["label"] = self.label
        return record

    def publish_metrics(self, registry) -> None:
        """Gauges/counters for the metrics registry (manifest v2 fields)."""
        diff_gauge = registry.gauge(
            "leakage_region_max_abs_diff_pj",
            "peak absolute differential energy per region (pJ)")
        pass_gauge = registry.gauge(
            "leakage_region_passed",
            "1 if the region stayed within the leakage budget")
        for assessment in self.regions:
            diff_gauge.add(assessment.max_abs_diff_pj,
                           region=assessment.region)
            pass_gauge.add(1.0 if assessment.passed else 0.0,
                           region=assessment.region)
        registry.counter(
            "leakage_budget_violations",
            "protected regions whose differential exceeded the budget") \
            .inc(len(self.violations))

    def render(self) -> str:
        """ASCII verdict table."""
        lines = [f"leakage budget: {self.budget_pj:g} pJ"
                 + (f", |t| < {self.budget_t:g}"
                    if self.budget_t is not None else "")
                 + (f"  [{self.label}]" if self.label else "")]
        header = (f"  {'region':<10} {'cycles':>7} {'protected':>9} "
                  f"{'max|Δ| pJ':>12} {'leaking':>8}  verdict")
        lines.append(header)
        for a in self.regions:
            verdict = "PASS" if a.passed else "FAIL"
            if not a.protected:
                verdict = "-" if a.max_abs_diff_pj > self.budget_pj \
                    else "flat"
            extra = f"  t={a.welch_t_max:.1f}" \
                if a.welch_t_max is not None else ""
            lines.append(f"  {a.region:<10} {a.cycles:>7} "
                         f"{'yes' if a.protected else 'no':>9} "
                         f"{a.max_abs_diff_pj:>12.4g} "
                         f"{a.leaking_cycles:>8}  {verdict}{extra}")
        lines.append(f"  verdict: "
                     f"{'PASS' if self.passed else 'FAIL'} "
                     f"({len(self.violations)} violation(s) in "
                     f"{sum(1 for a in self.regions if a.protected)} "
                     f"protected region(s))")
        return "\n".join(lines)


def _assess_window(absolute: np.ndarray, region: Region,
                   budget_pj: float) -> RegionAssessment:
    """Score ``region`` of an absolute differential trace |Δ|."""
    window = absolute[region.start:region.end]
    max_abs = float(window.max()) if window.size else 0.0
    mean_abs = float(window.mean()) if window.size else 0.0
    leaking = int((window > budget_pj).sum())
    passed = (not region.protected) or max_abs <= budget_pj
    return RegionAssessment(region=region.name, start=region.start,
                            end=region.end, protected=region.protected,
                            cycles=int(window.shape[0]),
                            max_abs_diff_pj=max_abs,
                            mean_abs_diff_pj=mean_abs,
                            leaking_cycles=leaking, passed=passed)


def assess_pair(trace_a, trace_b, budget_pj: float = DEFAULT_BUDGET_PJ,
                regions: Optional[list[Region]] = None,
                label: str = "") -> LeakageReport:
    """Assess the differential of two cycle-aligned traces region by region.

    ``trace_a``/``trace_b`` are :class:`~repro.energy.trace.EnergyTrace`
    instances (the regions default to ``trace_a``'s markers).  This is the
    two-run form of the paper's figures: same program, two keys or two
    plaintexts.
    """
    diff = np.asarray(trace_a.diff(trace_b), dtype=np.float64)
    absolute = np.abs(diff, out=diff)  # a fresh row: |Δ| in place
    if regions is None:
        regions = regions_from_markers(trace_a.markers, absolute.shape[0])
    report = LeakageReport(budget_pj=budget_pj, label=label)
    for region in regions:
        report.regions.append(_assess_window(absolute, region, budget_pj))
    return report


def assess_population(traces, partition,
                      markers: Sequence[tuple[int, int]],
                      budget_t: float = DEFAULT_BUDGET_T,
                      budget_pj: float = DEFAULT_BUDGET_PJ,
                      regions: Optional[list[Region]] = None,
                      label: str = "") -> LeakageReport:
    """TVLA-style population assessment over a trace matrix.

    ``traces`` is ``(n_traces, n_cycles)``, ``partition`` a 0/1 vector
    (e.g. a selection-function prediction); per region the report carries
    the peak Welch-t and SNR alongside the difference-of-means, and a
    protected region passes only while ``max |t| < budget_t``.  The
    statistics come from one pass per cycle block
    (:func:`~repro.attacks.stats.partition_statistics`), so the working
    set is the three per-cycle results plus a few blocks.
    """
    from ..attacks.stats import partition_statistics

    traces = np.asarray(traces, dtype=np.float64)
    diff, t, snr = partition_statistics(traces, partition)
    np.abs(diff, out=diff)
    np.abs(t, out=t)
    if regions is None:
        regions = regions_from_markers(markers, traces.shape[1])
    report = LeakageReport(budget_pj=budget_pj, budget_t=budget_t,
                           label=label)
    for region in regions:
        assessment = _assess_window(diff, region, budget_pj)
        window_t = t[region.start:region.end]
        window_snr = snr[region.start:region.end]
        assessment.welch_t_max = float(window_t.max()) \
            if window_t.size else 0.0
        assessment.snr_max = float(window_snr.max()) \
            if window_snr.size else 0.0
        assessment.passed = (not region.protected) \
            or assessment.welch_t_max < budget_t
        report.regions.append(assessment)
    return report
