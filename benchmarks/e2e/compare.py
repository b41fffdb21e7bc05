#!/usr/bin/env python3
"""Compare two sets of end-to-end runs, metric by metric.

::

    python3 benchmarks/e2e/compare.py \\
        --base parent/.bench_runs/*/metrics.json \\
        --head .bench_runs/*/metrics.json [--claim campaign:traces_per_s]

Each side is N untraced runs (the ``metrics.json`` every run writes).
A run that is not ``correct`` or has failed operations is left out of
every statistic and counted per workload; the exit status is 1 when the
head side has more such runs than the base side.

For each workload row and each end-to-end metric of ``BENCHMARK.json``
it prints both sides' median and quartiles and a verdict:

* ``regressed`` -- the head median is worse than the base median by more
  than the metric's bound;
* ``unresolved`` -- either side's spread (interquartile range over
  median) is wider than the bound, so "no regression" cannot be told
  from noise -- unless every head run is better than every base run;
* ``ok`` otherwise.

The demoted timings -- per-layer metrics an untraced run also reports,
such as ``traces_per_s`` -- follow with their quartiles, change and
spreads but no verdict: they have no bound.

``--claim WORKLOAD:METRIC`` applies the rule for claiming a gain to any
declared metric: the head wins at least 9/10 of the base/head pairs
(ties count for neither; runs pair by seed, else in order) and the
medians differ by more than the base side's interquartile range.  Exit
status 1 when anything regressed or is unresolved, or a claim is not
met.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Win fraction a claimed gain needs.
CLAIM_WINS = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def worse_by(base: float, head: float, better: str) -> float:
    """How much worse ``head`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    change = (head - base) / abs(base) if base else 0.0
    return change if better == "lower" else -change


def beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def judge(base: list[float], head: list[float], better: str,
          bound: float) -> dict:
    """Verdict for one metric on one workload row."""
    base_q, head_q = quartiles(base), quartiles(head)
    worse = worse_by(base_q[1], head_q[1], better)
    noisy = max(spread(base), spread(head)) > bound
    dominates = all(beats(h, b, better) for h in head for b in base)
    if worse > bound:
        verdict = "regressed"
    elif noisy and not dominates:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"base": base_q, "head": head_q, "worse_by": worse,
            "verdict": verdict}


def claim(base: list[float], head: list[float], better: str) -> dict:
    """The gain rule: ≥ 9/10 pair wins and a median gap wider than the
    base side's interquartile range."""
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if beats(h, b, better))
    q1, median_base, q3 = quartiles(base)
    gap = quartiles(head)[1] - median_base
    gap = -gap if better == "lower" else gap
    met = bool(pairs) and wins >= CLAIM_WINS * len(pairs) and gap > q3 - q1
    return {"wins": wins, "pairs": len(pairs), "gap": gap,
            "base_iqr": q3 - q1, "met": met}


def load(paths: list[str]) -> tuple[dict[str, list[dict]], dict[str, int]]:
    """Untraced runs by workload, each ``{seed, values}``, and the number
    of failed runs by workload.

    ``values`` holds the declared metrics and the reported extras.  A
    failed run -- ``correct`` false or any failed operation -- is only
    counted: its numbers may be missing or describe partial work.
    """
    runs: dict[str, list[dict]] = {}
    failed: dict[str, int] = {}
    for path in paths:
        report = json.loads(Path(path).read_text())
        if report.get("trace"):
            continue
        workload = report["workload"]
        if not report.get("correct") or report.get("failed", 0) > 0:
            failed[workload] = failed.get(workload, 0) + 1
            continue
        values = dict(report.get("reported", {}))
        values.update((name, metric["value"])
                      for name, metric in report["metrics"].items())
        runs.setdefault(workload, []).append({"seed": report["seed"],
                                              "values": values})
    return runs, failed


def paired(base_runs: list[dict], head_runs: list[dict],
           metric: str) -> tuple[list[float], list[float]]:
    """Both sides' values, ordered so equal seeds line up."""
    base_seeds = [run["seed"] for run in base_runs]
    head_seeds = [run["seed"] for run in head_runs]
    if sorted(base_seeds) == sorted(head_seeds):
        base_runs = sorted(base_runs, key=lambda run: run["seed"])
        head_runs = sorted(head_runs, key=lambda run: run["seed"])
    return ([run["values"][metric] for run in base_runs],
            [run["values"][metric] for run in head_runs])


def _row(workload: str, name: str, result: dict, verdict: str) -> str:
    return (f"{workload:14s} {name:15s} "
            + " ".join(f"{'/'.join(f'{v:.4g}' for v in result[side])}"
                       .rjust(32) for side in ("base", "head"))
            + f" {result['worse_by']:+8.1%}  {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True,
                        help="metrics.json files of the parent's runs")
    parser.add_argument("--head", nargs="+", required=True,
                        help="metrics.json files of the change's runs")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="WORKLOAD:METRIC")
    arguments = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    (base, base_failed), (head, head_failed) = \
        load(arguments.base), load(arguments.head)
    status = 0
    for workload in sorted(set(base_failed) | set(head_failed)):
        more = head_failed.get(workload, 0) > base_failed.get(workload, 0)
        status |= more
        print(f"{workload}: failed runs left out: base "
              f"{base_failed.get(workload, 0)}, head "
              f"{head_failed.get(workload, 0)}"
              f"{'  -- head fails more' if more else ''}")
    print(f"{'workload':14s} {'metric':15s} {'base q1/med/q3':>32s} "
          f"{'head q1/med/q3':>32s} {'worse':>8s}  verdict")
    workloads = sorted(set(base) & set(head))
    for workload in workloads:
        for metric in declared["end_to_end"]:
            b, h = paired(base[workload], head[workload], metric["name"])
            result = judge(b, h, metric["better"], metric["bound"])
            status |= result["verdict"] != "ok"
            print(_row(workload, metric["name"], result, result["verdict"])
                  + f"  (n={len(b)}/{len(h)}, bound {metric['bound']:.0%})")
    demoted = [metric for metric in declared["per_layer"]
               if all(metric["name"] in run["values"]
                      for side in (base, head) for workload in workloads
                      for run in side[workload])]
    for workload in workloads:
        for metric in demoted:
            b, h = paired(base[workload], head[workload], metric["name"])
            result = judge(b, h, metric["better"], float("inf"))
            print(_row(workload, metric["name"], result, "no bound")
                  + f"  (spread {spread(b):.0%}/{spread(h):.0%})")
    for missing in sorted(set(base) ^ set(head)):
        print(f"{missing}: runs on one side only")
        status = 1
    directions = {metric["name"]: metric["better"]
                  for metric in declared["end_to_end"] + demoted}
    for text in arguments.claim:
        workload, _, name = text.partition(":")
        if name not in directions or not base.get(workload) \
                or not head.get(workload):
            print(f"claim {text}: no such metric, or no runs to judge it on")
            status = 1
            continue
        b, h = paired(base[workload], head[workload], name)
        result = claim(b, h, directions[name])
        status |= not result["met"]
        print(f"claim {text}: {'MET' if result['met'] else 'NOT MET'} -- "
              f"wins {result['wins']}/{result['pairs']}, median gap "
              f"{result['gap']:.4g} vs base IQR {result['base_iqr']:.4g}")
    return status


if __name__ == "__main__":
    sys.exit(main())
