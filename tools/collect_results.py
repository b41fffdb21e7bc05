#!/usr/bin/env python3
"""Regenerate every experiment and archive the results.

Produces, under the output directory:

* ``<experiment-id>.json`` — full result (summary + series) per experiment;
* ``summary.csv``          — long-format (experiment, key, value) table;
* ``SUMMARY.txt``          — the human-readable report.

Every output is deterministic (wall times go to stdout only), so CI
regenerates the directory and fails on any ``git diff``.

This is the script behind EXPERIMENTS.md: run it after any change to the
energy model, compiler, or workloads and diff the outputs.

Usage:
    python tools/collect_results.py -o results/ [--only fig6,tab1]
    python tools/collect_results.py --fast    # skip the slowest (dpa, noise)
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness.experiments import EXPERIMENTS, run_experiment  # noqa: E402
from repro.harness.io import save_experiment_json, save_summary_csv  # noqa: E402

#: Experiments that take minutes rather than seconds.
SLOW = {"dpa", "ext-noise", "ext-sensitivity"}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("-o", "--output", default="results")
    parser.add_argument("--only",
                        help="comma-separated experiment ids to run")
    parser.add_argument("--fast", action="store_true",
                        help=f"skip the slow experiments ({sorted(SLOW)})")
    arguments = parser.parse_args()

    if arguments.only:
        selected = arguments.only.split(",")
        unknown = [e for e in selected if e not in EXPERIMENTS]
        if unknown:
            parser.error(f"unknown experiments: {unknown}")
    else:
        selected = sorted(EXPERIMENTS)
        if arguments.fast:
            selected = [e for e in selected if e not in SLOW]

    output_dir = Path(arguments.output)
    output_dir.mkdir(parents=True, exist_ok=True)
    results = []
    report_lines = []
    for experiment_id in selected:
        started = time.time()
        print(f"[{experiment_id}] running...", flush=True)
        result = run_experiment(experiment_id)
        elapsed = time.time() - started
        results.append(result)
        save_experiment_json(result,
                             output_dir / f"{experiment_id}.json",
                             include_series=True)
        report_lines.append(f"[{result.experiment_id}] {result.title}")
        for key, value in result.summary.items():
            formatted = f"{value:,.4f}" if isinstance(value, float) \
                else str(value)
            report_lines.append(f"    {key:<42} {formatted}")
        if result.notes:
            report_lines.append(f"    note: {result.notes}")
        report_lines.append("")
        print(f"[{experiment_id}] done in {elapsed:.1f}s")

    save_summary_csv(results, output_dir / "summary.csv")
    (output_dir / "SUMMARY.txt").write_text("\n".join(report_lines))
    print(f"\nwrote {len(results)} experiments to {output_dir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
