#!/usr/bin/env python3
"""End-to-end benchmark of the DES energy-masking reproduction.

Run one workload, from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload campaign --seed 1 \\
        --seconds 10 --trace 0

or every workload, each in a fresh process, by leaving out
``--workload``.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` is the separate traced run that yields the
per-layer metrics.  ``--smoke`` runs the same code at a size that takes
seconds.  Metric names, units and directions come from ``BENCHMARK.json``
at the checkout root.

Each run gets its own directory under ``--runs-dir`` (default
``.bench_runs``) holding ``conf.json``, ``stdout.log``, ``metrics.json``,
``spans.json`` (traced runs), the daemon logs and manifests, and the
run's private compile cache (``REPRO_COMPILE_CACHE_DIR``), which is
deleted at the end.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every output check passed and no operation failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

import workloads  # noqa: E402
from measure import Run, breakdown  # noqa: E402

#: Span names whose summed self time is declared as ``<name>_share``, a
#: fraction of the traced wall.  Daemon spans are renamed to these in
#: ``serving``.
SHARES = ("lang.compile", "isa.assemble", "masking.apply_policy",
          "harness.compile_cache_store", "machine.schedule_record",
          "machine.plan_compile", "machine.replay", "harness.dispatch",
          "stats.welch_update", "stats.t_statistic", "stats.verdict",
          "service.boot", "service.http", "service.server",
          "service.queue_wait", "service.compile", "service.chunk",
          "service.job")

ENGINES = ("fast", "vector", "reference")


def source_digest() -> str:
    """SHA-256 over the program sources (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def isolate(run_dir: Path) -> None:
    """Pin the program's environment to its defaults and this run."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_COMPILE_CACHE_DIR"] = str(run_dir / "compile-cache")
    (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    tempfile.tempdir = None


# -- metrics ----------------------------------------------------------------

def latency_samples(run: Run) -> list[float]:
    """Client-observed latencies of the measured operations.

    For ``design_sweep`` the unit is a row -- one masking variant
    re-checked at every round count -- because single variants differ
    by 10x between 1 and 16 rounds and a median over them would sit on
    the boundary between two round counts.
    """
    ops = [op for op in run.ops if not op.get("traced")]
    if run.workload != "design_sweep":
        return [op["latency_s"] for op in ops if op["ok"]]
    rows: dict = {}
    for op in ops:
        rows.setdefault(op["row"], []).append(op)
    return [sum(op["latency_s"] for op in row) for row in rows.values()
            if all(op["ok"] for op in row)]


def timings(run: Run) -> dict:
    """Throughput and latency over the untraced operations.

    In a traced run these come from its untraced half.  They are the
    user-visible timings, but run to run they vary more than any bound
    the benchmark may set, so ``BENCHMARK.json`` declares them per-layer
    (see README, "Demoted").
    """
    ops = [op for op in run.ops if op["ok"] and not op.get("traced")]
    busy = run.untraced_steps_s if run.workload.startswith("serve") \
        else sum(op["latency_s"] for op in ops)
    samples = latency_samples(run)

    def latency(q: float) -> float:
        return float(np.percentile(samples, q)) if samples else math.nan

    def per_second(amount: float) -> float:
        return amount / busy if busy > 0 else math.nan

    values = {"traces_per_s": per_second(sum(op["traces"] for op in ops)),
              "latency_p50_s": latency(50), "latency_p90_s": latency(90),
              "latency_p99_s": latency(99), "latency_samples": len(samples),
              "ops_per_s": per_second(len(ops))}
    if ops and "cycles" in ops[0]:
        values["sim_cycles_per_s"] = per_second(
            sum(op["cycles"] for op in ops))
    return values


def end_to_end(run: Run) -> dict:
    """Every value an untraced run measures."""
    setup = statistics.median(run.setups) if run.setups else math.nan
    return dict({"setup_s": run.import_s + setup,
                 "peak_rss_mb": run.peak_rss_mb,
                 "setup_samples": len(run.setups),
                 "import_s": run.import_s, "window_s": run.window_s},
                **timings(run), **serving_latencies(run))


def trace_overhead(run: Run) -> float:
    """Traced / untraced wall of matched operation pairs, minus 1."""
    walls: dict = {}
    for op in run.ops:
        if op["ok"]:
            walls.setdefault(op["pair"], {})[bool(op.get("traced"))] = \
                op.get("wall_s", op["latency_s"])
    pairs = [pair for pair in walls.values() if len(pair) == 2]
    untraced = sum(pair[False] for pair in pairs)
    return sum(pair[True] for pair in pairs) / untraced - 1.0 \
        if untraced > 0 else 0.0


def per_layer(run: Run, spans: list[dict]) -> tuple[dict, dict]:
    """Every value a traced run measures, plus the raw breakdown
    (seconds per span name)."""
    found = breakdown(spans)
    wall = found["traced_wall_s"]
    counts = run.counts

    def share(seconds: float) -> float:
        return seconds / wall if wall > 0 else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    values = {"traced_wall_s": wall, "residual_s": found["residual_s"],
              "residual_share": share(found["residual_s"]),
              "unplaced_share": share(run.spans.unplaced_s),
              "machine.replay_busy_s": counts.get("machine.replay_busy_s",
                                                  0.0)}
    for name in SHARES:
        values[f"{name}_share"] = share(found["self_s"].get(name, 0.0))
    values["lang.compile_calls"] = found["calls"].get("lang.compile", 0)
    values["isa.assemble_calls"] = found["calls"].get("isa.assemble", 0)
    values["machine.traces"] = counts.get("machine.traces", 0)
    values["machine.sim_cycles"] = counts.get("machine.sim_cycles", 0)
    runs = {name[len("machine.engine_runs."):]: value
            for name, value in counts.items()
            if name.startswith("machine.engine_runs.")}
    for engine in ENGINES:
        values[f"machine.engine_runs.{engine}"] = runs.get(engine, 0)
    values["machine.fallback_ratio"] = ratio(
        sum(value for engine, value in runs.items()
            if engine.endswith("-fallback")), sum(runs.values()))
    for name in ("pool_leases", "pool_warm_acquires", "pool_cold_builds",
                 "pool_rebuilds", "job_retries", "job_failures"):
        values[f"harness.{name}"] = counts.get(f"harness.{name}", 0)
    values["harness.compile_cache_hit_ratio"] = ratio(
        counts.get("harness.compile_cache_hits", 0),
        counts.get("harness.compile_cache_lookups", 0))
    for name in ("hits", "misses", "coalesced"):
        values[f"service.verdict_cache_{name}"] = counts.get(
            f"service.verdict_cache_{name}", 0)
    values["service.verdict_cache_hit_ratio"] = ratio(
        values["service.verdict_cache_hits"],
        values["service.verdict_cache_hits"]
        + values["service.verdict_cache_misses"])
    values["service.rejections_429"] = counts.get("service.rejections_429",
                                                  0)
    values["trace_overhead_frac"] = trace_overhead(run)
    values.update(timings(run))
    return values, found


def serving_latencies(run: Run) -> dict:
    """p50 of the daemon's own latency and of the HTTP overhead (client
    minus daemon latency); empty for the library workloads."""
    done = [op for op in run.ops if op["ok"] and op.get("document")]
    if not done:
        return {}
    server = [op["document"]["latency_s"] for op in done]
    return {"service.server_latency_p50_s": statistics.median(server),
            "service.http_overhead_p50_s": statistics.median(
                op["latency_s"] - op["document"]["latency_s"]
                for op in done)}


# -- one workload -----------------------------------------------------------

def run_workload(arguments, declared: dict) -> int:
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_id = (f"{arguments.workload}-seed{arguments.seed}-"
              f"trace{arguments.trace}-{stamp}-{os.getpid()}")
    run_dir = Path(arguments.runs_dir).resolve() / run_id
    run_dir.mkdir(parents=True)
    isolate(run_dir)
    sys.path.insert(0, str(SRC))
    log = open(run_dir / "stdout.log", "w")

    def say(line: str = "") -> None:
        print(line, flush=True)
        log.write(line + "\n")

    run = Run(arguments.workload, arguments.seed, arguments.seconds,
              bool(arguments.trace), arguments.smoke, run_dir, run_id)
    sz = workloads.sizes(arguments.workload, arguments.smoke)
    import library
    import serving

    (run_dir / "conf.json").write_text(json.dumps({
        "workload": run.workload, "seed": run.seed,
        "seconds": run.seconds, "trace": int(run.traced),
        "smoke": run.smoke, "argv": sys.argv,
        "src_sha256": source_digest(), "sizes": vars(sz),
        "host": {"cpus": os.cpu_count(), "platform": platform.platform(),
                 "python": platform.python_version()},
        "started": stamp}, indent=2))
    say(f"workload {run.workload}  seed {run.seed}  seconds {run.seconds}"
        f"  trace {int(run.traced)}{'  smoke' if run.smoke else ''}")
    say(f"run_dir {run_dir}")
    try:
        if run.workload == "campaign":
            library.run_campaign(run, sz, SRC)
        elif run.workload == "design_sweep":
            library.run_design_sweep(run, sz, SRC)
        elif run.workload == "serve_mix":
            serving.run_serve_mix(run, sz, SRC)
        else:
            serving.run_serve_repeat(run, sz, SRC)
    except Exception as error:
        run.check(f"workload ran to completion ({type(error).__name__})",
                  False, str(error))
        log.write(traceback.format_exc())
        traceback.print_exc()
    finally:
        library.reset_pool()

    report: dict = {"workload": run.workload, "seed": run.seed,
                    "trace": int(run.traced), "smoke": run.smoke}
    if run.traced:
        spans = run.spans.records()
        values, found = per_layer(run, spans)
        kind = "per_layer"
        report["breakdown"] = found
        (run_dir / "spans.json").write_text(json.dumps(
            {"run_id": run_id, "workload": run.workload,
             "traced_wall_s": found["traced_wall_s"],
             "residual_s": found["residual_s"],
             "unplaced_s": run.spans.unplaced_s,
             "self_s": found["self_s"], "spans": spans}, indent=1))
    else:
        values = end_to_end(run)
        kind = "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in declared[kind]}
    for name in units:
        if not math.isfinite(values[name]):
            # Left out as null, never a made-up number; the run fails.
            run.check(f"{name} was measured", False, values[name])
            values[name] = None
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    report["reported"] = {name: value for name, value in values.items()
                          if name not in units}
    attempted = len(run.ops) + len(run.checks)
    failed = sum(1 for op in run.ops if not op["ok"]) \
        + sum(1 for check in run.checks if not check["ok"])
    report.update(metrics=metrics, attempted=attempted, failed=failed,
                  failed_fraction=failed / max(attempted, 1),
                  checks=run.checks, notes=run.notes)

    def note(name: str) -> str:
        if name.startswith("latency_p"):
            return f"  (n={len(latency_samples(run))})"
        if name == "setup_s":
            return f"  (median of {len(run.setups)} set-ups)"
        return ""

    say("")
    for name, metric in metrics.items():
        value = "unmeasured" if metric["value"] is None \
            else f"{metric['value']:.6g}"
        say(f"  {name:36s} {value:>16s} {metric['unit']}{note(name)}")
    for name, value in report["reported"].items():
        say(f"  {name:36s} {value:>16.6g}  (reported, not declared)"
            f"{note(name)}")
    say(f"  {'failed_fraction':36s} {report['failed_fraction']:>16.6g} "
        f"({failed}/{attempted})")
    for check in run.checks:
        if not check["ok"]:
            say(f"  CHECK FAILED: {check['name']} {check['detail']}")
    for note in run.notes:
        say(f"  note: {note}")
    say(f"  {sum(c['ok'] for c in run.checks)}/{len(run.checks)} output "
        "checks passed")
    correct = failed == 0
    (run_dir / "metrics.json").write_text(json.dumps(
        dict(report, correct=correct), indent=1, default=str))
    shutil.rmtree(run_dir / "compile-cache", ignore_errors=True)
    shutil.rmtree(run_dir / "tmp", ignore_errors=True)
    line = json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})
    log.write(line + "\n")
    log.close()
    print(line, flush=True)
    return 0 if correct else 1


def run_all(arguments) -> int:
    """Every workload in its own fresh process; one combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(arguments.seed),
                   "--seconds", str(arguments.seconds),
                   "--trace", str(arguments.trace),
                   "--runs-dir", arguments.runs_dir]
        if arguments.smoke:
            command.append("--smoke")
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        status = status or child.returncode
        lines = child.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= bool(result["correct"])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return status or (0 if combined["correct"] else 1)


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program sources at {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: the same code paths in seconds")
    parser.add_argument("--runs-dir", default=str(ROOT / ".bench_runs"),
                        help="parent of the per-run directories")
    arguments = parser.parse_args(argv)
    if arguments.workload is None:
        return run_all(arguments)
    return run_workload(arguments, declared)


if __name__ == "__main__":
    sys.exit(main())
