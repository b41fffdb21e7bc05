#!/usr/bin/env python3
"""Benchmark the toolchain's wall-time trajectory and police regressions.

Times the same workloads as ``benchmarks/test_perf_simulator.py`` —
compile, assemble, cycle-accurate simulation with energy, the functional
interpreter, cold schedule recording, and the 16-trace parallel
collection — with plain ``perf_counter`` (no pytest-benchmark
dependency), then:

* writes ``BENCH_<sha>.json`` through the observability manifest writer,
  so every CI run leaves a machine-readable performance record next to
  its provenance (toolchain fingerprint, platform, config);
* compares against the committed ``benchmarks/baseline.json`` and exits
  non-zero when any benchmark regresses more than ``--max-regress``
  (default 25 %) in *calibrated* wall time.

Cross-machine calibration: the baseline records how long a fixed
pure-Python spin loop took on the machine that produced it.  Measured
times are scaled by ``baseline_spin / current_spin`` — clamped to
[0.5, 3.0] so a wildly different host can never hide (or fake) a real
regression — before the comparison.

Usage:
    python tools/bench_trajectory.py                      # compare + BENCH json
    python tools/bench_trajectory.py --update-baseline    # re-pin the baseline
    python tools/bench_trajectory.py --out artifacts/ --max-regress 0.25
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro import obs  # noqa: E402
from repro.obs.streaming import WelchTAccumulator  # noqa: E402
from repro.attacks.dpa import collect_traces, random_plaintexts  # noqa: E402
from repro.harness.runner import des_run  # noqa: E402
from repro.machine.fastpath import (ensure_schedule,  # noqa: E402
                                    record_schedule)
from repro.isa.assembler import assemble  # noqa: E402
from repro.lang.compiler import compile_source  # noqa: E402
from repro.machine.interpreter import run_functional  # noqa: E402
from repro.machine.memory import Memory  # noqa: E402
from repro.machine.pipeline import Pipeline  # noqa: E402
from repro.programs.des_source import DesProgramSpec, des_source  # noqa: E402
from repro.programs.workloads import (compile_des, key_words,  # noqa: E402
                                      plaintext_words)

KEY = 0x133457799BBCDFF1
PT = 0x0123456789ABCDEF

BASELINE_SCHEMA = "repro.bench.baseline/v8"
CALIBRATION_CLAMP = (0.5, 3.0)
#: Cycles in the round-1 DES workload; turns simulate walls into
#: simulated-cycles-per-second for the engine throughput gate.
ROUND1_CYCLES = 18_432
#: Traces (or no-op tasks) in the DPA batch and pool-dispatch benches.
BATCH_TRACES = 16
#: Dispatching a 16-task batch through the warm shared pool must beat
#: per-chunk pool creation (fork + warm-up + teardown, the pre-pool cost
#: of every chunk) by at least this factor.  Calibration-free ratio.
WARM_DISPATCH_MIN = 5.0
#: Traces folded through the streaming Welch-t accumulator per bench
#: round, at round-1 trace width; gates the campaign-statistics hot loop.
STREAM_TRACES = 256
#: Recording a program's cycle schedule may cost at most this many bare
#: reference-pipeline runs of the same program.  Calibration-free: both
#: sides run back-to-back in this process.  The recorder steps the
#: reference pipeline only on new control transitions, so it reads well
#: under one bare run; a recorder that steps every cycle fails this.
RECORD_OVERHEAD_MAX = 0.5
#: Timed runs per side of the record_overhead ratio (median taken).
RECORD_RUNS = 5
#: Repeat submissions sampled for the verdict-cache-hit latency p50.
CACHE_HIT_SAMPLES = 15
#: Baselines below this are too small for a relative wall-time budget —
#: scheduler jitter alone exceeds 25% of a sub-5ms measurement.  Such
#: benches are recorded but gated only by the ratio floors
#: (warm_dispatch_speedup) or their own internal assertions
#: (verdict-cache hit counting).
NOISE_FLOOR_S = 0.005


def _spin() -> float:
    """Fixed pure-Python workload; measures this host's interpreter speed."""
    start = time.perf_counter()
    accumulator = 0
    for i in range(2_000_000):
        accumulator ^= (i * 2654435761) & 0xFFFF_FFFF
    if accumulator < 0:  # pragma: no cover - keeps the loop un-elidable
        print(accumulator)
    return time.perf_counter() - start


def _noop() -> None:
    """Pool-dispatch payload: measures dispatch overhead, not work."""


def _best_of(function, rounds: int) -> float:
    return min(_timed(function) for _ in range(rounds))


def _timed(function) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


def run_benches(rounds: int) -> dict[str, float]:
    """Wall seconds per benchmark, best-of-``rounds`` (parallel: 1 round)."""
    source = des_source(DesProgramSpec(rounds=1))
    assembly = compile_source(source, masking="selective").assembly
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program
    inputs = {"key": key_words(KEY), "plaintext": plaintext_words(PT)}
    plaintexts = random_plaintexts(16)
    jobs = 4 if _usable_cores() >= 4 else 2
    ensure_schedule(program)  # record once so the replay bench is warm
    benches = {
        "compile_des_round1":
            lambda: compile_source(source, masking="selective"),
        "assemble_des_round1": lambda: assemble(assembly),
        "simulate_with_energy":
            lambda: des_run(program, KEY, PT, engine="reference"),
        "simulate_fast_replay":
            lambda: des_run(program, KEY, PT, engine="fast"),
        "functional_interpreter":
            lambda: run_functional(program, inputs=inputs),
    }
    results = {name: _best_of(fn, rounds) for name, fn in benches.items()}
    results["parallel_traces_16"] = _timed(
        lambda: collect_traces(program, KEY, plaintexts, jobs=jobs))
    # Serial batch collection on the fast replay (warm: schedule
    # recorded above).
    results["batch16_fast_serial"] = _best_of(
        lambda: collect_traces(program, KEY, plaintexts, engine="fast"),
        rounds)
    # Streaming-accumulator throughput: fold a synthetic two-group
    # campaign (round-1 trace width) through the Welch-t accumulator —
    # the per-trace hot loop of every O(1)-memory campaign.
    rows = np.random.default_rng(7).normal(
        100.0, 5.0, size=(STREAM_TRACES, ROUND1_CYCLES))

    def stream_welch():
        accumulator = WelchTAccumulator()
        for index in range(STREAM_TRACES):
            accumulator.update(rows[index], index & 1)
        accumulator.t_statistic(definite_leaks=True)

    results["streaming_welch_256"] = _best_of(stream_welch, rounds)
    # Cold schedule recording vs a bare reference run (no tracker) of the
    # same rounds=4 program — the pair behind the record_overhead gate.
    # Interleaved, so a host-speed shift hits both sides alike.
    round4 = compile_des(DesProgramSpec(rounds=4),
                         masking="selective").program
    recorded, bare = [], []
    for _ in range(RECORD_RUNS):
        recorded.append(_timed(lambda: record_schedule(round4)))
        bare.append(_timed(
            lambda: Pipeline(round4, Memory(), tracker=None).run()))
    results["record_schedule_round4"] = statistics.median(recorded)
    results["pipeline_run_round4"] = statistics.median(bare)
    # Per-chunk dispatch overhead, cold vs warm: the cold side is what
    # every chunk paid before the shared pool existed (fork two workers,
    # push 16 no-op tasks, tear the pool down); the warm side leases the
    # persistent pool for the same 16-task batch.
    from concurrent.futures import ProcessPoolExecutor

    from repro.harness import pool as harness_pool

    def dispatch_cold():
        with ProcessPoolExecutor(max_workers=2) as executor:
            for future in [executor.submit(_noop)
                           for _ in range(BATCH_TRACES)]:
                future.result()

    def dispatch_warm():
        lease = harness_pool.acquire_lease(2)
        try:
            for future in [lease.submit(_noop)
                           for _ in range(BATCH_TRACES)]:
                future.result()
        finally:
            lease.release()

    harness_pool.reset_shared_pool()
    dispatch_warm()  # pre-warm: fork + initialize the shared generation
    results["dispatch16_warm"] = _best_of(dispatch_warm, rounds)
    results["dispatch16_cold"] = _best_of(dispatch_cold, rounds)
    harness_pool.reset_shared_pool()
    # Verdict-cache hit latency: repeat submissions of one identical
    # request against an in-process service; after the cold fill every
    # sample is a cache hit — submission-to-terminal, p50.
    results["verdict_cache_hit_p50"] = _bench_verdict_cache_hit()
    return results


def _bench_verdict_cache_hit() -> float:
    from repro.service.core import LeakageService, ServiceConfig

    payload = {"mode": "pair", "rounds": 1, "client": "bench"}
    service = LeakageService(ServiceConfig(workers=1))
    try:
        cold = service.submit(payload)
        assert cold.wait(300.0) and cold.state == "done", cold.state
        samples = []
        for _ in range(CACHE_HIT_SAMPLES):
            start = time.perf_counter()
            record = service.submit(payload)
            assert record.wait(60.0) and record.state == "done"
            samples.append(time.perf_counter() - start)
        hits = service.verdict_cache_stats()["hits"]
        assert hits >= CACHE_HIT_SAMPLES, \
            f"expected every sample to hit the cache, got {hits}"
        return statistics.median(samples)
    finally:
        service.drain(grace_s=10.0)


def cycles_per_second(measured: dict[str, float]) -> dict[str, float]:
    """Simulated-cycles-per-second per engine, from the simulate
    benches."""
    return {
        "reference": ROUND1_CYCLES / measured["simulate_with_energy"],
        "fast": ROUND1_CYCLES / measured["simulate_fast_replay"],
    }


def warm_dispatch_speedup(measured: dict[str, float]) -> float:
    """How much cheaper a 16-task dispatch is warm than cold."""
    return measured["dispatch16_cold"] / measured["dispatch16_warm"]


def record_overhead(measured: dict[str, float]) -> float:
    """Cold schedule recording cost in bare reference-pipeline runs."""
    return measured["record_schedule_round4"] / measured["pipeline_run_round4"]


def streaming_traces_per_second(measured: dict[str, float]) -> float:
    """Accumulator fold rate of the streaming Welch-t campaign loop."""
    return STREAM_TRACES / measured["streaming_welch_256"]


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _head_sha() -> str:
    sha = os.environ.get("GITHUB_SHA", "")
    if not sha:
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True,
                text=True, check=True,
                cwd=Path(__file__).resolve().parent).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            sha = "unknown"
    return sha[:12] or "unknown"


def compare(measured: dict[str, float], baseline: dict,
            max_regress: float) -> tuple[list[str], dict[str, dict]]:
    """Calibrated comparison; returns (failure lines, per-bench record)."""
    spin = statistics.median(_spin() for _ in range(3))
    factor = baseline["calibration_s"] / spin
    low, high = CALIBRATION_CLAMP
    factor = max(low, min(high, factor))
    failures, record = [], {}
    for name, wall in sorted(measured.items()):
        reference = baseline["benches"].get(name)
        entry = {"wall_s": round(wall, 4),
                 "calibrated_s": round(wall * factor, 4)}
        if reference is not None and reference < NOISE_FLOOR_S:
            entry["baseline_s"] = reference
            entry["gated"] = False
        elif reference is not None:
            delta = wall * factor / reference - 1.0
            entry["baseline_s"] = reference
            entry["regress"] = round(delta, 4)
            entry["passed"] = delta <= max_regress
            if not entry["passed"]:
                failures.append(
                    f"  {name}: {wall:.3f}s (calibrated "
                    f"{wall * factor:.3f}s) vs baseline {reference:.3f}s "
                    f"= {delta:+.1%} (budget {max_regress:+.0%})")
        record[name] = entry
    # Engine throughput gate: calibrated simulated-cycles-per-second may
    # not drop more than the budget below the pinned baseline.
    for engine, cps in sorted(cycles_per_second(measured).items()):
        pinned = baseline.get("cycles_per_s", {}).get(engine)
        calibrated = cps / factor
        entry = {"cycles_per_s": round(cps, 1),
                 "calibrated_cycles_per_s": round(calibrated, 1)}
        if pinned is not None:
            delta = 1.0 - calibrated / pinned
            entry["baseline_cycles_per_s"] = pinned
            entry["regress"] = round(delta, 4)
            entry["passed"] = delta <= max_regress
            if not entry["passed"]:
                failures.append(
                    f"  cycles_per_s[{engine}]: {cps:,.0f} (calibrated "
                    f"{calibrated:,.0f}) vs baseline {pinned:,.0f} "
                    f"= {-delta:+.1%} (budget -{max_regress:.0%})")
        record[f"_cycles_per_s.{engine}"] = entry
    # Streaming-accumulator throughput gate, same calibrated shape.
    stream_tps = streaming_traces_per_second(measured)
    pinned = baseline.get("streaming_traces_per_s")
    calibrated = stream_tps / factor
    entry = {"traces_per_s": round(stream_tps, 1),
             "calibrated_traces_per_s": round(calibrated, 1)}
    if pinned is not None:
        delta = 1.0 - calibrated / pinned
        entry["baseline_traces_per_s"] = pinned
        entry["regress"] = round(delta, 4)
        entry["passed"] = delta <= max_regress
        if not entry["passed"]:
            failures.append(
                f"  streaming_traces_per_s: {stream_tps:,.0f} (calibrated "
                f"{calibrated:,.0f}) vs baseline {pinned:,.0f} "
                f"= {-delta:+.1%} (budget -{max_regress:.0%})")
    record["_streaming_traces_per_s"] = entry
    # Warm-pool dispatch gate: calibration-free — both sides of the
    # ratio ran back-to-back in this process on this host.
    dispatch = warm_dispatch_speedup(measured)
    floor = baseline.get("warm_dispatch_min", WARM_DISPATCH_MIN)
    entry = {"speedup": round(dispatch, 2), "min": floor,
             "passed": dispatch >= floor}
    pinned = baseline.get("warm_dispatch_speedup")
    if pinned is not None:
        delta = 1.0 - dispatch / pinned
        entry["baseline_speedup"] = pinned
        entry["regress"] = round(delta, 4)
        entry["passed"] = entry["passed"] and delta <= max_regress
    if not entry["passed"]:
        failures.append(
            f"  warm_dispatch_speedup: {dispatch:.2f}x over per-chunk "
            f"pool creation on a {BATCH_TRACES}-task batch "
            f"(floor {floor:.1f}x, baseline "
            f"{pinned if pinned is not None else 'unpinned'}, "
            f"budget -{max_regress:.0%})")
    record["_warm_dispatch_speedup"] = entry
    # Schedule-recording gate: a calibration-free ceiling on the ratio.
    overhead = record_overhead(measured)
    ceiling = baseline.get("record_overhead_max", RECORD_OVERHEAD_MAX)
    entry = {"ratio": round(overhead, 3), "max": ceiling,
             "passed": overhead <= ceiling}
    if not entry["passed"]:
        failures.append(
            f"  record_overhead: recording a schedule costs "
            f"{overhead:.2f} bare pipeline runs (ceiling {ceiling:.2f})")
    record["_record_overhead"] = entry
    record["_calibration"] = {"spin_s": round(spin, 4),
                              "baseline_spin_s": baseline["calibration_s"],
                              "factor": round(factor, 4)}
    return failures, record


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    root = Path(__file__).resolve().parent.parent
    parser.add_argument("--baseline", type=Path,
                        default=root / "benchmarks" / "baseline.json")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="directory for BENCH_<sha>.json")
    parser.add_argument("--max-regress", type=float, default=0.25,
                        help="tolerated fractional wall-time regression")
    parser.add_argument("--rounds", type=int, default=3,
                        help="best-of rounds per benchmark")
    parser.add_argument("--update-baseline", action="store_true",
                        help="re-pin the baseline instead of comparing")
    arguments = parser.parse_args()

    measured = run_benches(arguments.rounds)
    for name, wall in sorted(measured.items()):
        print(f"{name:28s} {wall:8.3f}s")
    throughput = cycles_per_second(measured)
    for engine, cps in sorted(throughput.items()):
        print(f"cycles_per_s[{engine}]{'':>{max(0, 9 - len(engine))}s} "
              f"{cps:>12,.0f}")
    print(f"warm_dispatch_speedup {warm_dispatch_speedup(measured):10.2f}x "
          f"(floor {WARM_DISPATCH_MIN:.1f}x)")
    print(f"streaming_traces_per_s "
          f"{streaming_traces_per_second(measured):9,.0f}")
    print(f"record_overhead {record_overhead(measured):16.2f}x "
          f"(ceiling {RECORD_OVERHEAD_MAX:.1f}x)")

    if arguments.update_baseline:
        spin = statistics.median(_spin() for _ in range(3))
        arguments.baseline.write_text(json.dumps(
            {"schema": BASELINE_SCHEMA, "calibration_s": round(spin, 4),
             "max_regress": arguments.max_regress,
             "benches": {k: round(v, 4) for k, v in sorted(
                 measured.items())},
             "cycles_per_s": {k: round(v, 1) for k, v in sorted(
                 throughput.items())},
             "warm_dispatch_speedup": round(
                 warm_dispatch_speedup(measured), 2),
             "warm_dispatch_min": WARM_DISPATCH_MIN,
             "streaming_traces_per_s": round(
                 streaming_traces_per_second(measured), 1),
             "record_overhead": round(record_overhead(measured), 3),
             "record_overhead_max": RECORD_OVERHEAD_MAX},
            indent=2) + "\n")
        print(f"baseline pinned -> {arguments.baseline}")
        return 0

    baseline = json.loads(arguments.baseline.read_text())
    if baseline.get("schema") != BASELINE_SCHEMA:
        print(f"unrecognized baseline schema in {arguments.baseline}",
              file=sys.stderr)
        return 2
    failures, record = compare(measured, baseline, arguments.max_regress)

    sha = _head_sha()
    manifest = obs.build_manifest(
        experiment_id="bench-trajectory",
        config={"sha": sha, "rounds": arguments.rounds,
                "max_regress": arguments.max_regress,
                "cores": _usable_cores(),
                "calibration": record["_calibration"]},
        summary={name: entry["wall_s"] for name, entry in record.items()
                 if not name.startswith("_")})
    manifest["benches"] = record
    manifest["passed"] = not failures
    out = obs.write_manifest(manifest, arguments.out / f"BENCH_{sha}.json")
    print(f"trajectory record -> {out} "
          f"(calibration factor {record['_calibration']['factor']})")

    if failures:
        print(f"\nFAIL: wall-time regression beyond "
              f"{arguments.max_regress:.0%}:", file=sys.stderr)
        print("\n".join(failures), file=sys.stderr)
        return 1
    print("PASS: all benchmarks within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
