"""The two in-process workloads: a TVLA campaign and a masking sweep.

Each has two paths that do the same work:

* the plain path calls the entry point a user calls --
  ``attacks.tvla.streaming_assess_des_program`` or
  ``service.executor.execute_assessment`` -- and is what the untraced
  run times;
* the traced path makes the same calls those entry points make, in the
  same order, one layer at a time, with a span around each:
  ``compile_source`` -> ``assemble`` -> ``apply_policy`` -> compile-cache
  store -> ``fastpath.ensure_schedule`` -> ``vector.plan_for`` (only when
  the default engine is ``vector``) -> ``run_stream``/``run_jobs`` with a
  benchmark-owned consumer -> ``WelchTAccumulator``/``assess_pair``.

``compile_source`` calls ``assemble`` itself, so the traced path wraps
that one call site (``repro.lang.compiler.assemble``) for the duration
of the call; nothing else in the program is patched.  Replay runs in
pool workers, so its time is placed into the dispatch span from the
workers' own ``JobResult.wall_time_s``.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import workloads
from measure import vm_hwm_mb
from workloads import CLIENTS


#: What the library workloads import: the first part of their set-up.
PROGRAM_MODULES = ("repro.attacks.tvla", "repro.harness.engine",
                   "repro.harness.pool", "repro.lang.compiler",
                   "repro.machine.engines", "repro.machine.fastpath",
                   "repro.obs.leakage", "repro.service.executor")


def import_seconds(src: Path, repeats: int) -> float:
    """Median time a fresh interpreter takes to import the program.

    One sample varies by ~20%, and a run can import only once, so the
    import is timed in ``repeats`` fresh interpreters -- after this
    process has imported everything, so bytecode caches are warm.
    """
    for module in PROGRAM_MODULES:
        importlib.import_module(module)
    code = ("import time; start = time.perf_counter(); import "
            + ", ".join(PROGRAM_MODULES)
            + "; print(time.perf_counter() - start)")
    env = dict(os.environ, PYTHONPATH=str(src))
    return statistics.median(float(subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True).stdout) for _ in range(repeats))


def forget_process_memos() -> None:
    """Make the next compile, record and plan cold again.

    Clears the in-process memos (the ``compile_des`` LRU, the fastpath
    bound-schedule memo, the vector plan memo) and the process-wide
    compile cache, memory and disk; the disk layer is this run's own
    directory.
    """
    from repro.harness.engine import default_cache
    from repro.machine import fastpath, vector
    from repro.programs.workloads import compile_des

    compile_des.cache_clear()
    fastpath._clear_caches()
    vector._clear_caches()
    cache = default_cache()
    cache.memory.clear()
    if cache.directory is not None:
        shutil.rmtree(cache.directory, ignore_errors=True)


def reset_pool() -> dict:
    """Join the shared worker pool; the next batch forks a fresh one."""
    from repro.harness import pool

    summary = pool.shutdown_shared_pool() or {}
    pool.reset_shared_pool()
    return summary


def digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(
        array, dtype=np.float64).tobytes()).hexdigest()


def tally(run, results) -> float:
    """Count finished jobs of a traced operation; returns their summed
    replay busy time."""
    busy = 0.0
    for result in results:
        run.count("machine.traces")
        run.count("machine.sim_cycles", result.cycles)
        run.count(f"machine.engine_runs.{result.engine}")
        busy += result.wall_time_s
    run.count("machine.replay_busy_s", busy)
    return busy


@contextmanager
def assemble_spans(spans):
    """Span every ``assemble`` call ``compile_source`` makes."""
    from repro.lang import compiler

    original = compiler.assemble

    def timed(*args, **kwargs):
        with spans.span("isa.assemble"):
            return original(*args, **kwargs)

    compiler.assemble = timed
    try:
        yield
    finally:
        compiler.assemble = original


def compile_traced(run, request, cache):
    """``CompileCache.program_for(request)``, one layer per span."""
    from repro.lang.compiler import compile_source
    from repro.masking.policy import apply_policy
    from repro.programs.des_source import DesProgramSpec, des_source

    spans = run.spans
    key = request.cache_key()
    program = cache.artifact(key)
    run.count("harness.compile_cache_lookups")
    if program is not None:
        run.count("harness.compile_cache_hits")
        return program
    spec = request.spec if request.spec is not None else DesProgramSpec()
    with spans.span("lang.compile"), assemble_spans(spans):
        program = compile_source(des_source(spec), masking=request.masking,
                                 optimize=request.optimize).program
    if request.policy is not None:
        with spans.span("masking.apply_policy"):
            program = apply_policy(program, request.policy)
    with spans.span("harness.compile_cache_store"):
        cache.store_artifact(key, program)
    return program


def prepare_traced(run, program, max_cycles: int = 50_000_000) -> None:
    """Schedule record, and the vector plan when vector is the default."""
    from repro.machine import engines, fastpath

    with run.spans.span("machine.schedule_record"):
        recorded = fastpath.ensure_schedule(program, max_cycles=max_cycles)
    if recorded and engines.resolve(None) == "vector":
        from repro.machine import vector

        with run.spans.span("machine.plan_compile"):
            vector.plan_for(program, fastpath.bound_schedule_for(
                program, max_cycles=max_cycles))


def read_pool_stats(run) -> None:
    from repro.harness import pool

    stats = pool.pool_stats() or {}
    for name in ("leases", "warm_acquires", "cold_builds", "rebuilds"):
        run.count(f"harness.pool_{name}", stats.get(name, 0))


@contextmanager
def job_reporter(run):
    """Count job retries and failures through the resilience layer's
    current-reporter hook (no heartbeat sink)."""
    from repro.obs import progress

    reporter = progress.ProgressReporter(0, label="bench")
    with progress.active(reporter):
        yield
    run.count("harness.job_retries", reporter.retried)
    run.count("harness.job_failures", reporter.failed)


# -- campaign ---------------------------------------------------------------

def _campaign_request(sz):
    from repro.harness.engine import CompileRequest
    from repro.programs.des_source import DesProgramSpec

    return CompileRequest(spec=DesProgramSpec(rounds=sz.campaign_rounds),
                          masking="selective")


def _campaign_plain(program, key, fixed, plaintexts, sz):
    from repro.attacks.tvla import streaming_assess_des_program

    return streaming_assess_des_program(
        program, key, fixed, plaintexts, noise_sigma=sz.campaign_noise,
        jobs=CLIENTS, chunk_size=sz.campaign_chunk)


def _campaign_traced(run, program, key, fixed, plaintexts, sz,
                     keep: list):
    """``streaming_assess_des_program`` call by call (same jobs, seeds,
    chunking, checkpoints); ``keep`` receives the first two energies."""
    from repro.attacks.tvla import T_THRESHOLD
    from repro.harness.engine import SimJob, run_stream
    from repro.machine import engines, fastpath
    from repro.obs.streaming import DisclosureCurve, WelchTAccumulator

    spans = run.spans
    if engines.resolve(None) in ("fast", "vector"):
        with spans.span("machine.schedule_record"):
            fastpath.ensure_schedule(program)
    checkpoint_every = max(sz.campaign_chunk // 2, 1)
    batch, groups = [], []
    for index, plaintext in enumerate(plaintexts):
        for group, pair, seed, label in (
                (0, (key, fixed), 1000 + index, f"fixed[{index}]"),
                (1, (key, plaintext), 2000 + index, f"random[{index}]")):
            batch.append(SimJob(program=program, des_pair=pair,
                                noise_sigma=sz.campaign_noise,
                                noise_seed=seed, label=label))
            groups.append(group)
    accumulator = WelchTAccumulator()
    curve = DisclosureCurve(threshold=T_THRESHOLD, mode="t")
    busy = [0.0]

    def consume(index, result):
        busy[0] += tally(run, [result])
        if len(keep) < 2:
            keep.append(result.energy)
        with spans.span("stats.welch_update"):
            accumulator.update(result.energy, groups[index])
            pairs_done, odd = divmod(index + 1, 2)
            at_checkpoint = odd == 0 and pairs_done % checkpoint_every == 0
            if at_checkpoint or index + 1 == len(batch):
                watermark = accumulator.max_abs_t()
                if at_checkpoint:
                    curve.record(index + 1, watermark)

    with spans.span("harness.dispatch", call="run_stream") as dispatch:
        consumed = run_stream(batch, consume, jobs=CLIENTS,
                              chunk_size=sz.campaign_chunk)
    spans.place(dispatch, "machine.replay", busy[0] / CLIENTS)
    with spans.span("stats.t_statistic"):
        t_statistic = accumulator.t_statistic(definite_leaks=True)
    return consumed, t_statistic


def run_campaign(run, sz, src: Path) -> None:
    """Repeated fixed-vs-random campaigns on selective-masked DES."""
    run.import_s = import_seconds(src, sz.setup_repeats)
    from repro.harness.engine import SimJob, default_cache, run_jobs
    from repro.machine import fastpath

    key, fixed = workloads.campaign_key(run.seed)
    warm_plaintexts = workloads.campaign_plaintexts(run.seed, "warmup", 1)
    keep: list = []
    for _ in range(1 if run.traced else sz.setup_repeats):
        forget_process_memos()
        reset_pool()
        start = time.perf_counter()
        if run.traced:
            with run.spans.span("setup"):
                program = compile_traced(run, _campaign_request(sz),
                                         default_cache())
                prepare_traced(run, program)
                _campaign_traced(run, program, key, fixed,
                                 warm_plaintexts, sz, [])
        else:
            program = default_cache().program_for(_campaign_request(sz))
            fastpath.ensure_schedule(program)
            _campaign_plain(program, key, fixed, warm_plaintexts, sz)
        run.setups.append(time.perf_counter() - start)
    cycles = fastpath.bound_schedule_for(program).schedule.cycles
    expected = 2 * sz.campaign_pairs

    with job_reporter(run):
        deadline, index, window = run.deadline(), 0, time.perf_counter()
        while index == 0 or time.perf_counter() < deadline:
            plaintexts = workloads.campaign_plaintexts(
                run.seed, index, sz.campaign_pairs)
            start = time.perf_counter()
            result = _campaign_plain(program, key, fixed, plaintexts, sz)
            run.op(latency_s=time.perf_counter() - start,
                   traces=result.traces_consumed,
                   cycles=result.traces_consumed * cycles, ok=True,
                   traced=False, pair=index)
            run.check(f"campaign[{index}] traces_consumed == {expected}",
                      result.traces_consumed == expected,
                      result.traces_consumed)
            if run.traced:
                start = time.perf_counter()
                with run.spans.span("op", kind="campaign", index=index):
                    consumed, t_statistic = _campaign_traced(
                        run, program, key, fixed, plaintexts, sz,
                        keep if index == 0 else [])
                run.op(latency_s=time.perf_counter() - start,
                       traces=consumed, cycles=consumed * cycles, ok=True,
                       traced=True, pair=index)
                run.check(f"campaign[{index}] traced t-statistic sha256 "
                          "equals untraced",
                          digest(t_statistic)
                          == digest(result.result.t_statistic))
            index += 1
        run.window_s = time.perf_counter() - window
    run.peak_rss_mb = vm_hwm_mb()
    read_pool_stats(run)

    # Outside the timed region: the first two traces of campaign 0 on the
    # reference engine.  Untraced runs never see a campaign's traces, so
    # they re-run those two jobs on the default engine as well.
    plaintexts = workloads.campaign_plaintexts(run.seed, 0, sz.campaign_pairs)
    first_two = [SimJob(program=program, des_pair=pair,
                        noise_sigma=sz.campaign_noise, noise_seed=seed,
                        label=label)
                 for pair, seed, label in (((key, fixed), 1000, "fixed[0]"),
                                           ((key, plaintexts[0]), 2000,
                                            "random[0]"))]
    reference = [r.energy for r in run_jobs(first_two, jobs=CLIENTS,
                                            engine="reference")]
    if not keep:
        keep = [r.energy for r in run_jobs(first_two, jobs=CLIENTS)]
    run.check("campaign[0] first 2 traces bit-identical to the reference "
              "engine",
              all(np.array_equal(a, b) for a, b in zip(keep, reference)))
    stranded = reset_pool().get("stranded_workers", 0)
    run.check("pool joined with no stranded workers", stranded == 0,
              f"stranded={stranded}")


# -- design_sweep -----------------------------------------------------------

def _variant_traced(run, request, cache) -> dict:
    """``execute_assessment`` (pair mode) call by call."""
    from repro.harness.engine import JobResult, SimJob, run_jobs
    from repro.obs.leakage import assess_pair
    from repro.service.executor import trace_digest

    spans = run.spans
    program = compile_traced(run, request.compile_request(), cache)
    prepare_traced(run, program, max_cycles=request.max_cycles)
    pairs = [(request.key, request.plaintext),
             (request.key_b, request.plaintext)]
    batch = [SimJob(program=program, des_pair=pair,
                    noise_sigma=request.noise_sigma, noise_seed=index + 1,
                    label=f"trace[{index}]", max_cycles=request.max_cycles,
                    engine=request.engine)
             for index, pair in enumerate(pairs)]
    with spans.span("harness.dispatch", call="run_jobs") as dispatch:
        results = run_jobs(batch, jobs=1, failure_policy="retry",
                           retries=2)
    failed = [r for r in results if not isinstance(r, JobResult)]
    if failed:
        raise RuntimeError(f"{len(failed)} trace(s) failed: {failed[0]}")
    spans.place(dispatch, "machine.replay", tally(run, results))
    with spans.span("stats.verdict"):
        verdict = assess_pair(results[0].trace, results[1].trace,
                              budget_pj=request.budget_pj,
                              label=f"pair:{request.masking}").to_dict()
    return {"n_traces": len(results), "verdict": verdict,
            "trace_digest": trace_digest(results)}


class _Variants:
    """Runs sweep variants cold: fresh memos and a fresh cache each."""

    def __init__(self, run):
        self.run = run
        self.root = Path(run.run_dir) / "variant-caches"
        self.number = 0

    def execute(self, payload: dict, traced: bool,
                root_span: str = "op") -> tuple[float, dict]:
        from repro.harness.engine import CompileCache
        from repro.service.executor import execute_assessment
        from repro.service.protocol import AssessRequest

        request = AssessRequest.from_dict(payload)
        forget_process_memos()
        self.number += 1
        directory = self.root / str(self.number)
        cache = CompileCache(directory)
        start = time.perf_counter()
        if traced:
            with self.run.spans.span(root_span, kind="variant",
                                     rounds=request.rounds,
                                     masking=request.masking,
                                     policy=request.policy):
                document = _variant_traced(self.run, request, cache)
        else:
            document = execute_assessment(request, cache=cache)
        elapsed = time.perf_counter() - start
        shutil.rmtree(directory, ignore_errors=True)
        return elapsed, document


def run_design_sweep(run, sz, src: Path) -> None:
    """Tab. 1's design loop: pair assessments of the masking variants at
    every round count, one after another, each one cold."""
    run.import_s = import_seconds(src, sz.setup_repeats)
    variants = _Variants(run)
    warmup = workloads.sweep_warmup(run.seed)
    for _ in range(1 if run.traced else sz.setup_repeats):
        elapsed, _ = variants.execute(warmup, run.traced, root_span="setup")
        run.setups.append(elapsed)

    columns = len(sz.sweep_rounds)
    digests: dict[int, str] = {}
    with job_reporter(run):
        deadline, row, window = run.deadline(), 0, time.perf_counter()
        # At least the ``none`` and ``selective`` rows, so a slow host
        # cannot shrink a run to one row of a different composition.
        while row < 2 or time.perf_counter() < deadline:
            for column in range(columns):
                index = row * columns + column
                payload = workloads.sweep_variant(run.seed, index,
                                                  sz.sweep_rounds)
                expected = workloads.expected_pass(payload)
                label = (f"variant[{index}] rounds={payload['rounds']} "
                         f"masking={payload['masking']} "
                         f"policy={payload['policy']}")
                for traced in ((False, True) if run.traced else (False,)):
                    elapsed, document = variants.execute(payload, traced)
                    passed = document["verdict"]["passed"]
                    run.check(f"{label}{' traced' if traced else ''} "
                              f"verdict {'PASS' if expected else 'FAIL'}",
                              passed == expected
                              and document["n_traces"] == 2,
                              f"passed={passed}")
                    run.op(latency_s=elapsed, traces=document["n_traces"],
                           ok=True, traced=traced, pair=index, row=row)
                    if traced:
                        run.check(f"{label} traced trace_digest equals "
                                  "untraced",
                                  document["trace_digest"] == digests[index])
                    else:
                        digests[index] = document["trace_digest"]
            row += 1
        run.window_s = time.perf_counter() - window
    run.peak_rss_mb = vm_hwm_mb()
    read_pool_stats(run)

    for index in workloads.sweep_reference_picks(run.seed, sz.sweep_rounds):
        payload = workloads.sweep_variant(run.seed, index, sz.sweep_rounds)
        _, reference = variants.execute(dict(payload, engine="reference"),
                                        False)
        run.check(f"variant[{index}] trace_digest equals the reference "
                  "engine", reference["trace_digest"] == digests[index])
