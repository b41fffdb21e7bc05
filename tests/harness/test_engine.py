"""Batch engine: determinism vs the serial path, compile cache, profiling."""

import os

import numpy as np
import pytest

from repro.attacks.dpa import collect_traces, random_plaintexts
from repro.harness.engine import (CompileCache, CompileRequest, SimJob,
                                  execute_job, run_jobs)
from repro.harness.sweeps import measure_policies, sensitivity_sweep
from repro.isa.assembler import assemble
from repro.programs.des_source import DesProgramSpec
from repro.programs.workloads import compile_des

KEY = 0x133457799BBCDFF1

ASM = """
.data
x: .word 5
.text
lw $t0, x
xor $t1, $t0, $t0
sw $t1, x
nop
halt
"""

TINY_SPEC = DesProgramSpec(rounds=0, include_ip=False, include_fp=False)


# -- serial semantics -------------------------------------------------------


def test_serial_results_match_runner():
    program = assemble(ASM)
    results = run_jobs([SimJob(program=program, label="a"),
                        SimJob(program=program, label="b")])
    assert [r.label for r in results] == ["a", "b"]
    for result in results:
        assert result.cycles == len(result.energy)
        assert result.total_pj == pytest.approx(sum(result.totals.values()))
        assert result.wall_time_s > 0
        assert result.cache_hit is None  # prebuilt program, no cache


def test_progress_callback_counts():
    program = assemble(ASM)
    seen = []
    run_jobs([SimJob(program=program)] * 3,
             progress=lambda done, total: seen.append((done, total)))
    assert seen == [(1, 3), (2, 3), (3, 3)]


def test_job_result_trace_navigation():
    program = compile_des(TINY_SPEC, masking="none").program
    result = execute_job(SimJob(program=program, des_pair=(KEY, 0)))
    assert result.markers  # key permutation markers survive the hop
    assert result.trace.total_pj == pytest.approx(result.total_pj)


# -- compile cache ----------------------------------------------------------


def test_compile_cache_memory_and_disk(tmp_path):
    request = CompileRequest(spec=TINY_SPEC, masking="none")
    cache = CompileCache(directory=tmp_path)
    first = cache.program_for(request)
    assert (cache.stats.hits, cache.stats.misses) == (0, 1)
    assert cache.program_for(request) is first  # memory hit
    assert cache.stats.hits == 1

    fresh = CompileCache(directory=tmp_path)  # simulates another process
    loaded = fresh.program_for(request)
    assert (fresh.stats.hits, fresh.stats.misses) == (1, 0)
    assert [str(i) for i in loaded.text] == [str(i) for i in first.text]
    assert loaded.data == first.data


def test_compile_cache_distinguishes_variants(tmp_path):
    cache = CompileCache(directory=tmp_path)
    unmasked = cache.program_for(CompileRequest(spec=TINY_SPEC,
                                                masking="none"))
    masked = cache.program_for(CompileRequest(spec=TINY_SPEC,
                                              masking="selective"))
    assert cache.stats.misses == 2
    assert unmasked.secure_fraction() == 0.0
    assert masked.secure_fraction() > 0.0


def test_compile_request_rejects_unknown_cipher():
    with pytest.raises(ValueError):
        CompileRequest(cipher="3des").compile()


# -- parallel == serial (the headline determinism guarantee) ----------------


def test_parallel_dpa_collection_bit_identical():
    program = compile_des(DesProgramSpec(rounds=1, include_fp=False),
                          masking="none").program
    plaintexts = random_plaintexts(4)
    serial = collect_traces(program, KEY, plaintexts, noise_sigma=2.0)
    parallel = collect_traces(program, KEY, plaintexts, noise_sigma=2.0,
                              jobs=4)
    assert np.array_equal(serial.traces, parallel.traces)
    assert serial.plaintexts == parallel.plaintexts
    assert serial.window == parallel.window


def test_parallel_sweep_bit_identical():
    from repro import DEFAULT_PARAMS

    serial = measure_policies(DEFAULT_PARAMS, rounds=1)
    parallel = measure_policies(DEFAULT_PARAMS, rounds=1, jobs=4)
    assert serial == parallel  # exact float equality, not approx

    sweep_serial = sensitivity_sweep("c_data_bus", factors=(1.0,), rounds=1)
    sweep_parallel = sensitivity_sweep("c_data_bus", factors=(1.0,),
                                       rounds=1, jobs=4)
    assert sweep_serial.measurements[0].totals_uj \
        == sweep_parallel.measurements[0].totals_uj
    assert sweep_serial.min_saving == sweep_parallel.min_saving


def test_parallel_progress_reaches_total():
    program = assemble(ASM)
    seen = []
    run_jobs([SimJob(program=program)] * 3, jobs=2,
             progress=lambda done, total: seen.append((done, total)))
    assert seen[-1] == (3, 3)
    assert [done for done, _ in seen] == [1, 2, 3]


def test_pooled_batch_prewarms_schedules_once_in_parent(monkeypatch):
    """Only a pooled batch of schedule-replaying jobs records parent-side,
    once per distinct program; in-process and reference batches do not."""
    from repro.machine import fastpath

    program, other = assemble(ASM), assemble(ASM + "nop\n")
    calls = []
    real = fastpath.ensure_schedule

    def spy(prog, **kwargs):
        calls.append(prog)
        return real(prog, **kwargs)

    monkeypatch.setattr(fastpath, "ensure_schedule", spy)

    def batch(engine, *programs):
        return [SimJob(program=prog, engine=engine, label=f"job[{index}]")
                for index, prog in enumerate(programs)]

    run_jobs(batch("fast", program, program), jobs=1)
    run_jobs(batch("reference", program, program), jobs=2)
    assert calls == []
    run_jobs(batch("fast", program, other, program), jobs=2)
    assert calls == [program, other]


def test_pooled_batch_records_schedule_once_in_parent(monkeypatch,
                                                     fresh_schedule_cache):
    """Across the parent and its pool workers, a pooled fast batch
    records its program's schedule exactly once, and in the parent."""
    from repro.harness import pool
    from repro.machine import fastpath

    log = fresh_schedule_cache / "recorders.txt"
    record = fastpath.record_schedule

    def logged(program, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return record(program, **kwargs)

    monkeypatch.setattr(fastpath, "record_schedule", logged)
    pool.reset_shared_pool()  # the workers fork with the wrapper in place
    try:
        program = compile_des(TINY_SPEC, masking="none").program
        results = run_jobs([SimJob(program=program, des_pair=(KEY, i),
                                   label=f"job[{i}]") for i in range(4)],
                           jobs=2, engine="fast")
    finally:
        pool.reset_shared_pool()
    assert [result.engine for result in results] == ["fast"] * 4
    assert log.read_text().split() == [str(os.getpid())]


def test_batch_compiles_each_program_once(monkeypatch, fresh_schedule_cache):
    """Jobs sharing one CompileRequest compile it once on a fresh store;
    a second batch compiles nothing."""
    compiles = []
    compile_program = CompileRequest.compile

    def counting(request):
        compiles.append(request)
        return compile_program(request)

    monkeypatch.setattr(CompileRequest, "compile", counting)
    request = CompileRequest(spec=TINY_SPEC, masking="none")
    batch = lambda: [SimJob(program=request, des_pair=(KEY, i))
                     for i in range(4)]
    run_jobs(batch())
    assert len(compiles) == 1
    run_jobs(batch())
    assert len(compiles) == 1


# -- observability ----------------------------------------------------------


def test_job_wall_times_and_cache_hits():
    request = CompileRequest(spec=TINY_SPEC, masking="none")
    results = run_jobs([
        SimJob(program=request, des_pair=(KEY, 0), label="first"),
        SimJob(program=request, des_pair=(KEY, 0), label="second"),
        SimJob(program=assemble(ASM), label="raw"),
    ])
    assert results[1].cache_hit is True   # second request reuses the first
    assert results[2].cache_hit is None   # prebuilt program: no cache
    assert all(result.wall_time_s > 0 for result in results)


# -- streaming execution ----------------------------------------------------


def _noisy_batch(count):
    program = assemble(ASM)
    return [SimJob(program=program, noise_sigma=0.8, noise_seed=i + 1,
                   label=f"trace[{i}]") for i in range(count)]


def test_run_stream_consumes_in_submission_order():
    from repro.harness.engine import run_stream

    seen = []
    consumed = run_stream(_noisy_batch(7),
                          lambda index, result: seen.append(
                              (index, result.label)),
                          chunk_size=3)
    assert consumed == 7
    assert seen == [(i, f"trace[{i}]") for i in range(7)]


def test_run_stream_jobs_parallel_is_bit_identical():
    from repro.harness.engine import run_stream

    def collect(jobs, chunk_size):
        energies = []
        run_stream(_noisy_batch(8),
                   lambda index, result: energies.append(result.energy),
                   jobs=jobs, chunk_size=chunk_size)
        return energies

    serial = collect(jobs=1, chunk_size=3)
    parallel = collect(jobs=3, chunk_size=3)
    rechunked = collect(jobs=1, chunk_size=8)
    for a, b, c in zip(serial, parallel, rechunked):
        assert np.array_equal(a, b)    # exact, not approx
        assert np.array_equal(a, c)    # chunking never changes results


def test_run_stream_accumulator_matches_run_jobs():
    from repro.harness.engine import run_stream
    from repro.obs.streaming import WelfordAccumulator

    batch = _noisy_batch(10)
    streamed = WelfordAccumulator()
    run_stream(batch, lambda index, result: streamed.update(result.energy),
               chunk_size=4)
    whole = WelfordAccumulator()
    for result in run_jobs(batch):
        whole.update(result.energy)
    assert np.array_equal(streamed.mean, whole.mean)
    assert np.array_equal(streamed.m2, whole.m2)


def test_run_stream_parent_holds_at_most_the_worker_window():
    """At every consume call of a pooled campaign the parent holds at
    most ``jobs + 1`` results (the one being consumed and the window's),
    never a chunk's worth: an exact object count.  The jobs are far
    shorter than the heap scan, so results finish while the consumer
    works and only the window rule keeps them from piling up."""
    import gc

    from repro.harness.engine import JobResult, run_stream

    program = assemble(ASM)
    batch = [SimJob(program=program, noise_sigma=0.8, noise_seed=index + 1,
                    label=f"window[{index}]") for index in range(24)]
    jobs = 2
    alive = []

    def consume(index, result):
        # Count this campaign's results only: earlier tests may leave
        # unreachable results for the cyclic collector.
        alive.append(sum(1 for obj in gc.get_objects()
                         if type(obj) is JobResult
                         and obj.label.startswith("window[")))

    gc.collect()
    assert run_stream(batch, consume, jobs=jobs, chunk_size=8) == 24
    assert len(alive) == 24
    assert max(alive) <= jobs + 1, alive


def test_run_stream_rejects_bad_chunk_size():
    from repro.harness.engine import run_stream

    with pytest.raises(ValueError):
        run_stream(_noisy_batch(1), lambda index, result: None, chunk_size=0)


def test_run_stream_reporter_heartbeats_and_failures(monkeypatch, tmp_path):
    import json

    from repro.harness.engine import run_stream
    from repro.harness.resilience import FAULT_PLAN_ENV
    from repro.obs import progress as obs_progress

    def beats(path):
        return [json.loads(line)
                for line in path.read_text().strip().splitlines()]

    streamed = tmp_path / "stream.jsonl"
    monkeypatch.setenv(obs_progress.PROGRESS_ENV, str(streamed))
    consumed = run_stream(_noisy_batch(6), lambda index, result: None,
                          chunk_size=2)
    assert consumed == 6
    records = beats(streamed)
    assert records[-1]["event"] == "finished"
    assert records[-1]["done"] == 6
    # One forced beat per chunk boundary at minimum, plus the terminal.
    assert len(records) >= 4
    # A retried job reaches the heartbeat through the resilience layer.
    retried = tmp_path / "retry.jsonl"
    monkeypatch.setenv(obs_progress.PROGRESS_ENV, str(retried))
    monkeypatch.setenv(FAULT_PLAN_ENV, "trace[2]:*:raise")
    results = run_jobs(_noisy_batch(6), failure_policy="retry", retries=2)
    assert len(results) == 6
    records = beats(retried)
    assert records[-1]["event"] == "finished"
    assert records[-1]["retried"] >= 1


def test_run_jobs_reporter_from_env(monkeypatch, tmp_path):
    import json

    from repro.obs import progress as obs_progress

    target = tmp_path / "progress.jsonl"
    monkeypatch.setenv(obs_progress.PROGRESS_ENV, str(target))
    user_seen = []
    run_jobs(_noisy_batch(3),
             progress=lambda done, total: user_seen.append(done))
    assert user_seen == [1, 2, 3]          # user callback still honored
    records = [json.loads(line)
               for line in target.read_text().strip().splitlines()]
    assert records[-1]["event"] == "finished"
    assert records[-1]["total"] == 3


def test_cache_degrades_to_memory_only_when_disk_writes_fail(
        tmp_path, caplog):
    """ISSUE satellite: a full or read-only artifact store must not kill
    a run — the first failed store disables disk writes with one warning
    and the cache keeps serving from memory."""
    import logging

    from repro.programs.des_source import DesProgramSpec

    blocker = tmp_path / "cache"
    blocker.write_bytes(b"")  # a FILE where the cache dir should be
    cache = CompileCache(directory=blocker)
    request = CompileRequest(
        spec=DesProgramSpec(rounds=0, include_ip=False, include_fp=False),
        masking="none")
    with caplog.at_level(logging.WARNING, "repro.harness.engine"):
        program = cache.program_for(request)  # compile works, store fails
    assert program.text
    assert cache.disk_write_disabled
    assert cache.stats.disk_errors == 1
    assert "memory-only" in caplog.text

    caplog.clear()
    other = CompileRequest(
        spec=DesProgramSpec(rounds=0, include_ip=False, include_fp=False),
        masking="selective")
    with caplog.at_level(logging.WARNING, "repro.harness.engine"):
        cache.program_for(other)              # store short-circuits
    assert cache.stats.disk_errors == 1       # failed once, loudly, once
    assert not caplog.records
    assert cache.program_for(request).text    # memory still serves
    assert cache.stats.hits == 1
