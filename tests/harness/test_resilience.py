"""Fault tolerance: retries, timeouts, pool recovery, checkpoint/resume.

The process-pool tests inject real faults (worker death, hangs, garbage
returns) through the deterministic ``REPRO_FAULT_PLAN`` hook, so every
recovery path runs against an actual ``ProcessPoolExecutor`` — not a
mock.  The acceptance gate throughout is bit-identical results: whatever
the engine survives, the numbers must match a clean serial run exactly.
"""

import logging
import pickle
import time

import numpy as np
import pytest

from repro import fingerprint, obs
from repro.energy.params import DEFAULT_PARAMS
from repro.harness.engine import (CompileCache, CompileRequest, SimJob,
                                  run_jobs)
from repro.harness.resilience import (FAULT_PLAN_ENV, BatchError,
                                      FaultInjected, JobFailure, JobTimeout,
                                      backoff_delay, fault_for,
                                      require_results, result_key)
from repro.isa.assembler import assemble
from repro.machine.exceptions import CpuError, CycleLimitExceeded
from repro.programs.des_source import DesProgramSpec

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


def _batch(count=6, sigma=0.8, engine=None):
    """Noisy tiny jobs: per-seed noise makes bit-identity a real check."""
    program = assemble(ASM)
    return [SimJob(program=program, noise_sigma=sigma, noise_seed=i + 1,
                   label=f"job[{i}]", engine=engine) for i in range(count)]


def _energies(results):
    return [result.energy.copy() for result in results]


@pytest.fixture
def no_fault_plan(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)


# -- deterministic primitives ----------------------------------------------


def test_backoff_is_deterministic_and_bounded():
    first = backoff_delay(42, 3, 1)
    assert first == backoff_delay(42, 3, 1)  # clock-free
    assert backoff_delay(42, 3, 1) != backoff_delay(42, 3, 2)
    assert backoff_delay(42, 4, 1) != backoff_delay(42, 3, 1)
    for attempt in range(1, 12):
        assert 0.0 < backoff_delay(7, 0, attempt) <= 2.0
    with pytest.raises(ValueError):
        backoff_delay(1, 0, 0)


def test_fault_plan_parses_targets_and_attempts(monkeypatch):
    monkeypatch.setenv(FAULT_PLAN_ENV, "2:1:crash;trace[5]:*:raise")
    assert fault_for(2, "job[2]", 1) == "crash"
    assert fault_for(2, "job[2]", 2) is None       # attempt-specific
    assert fault_for(9, "trace[5]", 4) == "raise"  # label match, any attempt
    assert fault_for(0, "job[0]", 1) is None


def test_fault_plan_rejects_malformed_entries(monkeypatch):
    monkeypatch.setenv(FAULT_PLAN_ENV, "2:oops")
    with pytest.raises(ValueError, match="TARGET:ATTEMPT:KIND"):
        fault_for(2, "", 1)
    monkeypatch.setenv(FAULT_PLAN_ENV, "2:1:meltdown")
    with pytest.raises(ValueError, match="unknown fault kind"):
        fault_for(2, "", 1)


def test_require_results_raises_typed_batch_error():
    failure = JobFailure(label="t", index=3, error_type="FaultInjected",
                         message="boom", attempts=2)
    with pytest.raises(BatchError) as excinfo:
        require_results([None, failure])
    assert excinfo.value.failures == [failure]
    assert "[3] t: FaultInjected after 2 attempt(s)" in str(excinfo.value)
    ok = [object(), object()]
    assert require_results(ok) == ok


def test_cycle_limit_exceeded_is_typed_and_picklable():
    error = CycleLimitExceeded(pc=0x40, cycles=100, max_cycles=100)
    assert isinstance(error, CpuError)  # old except-clauses still work
    clone = pickle.loads(pickle.dumps(error))
    assert (clone.pc, clone.cycles, clone.max_cycles) == (0x40, 100, 100)
    assert "max_cycles=100" in str(clone) and "pc=0x00000040" in str(clone)


def test_job_timeout_survives_pickling():
    clone = pickle.loads(pickle.dumps(JobTimeout(1.5)))
    assert isinstance(clone, JobTimeout) and clone.seconds == 1.5


# -- failure policies (serial path) ----------------------------------------


def test_cycle_overrun_surfaces_pc_and_cycles(no_fault_plan):
    job = SimJob(program=assemble(ASM), max_cycles=3, label="runaway")
    (failure,) = run_jobs([job], failure_policy="collect")
    assert isinstance(failure, JobFailure)
    assert failure.error_type == "CycleLimitExceeded"
    assert failure.cycles == 3 and failure.pc is not None
    assert failure.attempts == 1


def test_raise_policy_rethrows_the_real_exception(monkeypatch):
    monkeypatch.setenv(FAULT_PLAN_ENV, "1:*:raise")
    with pytest.raises(FaultInjected):
        run_jobs(_batch(3))  # default policy is seed-compatible "raise"


def test_collect_policy_slots_failures_in_place(monkeypatch):
    monkeypatch.setenv(FAULT_PLAN_ENV, "1:*:raise")
    results = run_jobs(_batch(3), failure_policy="collect")
    assert isinstance(results[1], JobFailure)
    assert results[1].error_type == "FaultInjected"
    assert results[1].label == "job[1]" and results[1].index == 1
    assert results[0].cycles == results[2].cycles  # neighbors unharmed


def test_retry_policy_recovers_transient_failure_bit_identical(
        monkeypatch, no_fault_plan):
    clean = _energies(run_jobs(_batch()))
    monkeypatch.setenv(FAULT_PLAN_ENV, "1:1:raise;4:1:raise;4:2:raise")
    recovered = run_jobs(_batch(), failure_policy="retry", retries=2)
    for clean_energy, result in zip(clean, require_results(recovered)):
        assert np.array_equal(clean_energy, result.energy)


def test_retry_budget_is_bounded(monkeypatch):
    monkeypatch.setenv(FAULT_PLAN_ENV, "1:*:raise")
    results = run_jobs(_batch(3), failure_policy="retry", retries=2)
    assert isinstance(results[1], JobFailure)
    assert results[1].attempts == 3  # 1 first try + 2 retries


def test_garbage_worker_return_becomes_typed_failure(monkeypatch):
    monkeypatch.setenv(FAULT_PLAN_ENV, "0:*:garbage")
    results = run_jobs(_batch(2), failure_policy="collect")
    assert isinstance(results[0], JobFailure)
    assert results[0].error_type == "GarbageResult"
    assert "tuple" in results[0].message


def test_unknown_policy_and_negative_retries_rejected():
    with pytest.raises(ValueError, match="failure_policy"):
        run_jobs(_batch(2), failure_policy="ignore")
    with pytest.raises(ValueError, match="retries"):
        run_jobs(_batch(2), failure_policy="retry", retries=-1)


def test_in_worker_timeout_raises_typed_job_timeout(monkeypatch):
    monkeypatch.setenv(FAULT_PLAN_ENV, "0:*:hang")
    start = time.monotonic()
    (failure,) = run_jobs(_batch(1), failure_policy="collect",
                          job_timeout=0.3)
    assert isinstance(failure, JobFailure)
    assert failure.error_type == "JobTimeout"
    assert time.monotonic() - start < 5.0  # alarm fired, not the 1 h sleep


# -- process-pool fault recovery -------------------------------------------


@pytest.mark.slow
def test_worker_crash_retried_bit_identical_to_serial(
        monkeypatch, no_fault_plan):
    """ISSUE acceptance: kill one worker mid-batch; retried results must
    match a fault-free serial run bit for bit."""
    clean = _energies(run_jobs(_batch()))
    monkeypatch.setenv(FAULT_PLAN_ENV, "2:1:crash")
    results = run_jobs(_batch(), jobs=3, failure_policy="retry", retries=2)
    for clean_energy, result in zip(clean, require_results(results)):
        assert np.array_equal(clean_energy, result.energy)


@pytest.mark.slow
def test_worker_crash_under_raise_policy_propagates(monkeypatch):
    from concurrent.futures.process import BrokenProcessPool

    monkeypatch.setenv(FAULT_PLAN_ENV, "1:*:crash")
    with pytest.raises(BrokenProcessPool):
        run_jobs(_batch(4), jobs=2)


@pytest.mark.slow
def test_pool_soft_hang_killed_by_in_worker_alarm(monkeypatch):
    monkeypatch.setenv(FAULT_PLAN_ENV, "1:*:hang")
    results = run_jobs(_batch(4), jobs=2, failure_policy="collect",
                       job_timeout=0.5)
    assert isinstance(results[1], JobFailure)
    assert results[1].error_type == "JobTimeout"
    assert all(not isinstance(results[i], JobFailure) for i in (0, 2, 3))


@pytest.mark.slow
def test_pool_hard_hang_reaped_by_parent_deadline(monkeypatch, no_fault_plan):
    """A worker wedged in signal-blind code is killed from the parent;
    innocent in-flight jobs are requeued and still finish correctly."""
    clean = _energies(run_jobs(_batch()))
    monkeypatch.setenv(FAULT_PLAN_ENV, "1:*:hang-hard")
    start = time.monotonic()
    results = run_jobs(_batch(), jobs=3, failure_policy="collect",
                       job_timeout=0.5)
    assert time.monotonic() - start < 30.0  # reaped, not the 1 h sleep
    assert isinstance(results[1], JobFailure)
    assert results[1].error_type == "JobTimeout"
    for index, clean_energy in enumerate(clean):
        if index == 1:
            continue
        assert np.array_equal(clean_energy, results[index].energy)


@pytest.mark.slow
def test_pool_timeout_under_raise_policy_raises_job_timeout(monkeypatch):
    monkeypatch.setenv(FAULT_PLAN_ENV, "0:*:hang-hard")
    with pytest.raises(JobTimeout):
        run_jobs(_batch(3), jobs=2, job_timeout=0.5)


def test_pool_unavailable_degrades_to_serial(monkeypatch, caplog,
                                             no_fault_plan):
    from repro.harness import pool

    clean = _energies(run_jobs(_batch(4)))
    pool.reset_shared_pool()
    monkeypatch.setattr(pool, "_build_executor", lambda workers: None)
    with caplog.at_level(logging.WARNING, "repro.harness.pool"):
        # ``fast`` has no batch hook, so the batch asks the pool for a
        # lease under every ambient engine.
        results = run_jobs(_batch(4, engine="fast"), jobs=4)
    assert pool.pool_stats()["leases"] == 0
    for clean_energy, result in zip(clean, results):
        assert np.array_equal(clean_energy, result.energy)


# -- checkpoint / resume ----------------------------------------------------


def _counted_run(batch, checkpoint, **kwargs):
    """``run_jobs`` under a fresh obs scope: (results, counter totals)."""
    try:
        obs.enable()
        with obs.scope() as scoped:
            results = run_jobs(batch, checkpoint=checkpoint, **kwargs)
    finally:
        obs.disable()
    return results, obs.snapshot_totals(scoped.registry.snapshot())


def _resumed(totals):
    """(jobs served by the checkpoint, jobs executed and stored)."""
    return (totals.get("checkpoint_jobs_skipped", 0),
            totals.get("checkpoint_jobs_recorded", 0))


def _stored_results(directory):
    return sorted(directory.glob("result-*.pkl"))


def _assert_bit_identical(results, clean):
    assert len(results) == len(clean)
    for clean_result, result in zip(clean, results):
        assert np.array_equal(clean_result.energy, result.energy)


def test_checkpoint_resume_recomputes_only_unfinished(monkeypatch, tmp_path):
    """An interrupted batch resumed from its checkpoint directory
    recomputes only the unfinished jobs (verified via obs counters)."""
    checkpoint = tmp_path / "sweep"
    monkeypatch.setenv(FAULT_PLAN_ENV, "4:*:raise")
    first = run_jobs(_batch(), failure_policy="collect",
                     checkpoint=checkpoint)
    assert isinstance(first[4], JobFailure)  # 5 completed, 1 failed
    assert len(_stored_results(checkpoint)) == 5  # failures are not stored

    monkeypatch.delenv(FAULT_PLAN_ENV)
    seen = []
    resumed, totals = _counted_run(
        _batch(), checkpoint,
        progress=lambda done, total: seen.append((done, total)))
    assert seen == [(5, 6), (6, 6)]  # one catch-up tick, one real job
    assert _resumed(totals) == (5, 1)
    assert totals["jobs_prebuilt"] == 1  # exactly one simulation executed
    _assert_bit_identical(require_results(resumed), run_jobs(_batch()))


def test_checkpoint_changed_job_misses_unchanged_jobs_hit(tmp_path,
                                                         no_fault_plan):
    """Jobs are checked one at a time: editing one job of a sweep reruns
    that job alone, and the others come from the checkpoint."""
    checkpoint = tmp_path / "sweep"
    run_jobs(_batch(3), checkpoint=checkpoint)
    changed = _batch(3)
    changed[1].noise_sigma = 0.1
    resumed, totals = _counted_run(changed, checkpoint)
    assert _resumed(totals) == (2, 1)
    assert len(_stored_results(checkpoint)) == 4
    clean = _batch(3)
    clean[1].noise_sigma = 0.1
    _assert_bit_identical(resumed, run_jobs(clean))


def test_checkpoint_tolerates_truncated_tail(tmp_path, caplog,
                                             no_fault_plan):
    """A truncated entry fails its checksum: it is quarantined and that
    job alone is recomputed."""
    checkpoint = tmp_path / "sweep"
    batch = _batch(3)
    run_jobs(batch, checkpoint=checkpoint)
    entry = checkpoint / f"{result_key(batch[2])}.pkl"
    entry.write_bytes(entry.read_bytes()[:-7])
    with caplog.at_level(logging.WARNING, "repro.harness.engine"):
        resumed, totals = _counted_run(_batch(3), checkpoint)
    assert "checksum mismatch" in caplog.text
    assert _resumed(totals) == (2, 1)
    assert [path.name for path in checkpoint.glob("*.corrupt")] \
        == [f"{result_key(batch[2])}.corrupt"]
    _assert_bit_identical(resumed, run_jobs(_batch(3)))


def test_checkpoint_misses_after_a_source_edit(fresh_schedule_cache,
                                               monkeypatch, tmp_path,
                                               no_fault_plan):
    """A checkpoint written by other package sources serves nothing: the
    result key carries the source fingerprint, so every job reruns."""
    checkpoint = tmp_path / "sweep"
    run_jobs(_batch(4), checkpoint=checkpoint)
    monkeypatch.setattr(fingerprint, "source_fingerprint",
                        lambda: "edited" * 3)
    resumed, totals = _counted_run(_batch(4), checkpoint)
    assert _resumed(totals) == (0, 4)
    assert totals["jobs_prebuilt"] == 4
    _assert_bit_identical(resumed, run_jobs(_batch(4)))


def _attributed_cells(batch, checkpoint=None):
    """An attributed run's attribution cells, ``(pc, unit, class,
    secure) -> [pJ, events]``; its energies must match a clean run."""
    with obs.scope(attribution=True) as scoped:
        results = run_jobs(batch, checkpoint=checkpoint)
        snapshot = scoped.attribution.snapshot()
    _assert_bit_identical(results, run_jobs(_batch(len(batch), sigma=0.0)))
    return {tuple(cell[:4]): cell[4:] for cell in snapshot["cells"]}


def test_attributed_resume_never_takes_unattributed_results(tmp_path,
                                                            no_fault_plan):
    """An attributed run resumed from an unattributed checkpoint
    recomputes its jobs with attribution: the cells match a fresh
    attributed run key for key."""
    checkpoint = tmp_path / "sweep"
    run_jobs(_batch(4, sigma=0.0), checkpoint=checkpoint)
    fresh = _attributed_cells(_batch(4, sigma=0.0))
    assert fresh
    resumed = _attributed_cells(_batch(4, sigma=0.0), checkpoint)
    assert resumed.keys() == fresh.keys()
    assert resumed == fresh
    # The attributed results are stored apart, and serve the next
    # attributed resume.
    assert len(_stored_results(checkpoint)) == 8
    assert _attributed_cells(_batch(4, sigma=0.0), checkpoint) == fresh


def test_checkpoint_path_that_is_a_file_is_refused(tmp_path, no_fault_plan):
    """A journal file of an older version is not read, and the batch does
    not silently run without a checkpoint either."""
    journal = tmp_path / "sweep.ckpt"
    journal.write_bytes(pickle.dumps({"schema": "repro.checkpoint/v2"}))
    with pytest.raises(NotADirectoryError, match="takes a directory"):
        run_jobs(_batch(2), checkpoint=journal)
    assert journal.read_bytes() == pickle.dumps(
        {"schema": "repro.checkpoint/v2"})


@pytest.mark.parametrize("jobs", [1, 2])
def test_consumer_gets_every_slot_once_in_order(tmp_path, monkeypatch,
                                                jobs):
    """Checkpoint-resumed slots, pooled results and collected failures
    all reach a consumer once each, in submission order."""
    monkeypatch.setenv(FAULT_PLAN_ENV, "3:*:raise;4:*:raise")
    checkpoint = tmp_path / "batch"
    listed = run_jobs(_batch(6), failure_policy="collect",
                      checkpoint=checkpoint)
    seen = []
    consumed = run_jobs(_batch(6), jobs=jobs, failure_policy="collect",
                        checkpoint=checkpoint,
                        consume=lambda index, slot: seen.append(
                            (index, slot)))
    assert consumed == 6
    assert [index for index, _ in seen] == list(range(6))
    for (_, slot), expected in zip(seen, listed):
        if isinstance(expected, JobFailure):
            assert isinstance(slot, JobFailure)
            assert slot.index == expected.index
        else:
            assert np.array_equal(slot.energy, expected.energy)
    assert [type(slot) for _, slot in seen].count(JobFailure) == 2


def test_result_key_ignores_cached_schedule_digest():
    """A schedule pre-warm caches a digest on the program, a pipeline its
    encoded text; the result key of a job must not change with them."""
    from repro.machine import fastpath
    from repro.machine.pipeline import instruction_words

    batch = _batch(2)
    before = [result_key(job) for job in batch]
    assert fastpath.ensure_schedule(batch[0].program)
    instruction_words(batch[0].program)
    assert {"_fastpath_digest", "_encoded_text"} \
        <= vars(batch[0].program).keys()
    assert [result_key(job) for job in batch] == before \
        == [result_key(job) for job in _batch(2)]
    assert before[0] != before[1]  # the noise seed is part of the job
    assert all(key.startswith("result-") for key in before)


def test_checkpoint_compile_requests_digest_by_cache_key(monkeypatch):
    """A CompileRequest job is keyed by its program's cache key, so the
    key is stable, tells the variants apart, and follows the sources."""
    request_jobs = [SimJob(program=CompileRequest(spec=TINY_SPEC,
                                                  masking=masking),
                           des_pair=(0x133457799BBCDFF1, 0), label="job")
                    for masking in ("none", "selective")]
    keys = [result_key(job) for job in request_jobs]
    assert keys == [result_key(job) for job in request_jobs]  # stable
    assert keys[0] != keys[1]
    monkeypatch.setattr(fingerprint, "source_fingerprint", lambda: "e" * 16)
    assert not set(keys) & {result_key(job) for job in request_jobs}


def test_bit_flipped_entry_of_each_kind_is_quarantined_and_recomputed_once(
        fresh_schedule_cache, tmp_path, monkeypatch, caplog, no_fault_plan):
    """One flipped byte in a program, a schedule and a result entry: each
    fails its checksum before anything is unpickled, is moved aside, and
    is rebuilt exactly once; the resumed batch is bit-identical."""
    from repro.harness import engine as harness_engine
    from repro.machine import fastpath

    def batch():
        request = CompileRequest(spec=TINY_SPEC, masking="none")
        return [SimJob(program=request, des_pair=(0x133457799BBCDFF1, pt),
                       label=f"pt{pt}", engine="fast") for pt in (1, 2)]

    checkpoint = tmp_path / "ckpt"
    clean = run_jobs(batch(), checkpoint=checkpoint)
    entries = [*fresh_schedule_cache.glob("program-*.pkl"),
               *fresh_schedule_cache.glob("sched-*.pkl"),
               checkpoint / f"{result_key(batch()[1])}.pkl"]
    assert len(entries) == 3
    corrupt_payloads = []
    for entry in entries:
        data = bytearray(entry.read_bytes())
        data[len(data) // 2] ^= 0xFF
        entry.write_bytes(bytes(data))
        corrupt_payloads.append(bytes(data[4:]))

    monkeypatch.setattr(harness_engine, "_DEFAULT_CACHE", None)
    fastpath._clear_caches()
    calls = {"compile": 0, "record": 0}
    compile_request = CompileRequest.compile
    record_schedule = fastpath.record_schedule

    def counting_compile(self):
        calls["compile"] += 1
        return compile_request(self)

    def counting_record(*args, **kwargs):
        calls["record"] += 1
        return record_schedule(*args, **kwargs)

    unpickled = []
    loads = pickle.loads

    def spying_loads(data, *args, **kwargs):
        unpickled.append(bytes(data))
        return loads(data, *args, **kwargs)

    monkeypatch.setattr(CompileRequest, "compile", counting_compile)
    monkeypatch.setattr(fastpath, "record_schedule", counting_record)
    monkeypatch.setattr(harness_engine.pickle, "loads", spying_loads)
    with caplog.at_level(logging.WARNING, "repro.harness.engine"):
        resumed, totals = _counted_run(batch(), checkpoint)
    assert not set(corrupt_payloads) & set(unpickled)
    assert caplog.text.count("checksum mismatch") == 3
    assert _resumed(totals) == (1, 1)
    assert calls == {"compile": 1, "record": 1}
    corrupt = sorted(path.name.split("-")[0] for path in
                     [*fresh_schedule_cache.glob("*.corrupt"),
                      *checkpoint.glob("*.corrupt")])
    assert corrupt == ["program", "result", "sched"]
    assert resumed[1].engine == "fast"
    _assert_bit_identical(resumed, clean)
    # Every rebuilt entry is healthy: a third run reads all of them.
    monkeypatch.setattr(harness_engine, "_DEFAULT_CACHE", None)
    fastpath._clear_caches()
    again, totals = _counted_run(batch(), checkpoint)
    assert _resumed(totals) == (2, 0)
    assert calls == {"compile": 1, "record": 1}
    _assert_bit_identical(again, clean)


def test_tab1_resume_after_a_fault_recomputes_exactly_the_missing_job(
        monkeypatch, tmp_path):
    """Tab. 1's batch on two workers, one job failing every attempt: the
    rerun executes exactly that job, and the table equals a clean one."""
    from repro.harness.experiments import KEY_A, PT_A, tab1_policy_energy
    from repro.harness.sweeps import policy_jobs

    def tab1_batch():
        return policy_jobs(DEFAULT_PARAMS, rounds=1, key=KEY_A,
                           plaintext=PT_A)

    checkpoint = tmp_path / "tab1"
    monkeypatch.setenv(FAULT_PLAN_ENV, "all:*:raise")
    with pytest.raises(BatchError):
        tab1_policy_energy(rounds=1, jobs=2, retries=1,
                           checkpoint=str(checkpoint))
    assert len(_stored_results(checkpoint)) == 3

    monkeypatch.delenv(FAULT_PLAN_ENV)
    resumed, totals = _counted_run(tab1_batch(), checkpoint, jobs=2)
    assert _resumed(totals) == (3, 1)
    _assert_bit_identical(resumed, run_jobs(tab1_batch()))
    table = tab1_policy_energy(rounds=1, jobs=2, checkpoint=str(checkpoint))
    assert table.summary == tab1_policy_energy(rounds=1).summary


def test_tab1_rerun_that_runs_no_job_reports_no_job_metrics(
        tmp_path, no_fault_plan):
    """A job served from the checkpoint did not run in the rerun: the
    metrics and wall time stored with its result stay out of the rerun's
    registry, which counts the skipped jobs and nothing else of them."""
    from repro.harness.experiments import KEY_A, PT_A
    from repro.harness.sweeps import policy_jobs

    def tab1_batch():
        return policy_jobs(DEFAULT_PARAMS, rounds=1, key=KEY_A,
                           plaintext=PT_A)

    job_metrics = ("job_wall_seconds", "compile_cache_lookups")
    checkpoint = tmp_path / "tab1"
    _, first = _counted_run(tab1_batch(), checkpoint)
    assert _resumed(first) == (0, 4)
    assert first["job_wall_seconds_count"] == 4
    assert any(name.startswith("compile_cache_lookups") for name in first)
    resumed, rerun = _counted_run(tab1_batch(), checkpoint)
    assert _resumed(rerun) == (4, 0)
    assert [name for name in rerun if name.startswith(job_metrics)] == []
    _assert_bit_identical(resumed, run_jobs(tab1_batch()))


def test_checkpointed_batch_pickles_its_program_once(tmp_path, monkeypatch,
                                                     no_fault_plan):
    """Result keys digest each distinct program object once per batch:
    16 jobs on one program pickle it once, not 16 times (the keys
    themselves are pinned by the result-key tests)."""
    from repro.isa.program import Program

    pickled = []
    dumps = pickle.dumps

    def counting(obj, *args, **kwargs):
        if isinstance(obj, Program):
            pickled.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(pickle, "dumps", counting)
    checkpoint = tmp_path / "batch"
    results = run_jobs(_batch(16), checkpoint=checkpoint)
    assert len(pickled) == 1
    assert len(_stored_results(checkpoint)) == 16
    two_programs = _batch(8) + _batch(8)
    again = run_jobs(two_programs, checkpoint=checkpoint)
    assert len(pickled) == 3  # two program objects, one digest each
    _assert_bit_identical(again[:8], results[:8])  # the first 8 resumed


# -- compile-cache hygiene --------------------------------------------------


def test_corrupt_cache_entry_is_quarantined(tmp_path):
    request = CompileRequest(spec=TINY_SPEC, masking="none")
    CompileCache(directory=tmp_path).program_for(request)
    (artifact,) = tmp_path.glob("*.pkl")
    artifact.write_bytes(b"not a pickle at all")

    fresh = CompileCache(directory=tmp_path)
    program = fresh.program_for(request)  # recompiles instead of crashing
    assert program.text
    assert (fresh.stats.hits, fresh.stats.misses) == (0, 1)
    corrupt = list(tmp_path.glob("*.corrupt"))
    assert len(corrupt) == 1  # bad artifact moved aside, recompiled once
    again = CompileCache(directory=tmp_path)
    again.program_for(request)
    assert again.stats.hits == 1  # the re-stored artifact is healthy


def test_stale_writer_tmp_files_swept_on_construction(tmp_path):
    import os

    stale = tmp_path / "orphan.tmp"
    stale.write_bytes(b"half-written")
    old = time.time() - 2 * CompileCache.STALE_TMP_S
    os.utime(stale, (old, old))
    live = tmp_path / "busy.tmp"
    live.write_bytes(b"in flight")

    CompileCache(directory=tmp_path)
    assert not stale.exists()  # orphan swept
    assert live.exists()       # a live writer's file survives


# -- graceful interruption (SIGTERM/SIGINT) ---------------------------------


def test_sigterm_interrupts_serial_batch_preserving_checkpoint(
        tmp_path, no_fault_plan):
    """ISSUE satellite: SIGTERM mid-batch flushes the checkpoint, raises
    a typed BatchInterrupted (CLI exits nonzero), and the resumed run is
    bit-identical; the previous signal disposition is restored."""
    import os
    import signal as signal_module

    from repro.harness.resilience import BatchInterrupted

    checkpoint = tmp_path / "sweep"
    before = signal_module.getsignal(signal_module.SIGTERM)

    def fire(done, total):
        if done == 2:
            os.kill(os.getpid(), signal_module.SIGTERM)

    with pytest.raises(BatchInterrupted) as excinfo:
        run_jobs(_batch(), checkpoint=checkpoint, progress=fire)
    assert excinfo.value.done == 2 and excinfo.value.total == 6
    assert "SIGTERM" in str(excinfo.value)
    assert signal_module.getsignal(signal_module.SIGTERM) is before

    batch = _batch()
    assert [path.name for path in _stored_results(checkpoint)] == sorted(
        f"{result_key(job)}.pkl" for job in batch[:2])  # work persisted
    resumed, totals = _counted_run(batch, checkpoint)
    assert _resumed(totals) == (2, 4)
    _assert_bit_identical(resumed, run_jobs(_batch()))


@pytest.mark.slow
def test_sigint_interrupts_pool_batch_preserving_checkpoint(
        tmp_path, no_fault_plan):
    import os
    import signal as signal_module

    from repro.harness.resilience import BatchInterrupted

    checkpoint = tmp_path / "sweep"

    def fire(done, total):
        if done == 2:
            os.kill(os.getpid(), signal_module.SIGINT)

    with pytest.raises(BatchInterrupted) as excinfo:
        run_jobs(_batch(), jobs=3, checkpoint=checkpoint, progress=fire)
    assert excinfo.value.done >= 2
    assert "SIGINT" in str(excinfo.value)

    # Pool completions are unordered: whatever was stored is exactly
    # what the resume skips, and the rest runs once each.
    stored = len(_stored_results(checkpoint))
    assert stored == excinfo.value.done
    resumed, totals = _counted_run(_batch(), checkpoint, jobs=3)
    assert _resumed(totals) == (stored, 6 - stored)
    _assert_bit_identical(resumed, run_jobs(_batch()))
