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

from repro import obs
from repro.harness.engine import (CompileCache, CompileRequest, SimJob,
                                  run_jobs)
from repro.harness.resilience import (FAULT_PLAN_ENV, BatchError,
                                      CheckpointJournal, FaultInjected,
                                      JobFailure, JobTimeout, backoff_delay,
                                      batch_digest, fault_for,
                                      require_results)
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


def test_checkpoint_resume_recomputes_only_unfinished(monkeypatch, tmp_path):
    """ISSUE acceptance: an interrupted batch resumed from its journal
    recomputes only the unfinished jobs (verified via obs counters)."""
    journal_path = tmp_path / "sweep.ckpt"
    monkeypatch.setenv(FAULT_PLAN_ENV, "4:*:raise")
    first = run_jobs(_batch(), failure_policy="collect",
                     checkpoint=journal_path)
    assert isinstance(first[4], JobFailure)  # 5 completed, 1 failed

    monkeypatch.delenv(FAULT_PLAN_ENV)
    seen = []
    try:
        obs.enable()
        with obs.scope() as scoped:
            resumed = run_jobs(_batch(), checkpoint=journal_path,
                               progress=lambda d, t: seen.append((d, t)))
    finally:
        obs.disable()
    assert seen == [(5, 6), (6, 6)]  # one catch-up tick, one real job
    totals = obs.snapshot_totals(scoped.registry.snapshot())
    assert totals["checkpoint_jobs_skipped"] == 5
    assert totals["jobs_prebuilt"] == 1  # exactly one simulation executed
    clean = run_jobs(_batch())
    for clean_result, result in zip(clean, require_results(resumed)):
        assert np.array_equal(clean_result.energy, result.energy)


def test_checkpoint_digest_mismatch_starts_fresh(tmp_path, caplog,
                                                 no_fault_plan):
    journal_path = tmp_path / "sweep.ckpt"
    run_jobs(_batch(3), checkpoint=journal_path)
    different = _batch(3, sigma=0.1)  # same length, different content
    with caplog.at_level(logging.WARNING, "repro.harness.resilience"):
        journal = CheckpointJournal.open(journal_path, different)
    assert journal.completed == {}
    assert "digest mismatch" in caplog.text
    assert journal.digest == batch_digest(different)


def test_checkpoint_tolerates_truncated_tail(tmp_path, no_fault_plan):
    journal_path = tmp_path / "sweep.ckpt"
    run_jobs(_batch(3), checkpoint=journal_path)
    payload = journal_path.read_bytes()
    journal_path.write_bytes(payload[:-7])  # crash mid-append
    journal = CheckpointJournal.open(journal_path, _batch(3))
    assert len(journal.completed) == 2  # last frame dropped, prefix kept
    resumed = run_jobs(_batch(3), checkpoint=journal_path)
    clean = run_jobs(_batch(3))
    for clean_result, result in zip(clean, resumed):
        assert np.array_equal(clean_result.energy, result.energy)


def test_batch_digest_ignores_cached_schedule_digest():
    """A schedule pre-warm caches a digest on the program; the checkpoint
    identity of the batch must not change with it."""
    from repro.machine import fastpath

    batch = _batch(2)
    before = batch_digest(batch)
    assert fastpath.ensure_schedule(batch[0].program)
    assert "_fastpath_digest" in vars(batch[0].program)
    assert batch_digest(batch) == before == batch_digest(_batch(2))


def test_checkpoint_compile_requests_digest_by_cache_key(tmp_path):
    request_jobs = [SimJob(program=CompileRequest(spec=TINY_SPEC,
                                                  masking=masking),
                           des_pair=(0x133457799BBCDFF1, 0), label=masking)
                    for masking in ("none", "selective")]
    digest = batch_digest(request_jobs)
    assert digest == batch_digest(list(request_jobs))  # stable
    assert digest != batch_digest(list(reversed(request_jobs)))


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


# -- checkpoint CRC frames (v2) ---------------------------------------------


def _frame_offsets(journal_path):
    """Byte offsets of each record frame (header excluded)."""
    offsets = []
    with journal_path.open("rb") as stream:
        pickle.load(stream)  # header
        while True:
            offsets.append(stream.tell())
            try:
                pickle.load(stream)
            except EOFError:
                offsets.pop()
                break
    return offsets


def test_checkpoint_rejects_corrupt_mid_file_frame(tmp_path, caplog,
                                                   no_fault_plan):
    """A flipped bit in the *middle* of the journal (bit rot, torn write)
    must never come back as a plausible result: the CRC rejects the frame
    before unpickling, everything from it onward is recomputed, and the
    resumed batch is bit-identical to a clean run."""
    journal_path = tmp_path / "sweep.ckpt"
    run_jobs(_batch(4), checkpoint=journal_path)
    offsets = _frame_offsets(journal_path)
    assert len(offsets) == 4
    data = bytearray(journal_path.read_bytes())
    # Flip one byte deep inside record 1's payload: the outer pickle
    # still parses, so only the CRC can catch it.
    data[offsets[1] + (offsets[2] - offsets[1]) // 2] ^= 0xFF
    journal_path.write_bytes(bytes(data))

    with caplog.at_level(logging.WARNING, "repro.harness.resilience"):
        journal = CheckpointJournal.open(journal_path, _batch(4))
    assert set(journal.completed) == {0}  # strict prefix before the rot
    assert "CRC mismatch" in caplog.text or "unreadable frame" in caplog.text
    resumed = run_jobs(_batch(4), checkpoint=journal_path)
    clean = run_jobs(_batch(4))
    for clean_result, result in zip(clean, resumed):
        assert np.array_equal(clean_result.energy, result.energy)


def test_checkpoint_v1_journal_discarded_not_misread(tmp_path, caplog,
                                                     no_fault_plan):
    """Journals from the pre-CRC format are discarded whole — an old
    frame layout must not be reinterpreted as data."""
    batch = _batch(3)
    results = run_jobs(batch)
    journal_path = tmp_path / "sweep.ckpt"
    with journal_path.open("wb") as stream:
        pickle.dump({"schema": "repro.checkpoint/v1",
                     "digest": batch_digest(batch), "total": 3}, stream)
        for index, result in enumerate(results):
            pickle.dump((index, result), stream)  # v1: bare frames, no CRC
    with caplog.at_level(logging.WARNING, "repro.harness.resilience"):
        journal = CheckpointJournal.open(journal_path, batch)
    assert journal.completed == {}
    assert "schema or batch digest mismatch" in caplog.text


# -- graceful interruption (SIGTERM/SIGINT) ---------------------------------


def test_sigterm_interrupts_serial_batch_preserving_checkpoint(
        tmp_path, no_fault_plan):
    """ISSUE satellite: SIGTERM mid-batch flushes the checkpoint, raises
    a typed BatchInterrupted (CLI exits nonzero), and the resumed run is
    bit-identical; the previous signal disposition is restored."""
    import os
    import signal as signal_module

    from repro.harness.resilience import BatchInterrupted

    journal_path = tmp_path / "sweep.ckpt"
    before = signal_module.getsignal(signal_module.SIGTERM)

    def fire(done, total):
        if done == 2:
            os.kill(os.getpid(), signal_module.SIGTERM)

    with pytest.raises(BatchInterrupted) as excinfo:
        run_jobs(_batch(), checkpoint=journal_path, progress=fire)
    assert excinfo.value.done == 2 and excinfo.value.total == 6
    assert "SIGTERM" in str(excinfo.value)
    assert signal_module.getsignal(signal_module.SIGTERM) is before

    journal = CheckpointJournal.open(journal_path, _batch())
    assert set(journal.completed) == {0, 1}  # interrupted work persisted
    resumed = run_jobs(_batch(), checkpoint=journal_path)
    clean = run_jobs(_batch())
    for clean_result, result in zip(clean, resumed):
        assert np.array_equal(clean_result.energy, result.energy)


@pytest.mark.slow
def test_sigint_interrupts_pool_batch_preserving_checkpoint(
        tmp_path, no_fault_plan):
    import os
    import signal as signal_module

    from repro.harness.resilience import BatchInterrupted

    journal_path = tmp_path / "sweep.ckpt"

    def fire(done, total):
        if done == 2:
            os.kill(os.getpid(), signal_module.SIGINT)

    with pytest.raises(BatchInterrupted) as excinfo:
        run_jobs(_batch(), jobs=3, checkpoint=journal_path, progress=fire)
    assert excinfo.value.done >= 2
    assert "SIGINT" in str(excinfo.value)

    journal = CheckpointJournal.open(journal_path, _batch())
    assert len(journal.completed) >= 2  # pool completions are unordered
    resumed = run_jobs(_batch(), checkpoint=journal_path)
    clean = run_jobs(_batch())
    for clean_result, result in zip(clean, resumed):
        assert np.array_equal(clean_result.energy, result.energy)
