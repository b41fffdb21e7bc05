"""Shared worker pool: leasing, generations, fingerprints, shutdown.

Every test runs against a real forked ``ProcessPoolExecutor`` (the pool
module has no mock path) but keeps worker counts at 1, so the suite
stays cheap.  The singleton is reset around every test — shared state
must never leak between tests, exactly as it must never leak between a
daemon's requests.
"""

import os

import pytest

from repro.harness import pool as pool_module
from repro.harness import resilience
from repro.harness.engine import SimJob, run_jobs
from repro.harness.pool import (FINGERPRINT_KEYS, SharedWorkerPool,
                                environment_fingerprint)
from repro.isa.assembler import assemble

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


def _echo(value):
    return value


@pytest.fixture(autouse=True)
def fresh_pool(monkeypatch):
    """Isolate the process-wide singleton and the fault-plan env."""
    monkeypatch.delenv(resilience.FAULT_PLAN_ENV, raising=False)
    pool_module.reset_shared_pool()
    yield
    pool_module.reset_shared_pool()


def _jobs(count=2):
    """Per-job batches under every ambient engine: ``fast`` has no batch
    hook, so ``run_jobs(..., jobs=2)`` always reaches the pool."""
    program = assemble(ASM)
    return [SimJob(program=program, noise_sigma=0.5, noise_seed=i + 1,
                   label=f"job[{i}]", engine="fast") for i in range(count)]


# -- leasing ----------------------------------------------------------------


def test_second_acquire_reuses_warm_generation():
    pool = SharedWorkerPool()
    lease = pool.acquire(1)
    assert lease is not None
    assert lease.submit(_echo, 17).result(timeout=30) == 17
    lease.release()
    again = pool.acquire(1)
    assert again is not None
    assert again.submit(_echo, 18).result(timeout=30) == 18
    again.release()
    stats = pool.shutdown(grace_s=10.0)
    assert stats["cold_builds"] == 1
    assert stats["warm_acquires"] == 1
    assert stats["generation"] == 1
    assert stats["stranded_workers"] == 0


def test_concurrent_batch_overflows_to_serial():
    """While another batch holds the lease, a parallel batch runs
    serially in-process — bit-identical to a plain serial run."""
    import numpy as np

    serial = run_jobs(_jobs(), jobs=1)
    holder = pool_module.acquire_lease(1)
    try:
        assert holder is not None
        overflow = run_jobs(_jobs(), jobs=2)
    finally:
        holder.release()
    for a, b in zip(serial, overflow):
        assert np.array_equal(a.energy, b.energy)
    stats = pool_module.shutdown_shared_pool(grace_s=10.0)
    assert stats["leases"] == 1
    assert stats["serial_overflows"] == 1
    assert stats["stranded_workers"] == 0


def test_kill_and_rebuild_forks_a_fresh_generation():
    pool = SharedWorkerPool()
    lease = pool.acquire(1)
    first_generation = pool.stats()["generation"]
    assert lease.replace()
    assert pool.stats()["generation"] == first_generation + 1
    assert lease.submit(_echo, 5).result(timeout=30) == 5
    lease.release()
    stats = pool.shutdown(grace_s=10.0)
    assert stats["rebuilds"] == 1
    assert stats["stranded_workers"] == 0


def test_release_with_running_work_retires_the_generation():
    import time as time_module

    pool = SharedWorkerPool()
    lease = pool.acquire(1)
    generation = pool.stats()["generation"]
    lease.submit(time_module.sleep, 60)
    lease.release()  # must not block for the sleeping worker
    follow_up = pool.acquire(1)
    assert follow_up is not None
    assert pool.stats()["generation"] == generation + 1
    assert follow_up.submit(_echo, 9).result(timeout=30) == 9
    follow_up.release()
    assert pool.shutdown(grace_s=10.0)["stranded_workers"] == 0


# -- environment fingerprinting ---------------------------------------------


def test_fingerprint_covers_the_worker_facing_environment(monkeypatch):
    for key in FINGERPRINT_KEYS:
        monkeypatch.delenv(key, raising=False)
    baseline = environment_fingerprint()
    monkeypatch.setenv("REPRO_FAULT_PLAN", "1:1:crash")
    assert environment_fingerprint() != baseline


def test_fingerprint_change_rebuilds_idle_pool(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    pool = SharedWorkerPool()
    lease = pool.acquire(1)
    lease.release()
    generation = pool.stats()["generation"]
    monkeypatch.setenv("REPRO_FAULT_PLAN", "99:9:crash")  # never matches
    lease = pool.acquire(1)
    assert lease is not None
    assert pool.stats()["generation"] == generation + 1
    assert pool.stats()["fingerprint_rebuilds"] == 1
    lease.release()
    pool.shutdown(grace_s=10.0)


# -- shutdown ---------------------------------------------------------------


def test_shutdown_is_idempotent_and_acquire_after_is_serial():
    pool_module.acquire_lease(1).release()
    first = pool_module.shutdown_shared_pool(grace_s=10.0)
    assert first["shut_down"] and first["stranded_workers"] == 0
    again = pool_module.shutdown_shared_pool(grace_s=10.0)
    assert again["stranded_workers"] == 0
    assert pool_module.acquire_lease(1) is None
    # A parallel batch after shutdown still completes, serially.
    results = run_jobs(_jobs(), jobs=2)
    assert [result.label for result in results] == ["job[0]", "job[1]"]
    assert pool_module.pool_stats()["serial_overflows"] == 2


# -- resilience integration -------------------------------------------------


def test_run_jobs_batches_share_one_warm_pool():
    """Two consecutive parallel batches: the second must lease the warm
    generation instead of forking a fresh pool, bit-identically."""
    first = run_jobs(_jobs(), jobs=2)
    second = run_jobs(_jobs(), jobs=2)
    for a, b in zip(first, second):
        assert (a.energy == b.energy).all()
    stats = pool_module.pool_stats()
    assert stats is not None
    assert stats["leases"] == 2
    assert stats["warm_acquires"] >= 1
    assert stats["generation"] == 1


def test_broken_pool_recovery_leaves_no_stranded_workers(monkeypatch):
    """The broken-pool cleanup contract, extended to the shared pool: a
    worker crash that condemns the executor mid-batch must end with a
    rebuilt generation serving correct results, and the pool's own
    shutdown must account for zero stranded worker processes."""
    import numpy as np

    clean = [result.energy for result in run_jobs(_jobs(4))]
    monkeypatch.setenv(resilience.FAULT_PLAN_ENV, "job[2]:1:crash")
    results = run_jobs(_jobs(4), jobs=2, failure_policy="retry", retries=2)
    for clean_energy, result in zip(clean, results):
        assert np.array_equal(clean_energy, result.energy)
    summary = pool_module.shutdown_shared_pool(grace_s=30.0)
    assert summary is not None
    assert summary["stranded_workers"] == 0
    assert summary["rebuilds"] >= 1
