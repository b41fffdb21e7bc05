"""execute_assessment: bit-identity, chunked cancellation, typed failures."""

import threading
import time

import pytest

from repro.harness.engine import CompileCache
from repro.service.errors import DeadlineExceeded, ShuttingDown
from repro.service.executor import (CRASH_ERROR_TYPES, ExecutionFailed,
                                    execute_assessment)
from repro.service.protocol import AssessRequest

from .conftest import pair_payload, population_payload


def _request(payload: dict) -> AssessRequest:
    return AssessRequest.from_dict(payload)


def test_pair_assessment_is_deterministic_and_complete(tmp_path):
    cache = CompileCache(directory=tmp_path)
    result = execute_assessment(_request(pair_payload()), cache=cache)
    again = execute_assessment(_request(pair_payload()), cache=cache)
    assert result["trace_digest"] == again["trace_digest"]
    assert result["n_traces"] == 2
    assert result["verdict"]["mode"] == "pair"
    assert "passed" in result["verdict"]
    assert result["cache_hit"] is False and again["cache_hit"] is True
    assert sum(result["engines"].values()) == 2


def test_population_assessment_partitions_and_judges(tmp_path):
    cache = CompileCache(directory=tmp_path)
    result = execute_assessment(
        _request(population_payload(n_traces=4)), cache=cache)
    assert result["n_traces"] == 4
    assert result["verdict"]["mode"] == "population"


def test_chunking_does_not_change_the_digest(tmp_path):
    """The cancellation granularity must be invisible in the results."""
    cache = CompileCache(directory=tmp_path)
    request = _request(population_payload(n_traces=4))
    whole = execute_assessment(request, cache=cache, chunk_size=16)
    seen = []
    chunked = execute_assessment(request, cache=cache, chunk_size=1,
                                 on_chunk=lambda done, total:
                                 seen.append((done, total)))
    assert chunked["trace_digest"] == whole["trace_digest"]
    assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]


def test_noise_seeds_match_collect_traces_convention(tmp_path):
    """Structural bit-identity: the service builds the same jobs as the
    batch attack path (noise_seed = index + 1), so noisy requests are
    reproducible too."""
    cache = CompileCache(directory=tmp_path)
    request = _request(pair_payload(noise_sigma=0.5))
    first = execute_assessment(request, cache=cache)
    second = execute_assessment(request, cache=cache)
    assert first["trace_digest"] == second["trace_digest"]
    assert first["trace_digest"] != execute_assessment(
        _request(pair_payload()), cache=cache)["trace_digest"]


def test_expired_deadline_raises_typed_error_before_work(tmp_path):
    cache = CompileCache(directory=tmp_path)
    with pytest.raises(DeadlineExceeded, match="0/2"):
        execute_assessment(_request(pair_payload()), cache=cache,
                           deadline_monotonic=time.monotonic() - 1.0)


def test_cancel_event_raises_typed_shutdown_between_chunks(tmp_path):
    cache = CompileCache(directory=tmp_path)
    cancel = threading.Event()
    seen = []

    def cancel_after_first_chunk(done, total):
        seen.append(done)
        cancel.set()

    with pytest.raises(ShuttingDown, match="1/4"):
        execute_assessment(_request(population_payload(n_traces=4)),
                           cache=cache, chunk_size=1, cancel=cancel,
                           on_chunk=cancel_after_first_chunk)
    assert seen == [1]  # exactly one chunk ran after the cancel request


def test_job_failures_surface_as_typed_execution_failure(
        tmp_path, monkeypatch):
    from repro.harness.resilience import FAULT_PLAN_ENV

    cache = CompileCache(directory=tmp_path)
    monkeypatch.setenv(FAULT_PLAN_ENV, "trace[1]:*:raise")
    with pytest.raises(ExecutionFailed) as excinfo:
        execute_assessment(_request(pair_payload()), cache=cache,
                           retries=1)
    assert excinfo.value.http_status == 500
    (failure,) = excinfo.value.failures
    assert failure.error_type == "FaultInjected"
    assert failure.attempts == 2
    assert not excinfo.value.crashed_workers  # honest failure: no breaker


def test_crash_error_types_feed_the_breaker():
    from repro.harness.resilience import JobFailure

    crash = ExecutionFailed("boom", [JobFailure(
        label="trace[0]", index=0, error_type="WorkerCrash",
        message="pool broke", attempts=3)])
    assert crash.crashed_workers
    assert "WorkerCrash" in CRASH_ERROR_TYPES


def test_pooled_assessment_records_schedule_in_parent(tmp_path, monkeypatch):
    """Under ``--jobs N`` the schedule is recorded parent-side before the
    pool lease, so the workers never record it themselves."""
    from repro.harness import engine as harness_engine
    from repro.machine import fastpath

    monkeypatch.setenv("REPRO_COMPILE_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_ENGINE", "fast")
    monkeypatch.setattr(harness_engine, "_DEFAULT_CACHE", None)
    fastpath._clear_caches()
    cache = CompileCache(directory=tmp_path)
    request = _request(pair_payload())
    try:
        execute_assessment(request, cache=cache, jobs=2)
        program = cache.program_for(request.compile_request())
        key = fastpath._schedule_cache_key(fastpath.program_digest(program),
                                           True)
        assert key in harness_engine.default_cache().memory
    finally:
        fastpath._clear_caches()


@pytest.mark.parametrize("payload", [pair_payload(),
                                     population_payload(n_traces=4)],
                         ids=["pair", "population"])
def test_a_trace_of_another_length_fails_as_the_verdict_did(monkeypatch,
                                                            payload):
    """Rows are filled as traces arrive; a trace whose length differs
    from the first raises the ValueError of the verdict's own alignment
    check — ``EnergyTrace.diff`` for a pair, ``np.vstack`` for a
    population — naming the same lengths and index."""
    import numpy as np

    from repro.energy.trace import EnergyTrace
    from repro.harness.engine import JobResult
    from repro.service import executor

    lengths = [12, 11] if payload["mode"] == "pair" else [12, 12, 11, 12]
    energies = [np.full(length, float(index))
                for index, length in enumerate(lengths)]

    def fake_run_jobs(chunk, consume, **_kwargs):
        for index, energy in enumerate(energies):
            consume(index, JobResult(label=f"trace[{index}]",
                                     cycles=energy.size, energy=energy))
        return len(energies)

    if payload["mode"] == "pair":
        def expected():
            EnergyTrace(energies[0]).diff(EnergyTrace(energies[1]))
    else:
        def expected():
            np.vstack(energies)
    with pytest.raises(ValueError) as verdict_error:
        expected()
    monkeypatch.setattr(executor, "run_jobs", fake_run_jobs)
    with pytest.raises(ValueError) as error:
        execute_assessment(_request(payload))
    assert str(error.value) == str(verdict_error.value)


def test_a_request_holds_each_trace_once(tmp_path, monkeypatch):
    """A trace's JobResult is dropped once its energy is copied into the
    request's matrix: at each copy the only live JobResult is the one
    being copied, so no full trace is held twice."""
    import gc

    from repro.harness.engine import JobResult
    from repro.service import executor

    def live_results():
        return sum(isinstance(item, JobResult) for item in gc.get_objects())

    alive = []
    check = executor._check_aligned

    def counting(mode, rows, index, energy):
        alive.append(live_results())
        return check(mode, rows, index, energy)

    monkeypatch.setattr(executor, "_check_aligned", counting)
    cache = CompileCache(directory=tmp_path)
    request = _request(population_payload(n_traces=6))
    gc.collect()
    before = live_results()  # other tests' results still referenced
    document = execute_assessment(request, cache=cache)
    monkeypatch.setattr(executor, "_check_aligned", check)
    assert alive == [before + 1] * 6
    assert document == dict(execute_assessment(request, cache=cache),
                            wall_s=document["wall_s"], cache_hit=False)
