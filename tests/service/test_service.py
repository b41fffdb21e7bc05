"""LeakageService core: lifecycle, admission, deadlines, drain, metrics."""

import time

import pytest

from repro.service.errors import (AdmissionRejected, RequestNotFound,
                                  ShuttingDown)
from repro.service.executor import execute_assessment
from repro.service.protocol import (DONE, SHUTDOWN, TIMED_OUT,
                                    AssessRequest, RequestRecord)

from .conftest import pair_payload, population_payload


def _wait_running(record, timeout=10.0):
    deadline = time.monotonic() + timeout
    while record.state == "queued" and time.monotonic() < deadline:
        time.sleep(0.005)
    assert record.state != "queued"


def test_request_completes_bit_identical_to_local_execution(make_service):
    service = make_service(workers=1)
    record = service.submit(pair_payload())
    assert record.wait(60.0)
    assert record.state == DONE
    local = execute_assessment(AssessRequest.from_dict(pair_payload()))
    assert record.result["trace_digest"] == local["trace_digest"]
    assert record.result["verdict"] == local["verdict"]


def test_queue_overflow_is_typed_and_request_never_tracked(make_service):
    service = make_service(workers=1, queue_depth=1)
    blocker = service.submit(population_payload(n_traces=8))
    _wait_running(blocker)               # worker busy, queue empty
    queued = service.submit(pair_payload())
    with pytest.raises(AdmissionRejected) as excinfo:
        service.submit(pair_payload())
    assert excinfo.value.retry_after_s >= 1.0
    # The rejection itself is a terminal, queryable lifecycle record.
    rejected = [record for record in service.records()
                if record.state == "rejected"]
    assert len(rejected) == 1
    assert rejected[0].error.code == "admission_rejected"
    assert blocker.wait(60.0) and queued.wait(60.0)
    assert blocker.state == DONE and queued.state == DONE


def test_deadline_missed_while_queued_is_a_typed_timeout(make_service):
    service = make_service(workers=1)
    blocker = service.submit(population_payload(n_traces=8))
    _wait_running(blocker)
    doomed = service.submit(pair_payload(deadline_s=0.01))
    assert doomed.wait(60.0)
    assert doomed.state == TIMED_OUT
    assert doomed.error.code == "deadline_exceeded"
    assert "never executed" in doomed.error.message
    assert blocker.wait(60.0) and blocker.state == DONE


def test_unknown_request_id_raises_not_found(make_service):
    service = make_service(workers=1)
    with pytest.raises(RequestNotFound):
        service.get("req-999999")


def test_drain_finishes_inflight_and_fails_queued_typed(make_service):
    service = make_service(workers=1)
    inflight = service.submit(population_payload(n_traces=8))
    _wait_running(inflight)
    queued = [service.submit(pair_payload()) for _ in range(2)]
    summary = service.drain(grace_s=60.0)
    assert summary["drained"]
    assert summary["queued_failed_typed"] == 2
    assert summary["workers_alive"] == 0
    # The shared warm pool must drain deterministically with the
    # service: no worker process may survive the drain.
    assert summary.get("pool", {}).get("stranded_workers", 0) == 0
    assert inflight.state == DONE      # in-flight work finished
    for record in queued:
        assert record.state == SHUTDOWN
        assert record.error.code == "shutting_down"
        assert record.error.retryable
    with pytest.raises(ShuttingDown):  # drained service admits nothing
        service.submit(pair_payload())
    # Acceptance invariant: every submitted request is terminal, once.
    states = [record.state for record in service.records()]
    assert all(state in ("done", "shutdown") for state in states)
    assert service.drain() == summary  # idempotent


def test_health_and_readiness_reflect_drain(make_service):
    service = make_service(workers=2)
    ready, reason = service.ready()
    assert ready and reason == "ok"
    health = service.health()
    assert health["status"] == "ok"
    assert health["workers_alive"] == 2
    assert health["queue_capacity"] == 64
    service.drain(grace_s=30.0)
    ready, reason = service.ready()
    assert not ready and reason == "draining"
    assert service.health()["status"] == "draining"


def test_slo_metrics_published_after_requests(make_service):
    service = make_service(workers=1)
    record = service.submit(pair_payload())
    assert record.wait(60.0)
    snapshot = service.metrics_snapshot()
    for name in ("service_request_seconds", "service_queue_seconds",
                 "service_queue_depth", "service_inflight",
                 "service_goodput_traces_total", "service_breaker_open",
                 "service_terminal_total", "service_requests_total"):
        assert name in snapshot, name
    latency = snapshot["service_request_seconds"]
    assert latency["kind"] == "histogram"
    (series,) = [entry for entry in latency["series"]
                 if entry["labels"].get("outcome") == "done"]
    assert series["count"] == 1
    assert series["p50"] is not None  # the SLO quantiles are published
    assert "p95" in series and "p99" in series


def test_journal_accounts_for_the_whole_session(make_service, tmp_path):
    from repro.service.journal import replay

    journal_path = tmp_path / "requests.jsonl"
    service = make_service(workers=1, journal=journal_path)
    done = service.submit(pair_payload())
    assert done.wait(60.0)
    service.drain(grace_s=30.0)
    report = replay(journal_path)
    assert report.completed == {"done": 1}
    assert report.interrupted == []
    # A restarted service surfaces the previous session via /v1/recovery.
    second = make_service(workers=1, journal=journal_path)
    recovery = second.recovery_report()
    assert recovery["completed"] == {"done": 1}
    assert recovery["sessions"] == 1


def test_history_limit_evicts_terminal_records_past_an_inflight_one(
        make_service):
    """An in-flight oldest record must not stop eviction of the finished
    records behind it; the in-flight one itself is never evicted."""
    service = make_service(workers=1, history_limit=4)
    request = AssessRequest.from_dict(pair_payload())
    inflight = RequestRecord(request=request)
    service._remember(inflight)
    finished = []
    for _ in range(100):
        record = RequestRecord(request=request)
        record.finish(DONE)
        service._remember(record)
        finished.append(record)
    kept = service.records()
    assert len(kept) == 4
    assert kept[0] is inflight
    assert kept[1:] == finished[-3:]  # the newest terminal records stay
    assert service.get(inflight.id) is inflight


def test_health_and_drain_count_every_terminal_past_history_limit(
        make_service, tmp_path):
    """Terminal outcomes are counted over the whole session, not over
    the ``history_limit`` records the service still retains."""
    import json

    from repro.service.errors import QuotaExceeded

    manifest_path = tmp_path / "service-manifest.json"
    service = make_service(workers=1, history_limit=4, quota_rps=0.001,
                           quota_burst=10, manifest_out=manifest_path)
    for seed in range(10):
        record = service.submit(pair_payload(seed=seed))
        assert record.wait(60.0) and record.state == DONE
    with pytest.raises(QuotaExceeded):
        service.submit(pair_payload())
    assert len(service.records()) == 4  # the rest were evicted
    assert service.health()["terminal"] == {"done": 10, "rejected": 1}
    summary = service.drain(grace_s=30.0)
    assert summary["inflight_finished"] == 10
    manifest = json.loads(manifest_path.read_text())
    assert manifest["summary"]["terminal_done"] == 10
    assert manifest["summary"]["terminal_rejected"] == 1


def test_manifest_written_on_drain(make_service, tmp_path):
    import json

    manifest_path = tmp_path / "service-manifest.json"
    service = make_service(workers=1, manifest_out=manifest_path)
    record = service.submit(pair_payload())
    assert record.wait(60.0)
    summary = service.drain(grace_s=30.0)
    assert summary["manifest"] == str(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    assert manifest["experiment_id"] == "service"
    assert manifest["summary"]["terminal_done"] == 1
    assert "service_request_seconds" in manifest["metrics"]


@pytest.mark.slow
def test_worker_crashes_trip_breaker_and_quarantine_program(
        make_service, monkeypatch):
    """A program variant that SIGKILLs pool workers gets quarantined
    after `threshold` crashing requests; other variants keep serving."""
    from repro.harness.resilience import FAULT_PLAN_ENV

    from repro.service.errors import ProgramQuarantined

    monkeypatch.setenv(FAULT_PLAN_ENV, "trace[0]:*:crash")
    service = make_service(workers=1, jobs=2, retries=1,
                           breaker_threshold=1, breaker_cooldown_s=300.0)
    crasher = service.submit(pair_payload())
    assert crasher.wait(120.0)
    assert crasher.state == "failed"
    assert crasher.error.code == "request_failed"
    with pytest.raises(ProgramQuarantined) as excinfo:
        service.submit(pair_payload())
    assert excinfo.value.retry_after_s is not None
    health = service.health()
    assert health["breaker_open"] == 1
    snapshot = service.metrics_snapshot()
    assert "service_worker_crashes_total" in snapshot
    assert "service_breaker_trips_total" in snapshot
    assert "service_rejections_total" in snapshot
