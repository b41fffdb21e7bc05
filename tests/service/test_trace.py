"""Request tracing: timelines for every terminal state, trace/report
endpoints, event-log replay, trace-ID propagation, 429 backoff."""

import random
import threading
import time

import pytest

from repro.obs.events import replay_events, timeline_from_events
from repro.service.client import ServiceClient, backoff_delay
from repro.service.core import ServiceConfig
from repro.service.errors import (AdmissionRejected, InvalidRequest,
                                  ProgramQuarantined, RequestNotFound)
from repro.service.executor import execute_assessment
from repro.service.protocol import (DONE, SHUTDOWN, TIMED_OUT,
                                    AssessRequest, make_trace_id)
from repro.service.server import ServiceServer

from .conftest import pair_payload, population_payload


def _events(record) -> list[str]:
    return [entry["event"] for entry in record.timeline]


def _wait_running(record, timeout=10.0):
    deadline = time.monotonic() + timeout
    while record.state == "queued" and time.monotonic() < deadline:
        time.sleep(0.005)
    assert record.state != "queued"


# -- lifecycle timelines (every terminal state is explainable) --------------


def test_done_request_timeline_and_spans(make_service):
    service = make_service()
    record = service.submit(pair_payload())
    assert record.wait(60.0) and record.state == DONE
    events = _events(record)
    assert events[0] == "received"
    assert events[1] == "admitted"
    assert "started" in events and events[-1] == "terminal"
    assert "chunk" in events
    assert 0.0 <= record.timeline[0]["t_s"] < 1.0
    started = next(e for e in record.timeline if e["event"] == "started")
    assert started["queued_s"] >= 0.0
    # the span tree went through compile -> chunk -> verdict
    names = {span["name"] for span in record.spans}
    assert {"compile", "verdict"} <= names
    assert any(name.startswith("chunk[") for name in names)
    assert not record.spans_compacted


def test_rejected_429_timeline_is_queryable(make_service):
    service = make_service(queue_depth=1)
    blocker = service.submit(population_payload(n_traces=8))
    _wait_running(blocker)
    service.submit(pair_payload())
    with pytest.raises(AdmissionRejected) as excinfo:
        service.submit(pair_payload())
    error = excinfo.value
    assert error.request_id is not None
    assert error.trace_id is not None
    rejected = service.get(error.request_id)
    assert rejected.state == "rejected"
    assert _events(rejected) == ["received", "terminal"]
    assert rejected.timeline[-1]["code"] == "admission_rejected"
    assert blocker.wait(60.0)


def test_queued_past_deadline_timeline(make_service):
    service = make_service()
    blocker = service.submit(population_payload(n_traces=8))
    _wait_running(blocker)
    doomed = service.submit(pair_payload(deadline_s=0.01))
    assert doomed.wait(60.0) and doomed.state == TIMED_OUT
    assert _events(doomed) == ["received", "admitted", "terminal"]
    assert doomed.timeline[-1]["code"] == "deadline_exceeded"
    assert doomed.error.request_id == doomed.id
    assert blocker.wait(60.0)


def test_breaker_rejection_timeline(make_service):
    service = make_service(breaker_threshold=1,
                           breaker_cooldown_s=300.0)
    program_key = AssessRequest.from_dict(pair_payload()).program_key()
    service.breaker.record_crash(program_key)
    with pytest.raises(ProgramQuarantined) as excinfo:
        service.submit(pair_payload())
    quarantined = service.get(excinfo.value.request_id)
    assert quarantined.terminal
    assert _events(quarantined) == ["received", "terminal"]
    assert quarantined.timeline[-1]["code"] == "program_quarantined"


def test_drained_queued_request_timeline(make_service):
    service = make_service()
    blocker = service.submit(population_payload(n_traces=8))
    _wait_running(blocker)
    queued = service.submit(pair_payload())
    service.drain(grace_s=60.0)
    assert queued.state == SHUTDOWN
    assert _events(queued) == ["received", "admitted", "terminal"]
    assert queued.timeline[-1]["code"] == "shutting_down"
    assert queued.error.request_id == queued.id


# -- bit-identity and partial traces ----------------------------------------


def test_traced_result_bit_identical_to_untraced_local(make_service):
    """Request tracing must never perturb the simulated energies."""
    service = make_service()
    record = service.submit(pair_payload(attribution=True))
    assert record.wait(60.0) and record.state == DONE
    local = execute_assessment(AssessRequest.from_dict(pair_payload()))
    assert record.result["trace_digest"] == local["trace_digest"]
    assert record.result["verdict"] == local["verdict"]
    assert record.attribution_snapshot is not None


def test_tracing_disabled_still_keeps_timeline(make_service):
    service = make_service(trace_requests=False)
    record = service.submit(pair_payload())
    assert record.wait(60.0) and record.state == DONE
    assert record.spans is None
    assert _events(record)[0] == "received"
    assert _events(record)[-1] == "terminal"


def test_span_forest_compaction_above_limit(make_service):
    service = make_service(span_tree_limit=2)
    record = service.submit(pair_payload())
    assert record.wait(60.0) and record.state == DONE
    assert record.spans_compacted
    (aggregated,) = record.spans
    assert aggregated["count"] >= 1  # flamegraph frame tree


@pytest.mark.slow
def test_failed_request_keeps_partial_spans_and_failing_phase(
        make_service, monkeypatch):
    """A mid-chunk worker crash must leave the successful jobs' spans
    and a `chunk_failed` timeline entry behind (satellite fix)."""
    from repro.harness.resilience import FAULT_PLAN_ENV

    monkeypatch.setenv(FAULT_PLAN_ENV, "trace[0]:*:crash")
    service = make_service(jobs=2, retries=0)
    record = service.submit(pair_payload())
    assert record.wait(120.0)
    assert record.state == "failed"
    events = _events(record)
    assert "chunk_failed" in events
    failed = next(e for e in record.timeline
                  if e["event"] == "chunk_failed")
    assert failed["failed"] >= 1 and failed["total"] == 2
    assert record.spans is not None  # partial tree, not dropped
    assert events[-1] == "terminal"


# -- event log --------------------------------------------------------------


def _without_t_s(timeline):
    return [{key: value for key, value in entry.items() if key != "t_s"}
            for entry in timeline]


def test_event_log_replay_matches_live_timeline(make_service, tmp_path):
    """One record per transition: the event-log line and the live
    timeline entry carry the same fields, so a replayed timeline equals
    the live one except ``t_s`` (monotonic live, wall-clock replayed)."""
    log_path = tmp_path / "events.jsonl"
    service = make_service(event_log=log_path)
    record = service.submit(pair_payload())
    assert record.wait(60.0) and record.state == DONE
    cached = service.submit(pair_payload())  # verdict_cache_hit path too
    assert cached.wait(60.0) and cached.state == DONE
    service.drain(grace_s=30.0)
    events = replay_events(log_path)
    for live in (record, cached):
        replayed = timeline_from_events(events, live.id)
        assert [entry["event"] for entry in replayed] == _events(live)
        assert _without_t_s(replayed) == _without_t_s(live.timeline)
    # the replayed timeline carries the same detail payloads
    replayed = timeline_from_events(events, record.id)
    assert replayed[-1]["state"] == DONE
    assert replayed[0]["program"] == record.timeline[0]["program"]
    assert "verdict_cache_hit" in _events(cached)


def test_received_entry_names_the_program_by_its_digest(make_service):
    """The ``received`` entry's ``program`` is the first 12 hex digits of
    the program key's digest, not the key's ``program-`` kind prefix."""
    service = make_service()
    record = service.submit(pair_payload())
    assert record.wait(60.0) and record.state == DONE
    kind, _, digest = \
        AssessRequest.from_dict(pair_payload()).program_key().partition("-")
    received = record.timeline[0]
    assert (kind, received["event"]) == ("program", "received")
    assert len(received["program"]) == 12
    assert digest.startswith(received["program"])


# -- trace-ID minting and propagation ---------------------------------------


def test_make_trace_id_accepts_and_mints():
    assert make_trace_id("client-abc_1.2:3") == "client-abc_1.2:3"
    minted = make_trace_id(None)
    assert minted.startswith("tr-") and minted != make_trace_id(None)
    with pytest.raises(InvalidRequest):
        make_trace_id("bad id with spaces")
    with pytest.raises(InvalidRequest):
        make_trace_id("x" * 200)


def test_submit_carries_client_trace_id(make_service):
    service = make_service()
    record = service.submit(pair_payload(), trace_id="tr-mine")
    assert record.trace_id == "tr-mine"
    assert record.wait(60.0)
    assert record.trace_document()["trace_id"] == "tr-mine"


# -- HTTP endpoints ---------------------------------------------------------


@pytest.fixture
def server():
    instance = ServiceServer(
        host="127.0.0.1", port=0,
        config=ServiceConfig(queue_depth=8))
    thread = threading.Thread(target=instance.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()
    instance.service.drain(grace_s=30.0)
    thread.join(timeout=10.0)


@pytest.fixture
def client(server):
    host, port = server.address
    return ServiceClient(f"http://{host}:{port}")


def test_trace_endpoint_for_completed_request(client):
    document = client.assess_detailed(pair_payload(), timeout_s=120.0)
    trace = client.trace(document["id"])
    assert trace["id"] == document["id"]
    assert trace["trace_id"] == document["trace_id"]
    assert trace["state"] == DONE and trace["terminal"]
    assert [entry["event"] for entry in trace["timeline"]][0] == "received"
    assert "result" not in trace  # the report endpoint merges results
    assert any(span["name"] == "verdict" for span in trace["spans"])


def test_trace_endpoint_unknown_id_is_typed_404(client):
    with pytest.raises(RequestNotFound):
        client.trace("req-999999")
    with pytest.raises(RequestNotFound):
        client._call("GET", "/v1/requests/req-1/nope")


def test_report_html_for_completed_request(client):
    document = client.assess_detailed(pair_payload(), timeout_s=120.0)
    html = client.report_html(document["id"])
    assert html.lstrip().startswith("<!DOCTYPE html>")
    assert document["id"] in html
    assert document["trace_id"] in html
    assert "Lifecycle timeline" in html
    assert "Per-phase latency" in html


def test_report_html_unknown_id_is_typed_404(client):
    with pytest.raises(RequestNotFound):
        client.report_html("req-999999")


def test_attribution_endpoint_requires_opt_in(client):
    plain = client.assess_detailed(pair_payload(), timeout_s=120.0)
    with pytest.raises(RequestNotFound, match="attribution"):
        client.attribution(plain["id"])
    opted = client.assess_detailed(pair_payload(attribution=True),
                                   timeout_s=120.0)
    document = client.attribution(opted["id"])
    assert document["id"] == opted["id"]
    assert document["attribution"]


def test_trace_header_accepted_and_echoed(client, server):
    document = client.assess_detailed(pair_payload(), timeout_s=120.0,
                                      trace_id="tr-e2e-42")
    assert document["trace_id"] == "tr-e2e-42"
    host, port = server.address
    import urllib.request

    response = urllib.request.urlopen(
        f"http://{host}:{port}/v1/requests/{document['id']}/trace")
    assert response.headers["X-Repro-Trace-Id"] == "tr-e2e-42"


def test_dashboard_serves_refreshing_html(client):
    client.assess(pair_payload(), timeout_s=120.0)
    client.dashboard()  # first fetch seeds the rolling history
    html = client.dashboard()
    assert "http-equiv=\"refresh\"" in html
    assert "<svg" in html  # sparklines need two history samples


# -- client 429 backoff -----------------------------------------------------


def test_backoff_delay_honors_retry_after_and_caps():
    rng = random.Random(7)
    hinted = backoff_delay(0, retry_after_s=4.0, rng=rng)
    assert 3.0 <= hinted <= 5.0  # 4s +/- 25%
    huge = backoff_delay(20, retry_after_s=None, rng=rng)
    assert huge <= 30.0 * 1.25  # capped before jitter
    first = backoff_delay(0, retry_after_s=None,
                          rng=random.Random(1))
    assert 0.375 <= first <= 0.625  # 0.5s +/- 25%


def test_submit_retry_429_eventually_admits(client, server, monkeypatch):
    """With the queue full, retry_429 re-submits until a slot opens."""
    service = server.service
    blocker = service.submit(population_payload(n_traces=8))
    _wait_running(blocker)
    fillers = [service.submit(pair_payload()) for _ in range(8)]
    monkeypatch.setattr("repro.service.client.backoff_delay",
                        lambda attempt, hint=None, **_: 0.2)
    document = client.submit(pair_payload(), retry_429=40)
    assert document["id"].startswith("req-")
    assert blocker.wait(120.0)
    for record in fillers:
        assert record.wait(120.0)
    assert client.status(document["id"], wait_s=120.0)["state"] == DONE


def test_submit_retry_429_exhaustion_raises(client, server, monkeypatch):
    service = server.service
    blocker = service.submit(population_payload(n_traces=16))
    _wait_running(blocker)
    fillers = [service.submit(pair_payload()) for _ in range(8)]
    monkeypatch.setattr("repro.service.client.backoff_delay",
                        lambda attempt, hint=None, **_: 0.0)
    with pytest.raises(AdmissionRejected) as excinfo:
        client.submit(pair_payload(), retry_429=2)
    assert excinfo.value.request_id is not None
    assert blocker.wait(120.0)
    for record in fillers:
        assert record.wait(120.0)
