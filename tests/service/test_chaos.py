"""Chaos acceptance: SIGKILLed workers + SIGTERMed daemon, no lost work.

The ISSUE's acceptance scenario, against a real daemon subprocess:

* a worker process is SIGKILLed mid-request (``REPRO_FAULT_PLAN`` crash
  fault = ``os._exit(23)`` inside the pool worker) — the request retries
  and its result is **bit-identical** to the batch CLI path;
* the daemon is SIGTERMed with requests queued and in flight — the
  in-flight request finishes, queued requests end in typed ``shutdown``
  states, ``/healthz`` reports ``draining`` while it happens, and the
  exit is clean;
* every submitted request ends in **exactly one** terminal state, proven
  by replaying the durable journal;
* a restarted daemon on the same journal accounts for all of it via
  ``GET /v1/recovery``.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service.client import ServiceClient
from repro.service.errors import ServiceError
from repro.service.executor import execute_assessment
from repro.service.journal import replay
from repro.service.protocol import AssessRequest

from .conftest import pair_payload, population_payload

REPO_ROOT = Path(__file__).resolve().parents[2]


def _spawn_daemon(tmp_path, fault_plan=None, extra_args=()):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    env.pop("REPRO_FAULT_PLAN", None)
    if fault_plan:
        env["REPRO_FAULT_PLAN"] = fault_plan
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--jobs", "2", "--retries", "2",
         "--queue-depth", "8", "--chunk-size", "4",
         "--drain-grace", "120",
         "--journal", str(tmp_path / "requests.jsonl"),
         "--manifest-out", str(tmp_path / "manifest.json"),
         *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, text=True, cwd=REPO_ROOT)
    listening = json.loads(process.stdout.readline())
    assert listening["event"] == "listening", listening
    client = ServiceClient(
        f"http://{listening['host']}:{listening['port']}")
    return process, client


def _terminate(process):
    if process.poll() is None:
        process.kill()
        process.wait(timeout=30)


def _poll_until(predicate, timeout_s, message):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for: {message}")


@pytest.mark.slow
def test_chaos_worker_sigkill_daemon_sigterm_accounts_for_everything(
        tmp_path):
    journal_path = tmp_path / "requests.jsonl"
    # Every request's first chunk SIGKILLs one pool worker on attempt 1
    # (os._exit deep in the worker); retries must absorb it.
    process, client = _spawn_daemon(tmp_path,
                                    fault_plan="trace[0]:1:crash")
    try:
        # -- phase A: worker SIGKILL mid-request, bit-identical result --
        result = client.assess(pair_payload(), timeout_s=300.0)
        local = execute_assessment(  # no faults here: the clean baseline
            AssessRequest.from_dict(pair_payload()))
        assert result["trace_digest"] == local["trace_digest"]
        assert result["verdict"] == local["verdict"]

        # -- phase B: SIGTERM with work queued and in flight ------------
        slow = client.submit(population_payload(n_traces=16))
        _poll_until(
            lambda: client.status(slow["id"])["state"] == "running",
            60.0, "slow request to start executing")
        # Phase A stored this payload's verdict; ``cache: false`` keeps
        # the three requests off the admission-time cache answer, so
        # they queue behind the slow one.
        queued = [client.submit(pair_payload(cache=False))["id"]
                  for _ in range(3)]
        process.send_signal(signal.SIGTERM)

        _poll_until(
            lambda: client.health()["status"] == "draining",
            30.0, "healthz to report draining")

        # While the in-flight request finishes, queued requests are
        # already terminal with typed shutdown errors — observable over
        # the still-answering HTTP API.
        for request_id in queued:
            document = client.status(request_id, wait_s=30.0)
            assert document["terminal"], document
            assert document["state"] == "shutdown"
            assert document["error"]["code"] == "shutting_down"
            assert document["error"]["retryable"]

        stdout, stderr = process.communicate(timeout=300)
        assert process.returncode == 0, stderr
        drained = json.loads(stdout.strip().splitlines()[-1])
        assert drained["event"] == "drained"
        assert drained["queued_failed_typed"] == 3
        assert drained["workers_alive"] == 0
    finally:
        _terminate(process)

    # -- invariant: every request ended in exactly one terminal state --
    report = replay(journal_path)
    assert report.interrupted == []
    assert report.completed == {"done": 2, "shutdown": 3}
    assert report.total_submitted == 5
    assert report.sessions == 1

    # The drain published the SLO manifest.
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["experiment_id"] == "service"
    assert "service_request_seconds" in manifest["metrics"]
    assert manifest["summary"]["terminal_done"] == 2
    assert manifest["summary"]["terminal_shutdown"] == 3

    # -- restart: the new daemon accounts for the previous session ----
    process, client = _spawn_daemon(tmp_path)
    try:
        recovery = client.recovery()
        assert recovery["completed"] == {"done": 2, "shutdown": 3}
        assert recovery["interrupted"] == []
        assert recovery["total_submitted"] == 5
        process.send_signal(signal.SIGTERM)
        process.communicate(timeout=120)
        assert process.returncode == 0
    finally:
        _terminate(process)


@pytest.mark.slow
def test_sigkilled_daemon_leaves_an_accountable_journal(tmp_path):
    """SIGKILL (no drain at all): the journal still accounts for every
    request — finished ones as terminal, the in-flight one as
    interrupted — and the restarted daemon reports it."""
    journal_path = tmp_path / "requests.jsonl"
    process, client = _spawn_daemon(tmp_path)
    try:
        client.assess(pair_payload(), timeout_s=300.0)
        victim = client.submit(population_payload(n_traces=16))
        _poll_until(
            lambda: client.status(victim["id"])["state"] == "running",
            60.0, "victim request to start executing")
        process.send_signal(signal.SIGKILL)
        process.communicate(timeout=60)
    finally:
        _terminate(process)

    report = replay(journal_path)
    assert report.completed == {"done": 1}
    assert report.interrupted == [victim["id"]]  # killed mid-flight
    assert report.total_submitted == 2

    process, client = _spawn_daemon(tmp_path)
    try:
        recovery = client.recovery()
        assert recovery["interrupted"] == [victim["id"]]
        # The kill did not poison the daemon: it still serves requests.
        result = client.assess(pair_payload(), timeout_s=300.0)
        assert result["n_traces"] == 2
        process.send_signal(signal.SIGTERM)
        process.communicate(timeout=120)
        assert process.returncode == 0
    finally:
        _terminate(process)


def test_client_survives_daemon_vanishing_mid_poll(tmp_path):
    """Transport failures surface as retryable typed errors, never raw
    socket tracebacks."""
    process, client = _spawn_daemon(tmp_path)
    try:
        assert client.health()["status"] == "ok"
    finally:
        process.send_signal(signal.SIGKILL)
        process.communicate(timeout=30)
    with pytest.raises(ServiceError) as excinfo:
        client.health()
    assert excinfo.value.retry_after_s is not None
