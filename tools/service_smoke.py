#!/usr/bin/env python
"""CI smoke for the leakage-assessment daemon (`repro serve`).

Drives a real daemon subprocess through the failure modes the service
promises to survive, and exits nonzero if any promise is broken:

1. a request served over HTTP is bit-identical to the same request run
   in-process;
2. concurrent load trips admission control — the overflow submission is
   a typed 429 with a ``Retry-After`` hint, and the daemon keeps
   serving;
3. a request whose deadline expires while queued ends as a typed 504,
   never executed;
4. SIGTERM mid-load drains gracefully: the in-flight request finishes,
   queued requests end in typed ``shutdown`` states, and the exit code
   is 0;
5. the drain writes the SLO manifest (latency quantiles, rejection and
   terminal-state counters) and the request journal accounts for every
   submission exactly once, in exactly two lines per submission;
6. ``GET /metrics?format=prometheus`` parses and agrees sample-for-
   sample with the JSON snapshot; a completed request's trace and HTML
   report are retrievable; a 429 rejection carries a request ID whose
   timeline stays queryable; the JSONL event log replays into the live
   timeline, field for field except ``t_s``.

Usage: ``PYTHONPATH=src python tools/service_smoke.py [--keep DIR]``.
The manifest/journal/trace/report/prometheus artifacts land in ``DIR``
so CI can upload them; without ``--keep`` they go to a temp dir that is
removed on exit.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import prom                              # noqa: E402
from repro.obs.events import (SCHEMA, replay_events,    # noqa: E402
                              timeline_from_events)
from repro.service.client import ServiceClient          # noqa: E402
from repro.service.errors import AdmissionRejected      # noqa: E402
from repro.service.executor import execute_assessment   # noqa: E402
from repro.service.journal import replay                # noqa: E402
from repro.service.protocol import AssessRequest        # noqa: E402

#: Gauges recomputed at scrape time — excluded from the JSON-vs-prom
#: agreement check because the two scrapes are separate HTTP calls.
VOLATILE = {"service_queue_depth", "service_inflight",
            "service_breaker_open"}

PAIR = {"mode": "pair", "rounds": 2, "client": "smoke"}
SLOW = {"mode": "population", "rounds": 2, "n_traces": 8, "seed": 2003,
        "client": "smoke"}


def check(condition, message):
    if not condition:
        raise SystemExit(f"service smoke FAILED: {message}")


def poll_until(predicate, timeout_s, message):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise SystemExit(f"service smoke FAILED: timed out waiting for "
                     f"{message}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--keep", type=Path, default=None,
                        help="directory for the journal/manifest artifacts")
    arguments = parser.parse_args()
    if arguments.keep is not None:
        arguments.keep.mkdir(parents=True, exist_ok=True)
        smoke(arguments.keep)
        print(f"artifacts in {arguments.keep}")
        return 0
    with tempfile.TemporaryDirectory(prefix="svc-smoke-") as out_dir:
        smoke(Path(out_dir))
    return 0


def smoke(out_dir: Path) -> None:
    """Drive one daemon end to end, writing its artifacts to ``out_dir``;
    exits non-zero on the first failed check."""
    journal_path = out_dir / "service-journal.jsonl"
    manifest_path = out_dir / "service-manifest.json"
    event_log_path = out_dir / "service-events.jsonl"

    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    env.pop("REPRO_FAULT_PLAN", None)
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--jobs", "2", "--queue-depth", "2",
         "--chunk-size", "4", "--drain-grace", "120",
         "--journal", str(journal_path),
         "--manifest-out", str(manifest_path),
         "--event-log", str(event_log_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, text=True, cwd=REPO_ROOT)
    try:
        listening = json.loads(daemon.stdout.readline())
        check(listening.get("event") == "listening",
              f"bad announce line: {listening}")
        client = ServiceClient(
            f"http://{listening['host']}:{listening['port']}")

        # 1. bit-identity over the wire (with request tracing on) -----
        print("smoke: bit-identity ...", flush=True)
        detailed = client.assess_detailed(PAIR, timeout_s=300.0,
                                          trace_id="tr-smoke-identity")
        served = detailed["result"]
        local = execute_assessment(AssessRequest.from_dict(PAIR))
        check(served["trace_digest"] == local["trace_digest"],
              "HTTP result digest differs from in-process execution")
        check(detailed["trace_id"] == "tr-smoke-identity",
              f"client trace ID not honored: {detailed['trace_id']}")

        # 1b. the completed request is fully explainable --------------
        print("smoke: trace + report endpoints ...", flush=True)
        trace = client.trace(detailed["id"])
        events = [entry["event"] for entry in trace["timeline"]]
        check(events[0] == "received" and events[-1] == "terminal"
              and "started" in events,
              f"incomplete lifecycle timeline: {events}")
        check(trace.get("spans"),
              "completed request has no span tree")
        (out_dir / "request-trace.json").write_text(
            json.dumps(trace, indent=2, sort_keys=True))
        report = client.report_html(detailed["id"])
        check(report.lstrip().startswith("<!DOCTYPE html>")
              and detailed["id"] in report,
              "report.html is not a self-contained request report")
        (out_dir / "request-report.html").write_text(report)

        # 1c. prometheus exposition agrees with the JSON snapshot -----
        print("smoke: prometheus exposition ...", flush=True)
        snapshot = client.metrics()
        text = client.metrics_text()
        (out_dir / "metrics.prom").write_text(text)
        parsed = prom.parse_prometheus(text)
        check(parsed["samples"], "prometheus exposition carried no samples")
        prom.assert_snapshot_agreement(snapshot, text, ignore=VOLATILE)

        # 1d. repeat submission hits the verdict cache ----------------
        print("smoke: verdict cache ...", flush=True)
        warm = client.assess_detailed(PAIR, timeout_s=300.0,
                                      trace_id="tr-smoke-cache-hit")
        check(warm["result"]["trace_digest"] == served["trace_digest"],
              "cached verdict is not bit-identical to the cold result")
        check(warm["result"].get("verdict_cache", {}).get("hit"),
              f"repeat submission missed the verdict cache: "
              f"{warm['result'].get('verdict_cache')}")
        cache_stats = client.cache_stats()
        check(cache_stats["hits"] >= 1 and cache_stats["misses"] >= 1,
              f"cache stats did not record the hit: {cache_stats}")
        cache_samples = prom.parse_prometheus(
            client.metrics_text())["samples"]
        check(any(name == "verdict_cache_hits" and value > 0
                  for (name, _labels), value in cache_samples.items()),
              "verdict_cache_hits carried no nonzero prometheus sample")

        # 2 + 3. admission trip and queued-deadline miss --------------
        print("smoke: admission control + deadlines ...", flush=True)
        slow = client.submit(SLOW)
        poll_until(lambda: client.status(slow["id"])["state"] == "running",
                   60.0, "the slow request to start")
        # Unique seeds: PAIR's stored verdict would answer each of these
        # at admission, without a queue slot.
        doomed = client.submit(dict(PAIR, seed=1, deadline_s=0.05))
        queued = client.submit(dict(PAIR, seed=2))
        try:
            client.submit(dict(PAIR, seed=3))
            check(False, "third queued submission was not rejected")
        except AdmissionRejected as error:
            check(error.http_status == 429 and error.retry_after_s >= 1.0,
                  f"untyped admission rejection: {error!r}")
            check(error.request_id is not None,
                  "429 rejection carries no request ID")
            rejected_trace = client.trace(error.request_id)
            check(rejected_trace["state"] == "rejected"
                  and rejected_trace["timeline"][-1]["event"] == "terminal",
                  f"rejected request has no timeline: {rejected_trace}")
        final_doomed = client.status(doomed["id"], wait_s=120.0)
        check(final_doomed["state"] == "timed_out"
              and final_doomed["error"]["code"] == "deadline_exceeded",
              f"queued deadline miss not typed: {final_doomed}")
        check(client.status(queued["id"], wait_s=120.0)["state"] == "done",
              "the queued request behind the load did not complete")
        check(client.status(slow["id"], wait_s=120.0)["state"] == "done",
              "the slow request did not complete")

        # 4. SIGTERM mid-load -----------------------------------------
        print("smoke: SIGTERM mid-load ...", flush=True)
        # A distinct seed: the identical payload would be a verdict-cache
        # hit and finish before SIGTERM could catch it mid-flight.
        slow2 = client.submit(dict(SLOW, seed=2004))
        poll_until(lambda: client.status(slow2["id"])["state"] == "running",
                   60.0, "the second slow request to start")
        stranded = client.submit(dict(PAIR, seed=4))
        daemon.send_signal(signal.SIGTERM)
        poll_until(lambda: client.health()["status"] == "draining",
                   30.0, "healthz to report draining")
        final = client.status(stranded["id"], wait_s=60.0)
        check(final["state"] == "shutdown"
              and final["error"]["code"] == "shutting_down"
              and final["error"]["retryable"],
              f"queued request not typed-shutdown on drain: {final}")
        stdout, stderr = daemon.communicate(timeout=300)
        check(daemon.returncode == 0,
              f"daemon exited {daemon.returncode}; stderr:\n{stderr}")
        drained = json.loads(stdout.strip().splitlines()[-1])
        check(drained.get("event") == "drained" and drained["drained"],
              f"no drained announce: {drained}")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=30)

    # 5. SLO manifest + journal accounting ----------------------------
    print("smoke: SLO manifest + journal accounting ...", flush=True)
    check(manifest_path.exists(), "drain did not write the SLO manifest")
    manifest = json.loads(manifest_path.read_text())
    metrics = manifest["metrics"]
    for name in ("service_request_seconds", "service_rejections_total",
                 "service_terminal_total", "service_goodput_traces_total"):
        check(name in metrics, f"SLO metric {name} missing from manifest")
    latency_series = metrics["service_request_seconds"]["series"]
    check(any(entry.get("p95") is not None for entry in latency_series),
          "latency quantiles missing from the manifest")

    report = replay(journal_path)
    check(report.interrupted == [],
          f"journal lost requests: interrupted={report.interrupted}")
    expected = {"done": 5, "rejected": 1, "timed_out": 1, "shutdown": 1}
    check(report.completed == expected,
          f"journal accounting {report.completed} != {expected}")
    check(report.total_submitted == sum(expected.values()),
          "journal total_submitted mismatch")
    journal_lines = [json.loads(line)
                     for line in journal_path.read_text().splitlines()]
    check(all(line.get("schema") == SCHEMA for line in journal_lines),
          "journal holds lines outside the events schema")
    request_lines = [line for line in journal_lines
                     if line["event"] in ("received", "terminal")]
    check(len(request_lines) == 2 * report.total_submitted
          and len(journal_lines) == len(request_lines) + 2,
          f"journal is not two lines per submission plus the session "
          f"lines: {[line['event'] for line in journal_lines]}")

    # 6. event-log replay matches the live timeline -------------------
    print("smoke: event-log replay ...", flush=True)
    check(event_log_path.exists(), "daemon wrote no event log")
    replayed = timeline_from_events(replay_events(event_log_path),
                                    detailed["id"])

    def without_t_s(timeline):
        return [{key: value for key, value in entry.items()
                 if key != "t_s"} for entry in timeline]

    check(without_t_s(replayed) == without_t_s(trace["timeline"]),
          f"event-log replay disagrees with the live timeline:\n"
          f"{replayed}\n!=\n{trace['timeline']}")

    print(f"service smoke OK: {report.total_submitted} requests, "
          f"each in exactly one terminal state "
          f"({json.dumps(report.completed, sort_keys=True)})")


if __name__ == "__main__":
    raise SystemExit(main())
