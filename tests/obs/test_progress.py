"""Progress telemetry: the heartbeat sink (an events ``EventLog``),
heartbeat rate limiting, reporter stack, environment wiring."""

import json
import sys

import pytest

from repro import obs
from repro.obs import progress
from repro.obs.events import SCHEMA, EventLog


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def read_jsonl(path):
    return [json.loads(line)
            for line in path.read_text().strip().splitlines()]


# -- sink -------------------------------------------------------------------


def test_sink_appends_json_lines(tmp_path):
    target = tmp_path / "progress.jsonl"
    sink = EventLog(target, max_bytes=None)
    sink.emit("x", b=2, a=1)
    sink.emit("x")
    sink.close()
    lines = target.read_text().splitlines()
    first = json.loads(lines[0])
    assert first["a"] == 1 and first["b"] == 2
    assert first["schema"] == SCHEMA and first["ts"] > 0
    assert lines[0].index('"a"') < lines[0].index('"b"')  # sorted keys
    # Append mode: a second sink extends rather than truncates.
    again = EventLog(target, max_bytes=None)
    again.emit("y")
    again.close()
    assert len(read_jsonl(target)) == 3


def test_sink_stderr_aliases(capsys):
    for target in ("-", "stderr"):
        sink = EventLog(target)
        sink.emit("hb")
        sink.close()                         # must not close sys.stderr
        assert not sys.stderr.closed
    err = capsys.readouterr().err
    assert err.count('"event": "hb"') == 2


# -- reporter ---------------------------------------------------------------


def test_reporter_rate_limits_heartbeats(tmp_path):
    clock = FakeClock()
    target = tmp_path / "hb.jsonl"
    reporter = progress.ProgressReporter(
        10, label="tvla", sink=EventLog(target, max_bytes=None),
        interval_s=1.0, clock=clock)
    reporter.job_done(1)                     # first beat always emits
    reporter.job_done(2)                     # suppressed: interval not up
    clock.now += 1.5
    reporter.job_done(3)                     # emits
    reporter.heartbeat(force=True)           # forced emits regardless
    reporter.finish()                        # terminal record always emits
    records = read_jsonl(target)
    assert [r["event"] for r in records] == \
        ["heartbeat", "heartbeat", "heartbeat", "finished"]
    assert all(r["schema"] == SCHEMA and "ts" in r for r in records)
    assert records[1]["done"] == 3
    assert records[-1]["total"] == 10


def test_reporter_record_fields_and_watermarks():
    clock = FakeClock()
    reporter = progress.ProgressReporter(8, label="campaign",
                                         interval_s=0.0, clock=clock)
    clock.now += 2.0
    reporter.job_done(4)
    reporter.note_failure()
    reporter.note_retry()
    reporter.set_watermark("max_abs_t", 3.25)
    reporter.set_watermark("rank", float("inf"))
    record = reporter.heartbeat(force=True)
    assert record["done"] == 4 and record["total"] == 8
    assert record["failed"] == 1 and record["retried"] == 1
    assert record["rate_per_s"] == pytest.approx(2.0)
    assert record["eta_s"] == pytest.approx(2.0)
    assert record["max_abs_t"] == 3.25
    assert record["rank"] == "inf"           # JSON-safe encoding
    assert json.dumps(record)                # whole record serializes


def test_reporter_finish_is_idempotent(tmp_path):
    target = tmp_path / "hb.jsonl"
    reporter = progress.ProgressReporter(
        2, sink=EventLog(target, max_bytes=None), clock=FakeClock())
    reporter.finish()
    reporter.finish()
    assert len(read_jsonl(target)) == 1


def test_heartbeat_publishes_counter_when_obs_enabled(obs_on):
    reporter = progress.ProgressReporter(4, label="run_stream",
                                         interval_s=0.0, clock=FakeClock())
    reporter.heartbeat(force=True)
    reporter.heartbeat(force=True)
    assert obs.registry().counter("progress_heartbeats") \
        .value(label="run_stream") == 2


def test_heartbeat_publishes_nothing_when_obs_disabled(obs_scope):
    assert not obs.enabled()
    reporter = progress.ProgressReporter(4, interval_s=0.0,
                                         clock=FakeClock())
    reporter.heartbeat(force=True)
    assert len(obs.registry().counter("progress_heartbeats")) == 0


# -- current-reporter stack -------------------------------------------------


def test_active_stack_nests_and_unwinds():
    assert progress.current() is None
    outer = progress.ProgressReporter(1, clock=FakeClock())
    inner = progress.ProgressReporter(1, clock=FakeClock())
    with progress.active(outer):
        assert progress.current() is outer
        with progress.active(inner):
            assert progress.current() is inner
        assert progress.current() is outer
    assert progress.current() is None


def test_active_none_is_a_noop():
    with progress.active(None) as reporter:
        assert reporter is None
        assert progress.current() is None


# -- environment wiring -----------------------------------------------------


def test_sink_from_env_unset_is_none(monkeypatch):
    monkeypatch.delenv(progress.PROGRESS_ENV, raising=False)
    assert progress.sink_from_env() is None


def test_reporter_from_env_builds_configured_reporter(monkeypatch, tmp_path):
    target = tmp_path / "hb.jsonl"
    monkeypatch.setenv(progress.PROGRESS_ENV, str(target))
    monkeypatch.setenv(progress.INTERVAL_ENV, "0.25")
    reporter = progress.reporter_from_env(16, label="run_jobs")
    assert reporter is not None
    assert reporter.total == 16
    assert reporter.interval_s == 0.25
    assert reporter.sink.target == str(target)
    assert reporter.sink.max_bytes is None   # heartbeats never rotate


def test_reporter_from_env_yields_none_when_reporter_active(monkeypatch):
    monkeypatch.setenv(progress.PROGRESS_ENV, "-")
    outer = progress.ProgressReporter(4, clock=FakeClock())
    with progress.active(outer):
        # A streaming campaign owns the batch; nested run_jobs chunks
        # must not spin up their own reporters and double-count.
        assert progress.reporter_from_env(2) is None
    assert progress.reporter_from_env(2) is not None


def test_interval_from_env_falls_back_on_garbage(monkeypatch):
    monkeypatch.setenv(progress.INTERVAL_ENV, "soon")
    assert progress.interval_from_env() == progress.DEFAULT_INTERVAL_S
    monkeypatch.setenv(progress.INTERVAL_ENV, "-3")
    assert progress.interval_from_env() == 0.0


# -- sink survives a vanished consumer (EPIPE, closed stream) ---------------


def test_sink_survives_closed_stream_and_counts_drops(tmp_path, caplog):
    """Telemetry must never kill the campaign: a stream closed under the
    sink disables it after one warning; later emits are counted, not
    raised."""
    import logging

    target = tmp_path / "progress.jsonl"
    sink = EventLog(target, max_bytes=None)
    sink.emit("hb")
    sink._stream.close()                     # consumer vanished
    with caplog.at_level(logging.WARNING, "repro.obs.events"):
        sink.emit("hb")                      # must not raise
    assert sink.disabled and sink.dropped == 1
    assert "disabled for the rest of the run" in caplog.text
    sink.emit("hb")                          # silent, counted
    assert sink.dropped == 2
    assert len(caplog.records) == 1          # warned exactly once
    assert len(read_jsonl(target)) == 1      # only the pre-failure record


def test_sink_survives_real_epipe(monkeypatch):
    """An actual broken pipe (``repro ... --progress - | head`` with the
    reader gone): stderr is a pipe whose read end is closed."""
    import os

    read_fd, write_fd = os.pipe()
    fifo_stream = os.fdopen(write_fd, "w", encoding="utf-8")
    monkeypatch.setattr(sys, "stderr", fifo_stream)
    sink = EventLog("-")
    try:
        sink.emit("hb")
        os.close(read_fd)                    # consumer dies
        sink.emit("hb", padding="x" * 65536)  # overflow the pipe buffer
        sink.emit("hb")
    finally:
        monkeypatch.undo()
        try:
            fifo_stream.close()
        except OSError:
            pass                             # unflushable after EPIPE
    assert sink.disabled
    assert sink.events_written == 1
    assert sink.dropped == 2


def test_sink_error_publishes_obs_counter(tmp_path, obs_on):
    target = tmp_path / "progress.jsonl"
    sink = EventLog(target, max_bytes=None)
    sink.emit("hb")
    sink._stream.close()
    sink.emit("hb")
    assert obs.registry().counter("event_sink_errors").value() == 1


def test_reporter_finishes_cleanly_on_a_dead_sink(tmp_path):
    """The reporter keeps working after its sink dies: heartbeats and the
    terminal record are dropped, not raised into the batch."""
    target = tmp_path / "hb.jsonl"
    sink = EventLog(target, max_bytes=None)
    reporter = progress.ProgressReporter(4, sink=sink, interval_s=0.0,
                                         clock=FakeClock())
    reporter.job_done(1)
    sink._stream.close()
    reporter.job_done(2)                     # sink dies here, silently
    reporter.heartbeat(force=True)
    reporter.finish()
    assert sink.disabled
    assert len(read_jsonl(target)) == 1
