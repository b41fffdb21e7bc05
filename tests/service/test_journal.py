"""Durable request journal: replay accounting survives kills and rot."""

import json

from repro.obs.events import SCHEMA
from repro.service.journal import open_journal, replay


def _journal_one_session(path, terminal_states):
    journal, _ = open_journal(path)
    for index, state in enumerate(terminal_states):
        request_id = f"req-{index:06d}"
        journal.emit("received", id=request_id, client="client",
                     priority="normal", program="deadbeef")
        if state is not None:
            journal.emit("terminal", id=request_id, state=state)
    journal.emit("session_end")
    journal.close()
    return journal


def test_replay_accounts_completed_and_interrupted(tmp_path):
    path = tmp_path / "requests.jsonl"
    _journal_one_session(path, ["done", "shutdown", None, "timed_out"])
    report = replay(path)
    assert report.completed == {"done": 1, "shutdown": 1, "timed_out": 1}
    assert report.interrupted == ["req-000002"]  # submitted, never ended
    assert report.total_submitted == 4
    assert report.sessions == 1
    assert report.malformed_lines == 0


def test_restart_surfaces_previous_sessions_interrupted(tmp_path):
    path = tmp_path / "requests.jsonl"
    _journal_one_session(path, ["done", None])
    second, recovery = open_journal(path)  # the restarted daemon
    assert recovery.interrupted == ["req-000001"]
    assert recovery.completed == {"done": 1}
    second.close()
    # The restart itself journals what it recovered, for forensics.
    lines = [json.loads(line)
             for line in path.read_text().splitlines()]
    assert all(line["schema"] == SCHEMA and "ts" in line
               for line in lines)
    starts = [line for line in lines if line["event"] == "session_start"]
    assert starts[-1]["recovered_interrupted"] == ["req-000001"]


def test_replay_tolerates_truncated_tail(tmp_path):
    path = tmp_path / "requests.jsonl"
    _journal_one_session(path, ["done", "done"])
    payload = path.read_text()
    path.write_text(payload[:-15])  # SIGKILL mid-append: torn last line
    report = replay(path)
    assert report.malformed_lines == 1
    assert report.completed.get("done", 0) >= 1  # prefix still trusted


def test_replay_tolerates_corruption_and_foreign_lines(tmp_path):
    path = tmp_path / "requests.jsonl"
    _journal_one_session(path, ["done"])
    with path.open("a") as stream:
        stream.write("{not json at all\n")
        stream.write(json.dumps({"schema": "someone.else/v9",
                                 "event": "received", "id": "x"}) + "\n")
        stream.write(json.dumps({"schema": SCHEMA, "event": "terminal",
                                 "id": "req-x", "state": "exploded"})
                     + "\n")
    report = replay(path)
    assert report.malformed_lines == 3
    assert report.completed == {"done": 1}
    assert report.interrupted == []


def test_old_journal_schema_frames_are_malformed_not_replayed(tmp_path):
    """Frames of the retired ``repro.service.journal/v1`` format are a
    different schema: preserved, counted, never replayed as requests."""
    path = tmp_path / "requests.jsonl"
    old = "repro.service.journal/v1"
    frames = [{"schema": old, "ts": 1.0, "event": "session_start",
               "pid": 1, "recovered_interrupted": []},
              {"schema": old, "ts": 1.1, "event": "submitted",
               "id": "req-000000", "client": "c", "priority": "normal",
               "program": "deadbeef"},
              {"schema": old, "ts": 1.2, "event": "terminal",
               "id": "req-000000", "state": "done"},
              {"schema": old, "ts": 1.3, "event": "submitted",
               "id": "req-000001", "client": "c", "priority": "normal",
               "program": "deadbeef"}]
    path.write_text("".join(json.dumps(frame) + "\n" for frame in frames))
    report = replay(path)
    assert report.malformed_lines == 4
    assert report.completed == {}
    assert report.interrupted == []
    assert report.sessions == 0
    # A new session appends after the old frames, which stay on disk.
    journal, recovery = open_journal(path)
    journal.close()
    assert recovery.malformed_lines == 4
    assert path.read_text().startswith(json.dumps(frames[0]))


def test_missing_journal_is_an_empty_report(tmp_path):
    report = replay(tmp_path / "never-written.jsonl")
    assert report.total_submitted == 0
    assert report.sessions == 0


def test_journal_on_dead_disk_degrades_without_raising(tmp_path, caplog):
    path = tmp_path / "requests.jsonl"
    journal, _ = open_journal(path)
    journal._stream.close()  # simulate the disk dying under the daemon
    journal.emit("received", id="req-1")  # must not raise
    journal.emit("terminal", id="req-1", state="done")
    journal.close()
    assert "disabled for the rest of the run" in caplog.text
    assert journal.disabled and journal.dropped == 2
