"""JSONL event log: emit/replay, rotation, torn tails, timelines."""

import json
import logging
import threading

from repro.obs.events import (SCHEMA, EventLog, read_events, replay_events,
                              timeline_from_events)


def test_emit_writes_schema_stamped_jsonl(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventLog(path) as log:
        log.emit("received", id="req-1", client="cli")
        log.emit("terminal", id="req-1", state="done")
    lines = [json.loads(line) for line in
             path.read_text().splitlines()]
    assert [line["event"] for line in lines] == ["received", "terminal"]
    assert all(line["schema"] == SCHEMA for line in lines)
    assert all(line["ts"] > 0 for line in lines)
    assert lines[0]["client"] == "cli"
    assert log.events_written == 2


def test_replay_round_trips_fields(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventLog(path) as log:
        log.emit("chunk", id="req-1", done=16, total=32)
    events = replay_events(path)
    assert len(events) == 1
    assert events[0]["done"] == 16 and events[0]["total"] == 32


def test_rotation_keeps_bounded_two_file_window(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path, max_bytes=4096)
    for index in range(200):
        log.emit("tick", id=f"req-{index}", padding="x" * 64)
    log.close()
    assert log.rotations >= 1
    assert log.rotated_path.exists()
    assert path.stat().st_size <= 4096
    assert log.rotated_path.stat().st_size <= 4096
    # replay order matches write order across the rotation boundary
    ids = [event["id"] for event in replay_events(path)]
    assert ids == sorted(ids, key=lambda i: int(i.split("-")[1]))
    assert len(ids) < 200  # older rotations were dropped, by design


def test_replay_skips_torn_tail_and_foreign_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventLog(path) as log:
        log.emit("received", id="req-1")
        log.emit("terminal", id="req-1")
    with open(path, "ab") as stream:
        stream.write(b'{"schema": "other/v9", "event": "noise"}\n')
        stream.write(b'{"schema": "' + SCHEMA.encode() + b'", "ev')
    events = replay_events(path)
    assert [event["event"] for event in events] == ["received",
                                                    "terminal"]


def test_replay_missing_file_is_empty(tmp_path):
    assert replay_events(tmp_path / "absent.jsonl") == []


def test_timeline_from_events_filters_and_rebases(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventLog(path) as log:
        log.emit("received", id="req-1", trace_id="tr-a", client="cli")
        log.emit("received", id="req-2", trace_id="tr-b")
        log.emit("admitted", id="req-1", trace_id="tr-a", queue_depth=1)
        log.emit("terminal", id="req-1", trace_id="tr-a", state="done")
    timeline = timeline_from_events(replay_events(path), "req-1")
    assert [entry["event"] for entry in timeline] == \
        ["received", "admitted", "terminal"]
    assert timeline[0]["t_s"] == 0.0
    assert all(entry["t_s"] >= 0.0 for entry in timeline)
    # detail fields and the wall stamp survive, transport fields do not
    assert timeline[1]["queue_depth"] == 1
    assert "trace_id" not in timeline[0] and "ts" in timeline[0]
    assert "schema" not in timeline[0] and "id" not in timeline[0]


def test_unwritable_path_degrades_to_warning(tmp_path, caplog):
    blocked = tmp_path / "dir-not-file"
    blocked.mkdir()
    log = EventLog(blocked)
    with caplog.at_level(logging.WARNING, "repro.obs.events"):
        log.emit("received", id="req-1")  # opening a directory fails
    assert "disabled for the rest of the run" in caplog.text
    log.emit("received", id="req-2")  # silently dropped, no raise
    assert log.events_written == 0 and log.dropped == 2
    log.close()


def test_unrotated_log_grows_past_the_threshold(tmp_path):
    path = tmp_path / "journal.jsonl"
    with EventLog(path, max_bytes=None) as log:
        for index in range(200):
            log.emit("tick", id=f"req-{index}", padding="x" * 64)
    assert log.rotations == 0 and not log.rotated_path.exists()
    assert path.stat().st_size > 4096
    assert len(replay_events(path)) == 200


def test_closed_log_counts_later_records_as_dropped(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    log.emit("received", id="req-1")
    log.close()
    log.emit("terminal", id="req-1")  # after close: dropped, not reopened
    assert log.dropped == 1
    assert [event["event"] for event in replay_events(path)] == \
        ["received"]


def test_read_events_counts_rejected_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventLog(path) as log:
        log.emit("received", id="req-1")
    with open(path, "ab") as stream:
        stream.write(b'{"schema": "other/v9", "event": "noise"}\n')
        stream.write(b"\n[1, 2]\n{torn")
    events, rejected = read_events(path)
    assert [event["id"] for event in events] == ["req-1"]
    assert rejected == 3


def test_concurrent_emitters_keep_lines_whole(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path, max_bytes=16 * 1024)

    def pound(worker: int) -> None:
        for index in range(50):
            log.emit("tick", id=f"w{worker}-{index}")

    threads = [threading.Thread(target=pound, args=(worker,))
               for worker in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    log.close()
    events = replay_events(path)
    assert len(events) == log.events_written
    assert all(event["schema"] == SCHEMA for event in events)
