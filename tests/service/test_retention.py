"""Retention: what a terminal request record keeps in the request history.

The daemon keeps up to ``history_limit`` (1,024) terminal records for
status queries, and verdict-cache hits fill that history within
seconds, so the bytes one retained record holds set the daemon's peak
memory.  A record keeps facts and renders its documents on read: a hit
references the store's shared document plus its envelope, a cold
request (the verdict-cache leader) the document it stored, the timeline
is compact tuples, and no synchronization object survives the terminal
transition.  Memory is measured with :mod:`tracemalloc` after
``gc.collect()``; nothing here asserts a time.
"""

import gc
import sys
import threading
import time
import tracemalloc

from repro.service.cache import verdict_key
from repro.service.protocol import (DONE, RUNNING, SHUTDOWN,
                                    AssessRequest, RequestRecord)

from .conftest import pair_payload

#: Bytes one served cache-hit record may retain (``tools/retention_probe.py``
#: reads ~1.3 kB; a per-hit copy of the stored document adds ~2.8 kB).
MAX_BYTES_PER_HIT = 2000

HITS = 100

#: Bytes one served cold request (a verdict-cache leader) may retain:
#: the store's document, which its record shares, plus the record, its
#: timeline and its span tree (~13.4 kB for a 2-round pair request; a
#: record that kept the executor's own copy of the document too retained
#: ~17.3 kB).
MAX_BYTES_PER_COLD_REQUEST = 15_000

COLD_REQUESTS = 30

_SYNC_TYPES = (threading.Event, threading.Condition,
               type(threading.Lock()), type(threading.RLock()))


def _sync_objects(record: RequestRecord) -> list:
    """Synchronization objects the record references directly."""
    return [referent for referent in gc.get_referents(record)
            if isinstance(referent, _SYNC_TYPES)]


def _serve(service, **overrides) -> RequestRecord:
    record = service.submit(pair_payload(**overrides))
    assert record.wait(60.0) and record.state == DONE
    return record


def test_a_retained_cache_hit_costs_at_most_2000_bytes(make_service):
    service = make_service(history_limit=HITS + 16)
    _serve(service)  # the fill
    _serve(service)  # one hit first: its metric series is built once
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(HITS):
            _serve(service)
        gc.collect()
        retained = (tracemalloc.get_traced_memory()[0] - before) / HITS
    finally:
        tracemalloc.stop()
    assert service.verdict_cache_stats()["hits"] == HITS + 1
    assert len(service.records()) == HITS + 2  # all still in the history
    assert retained <= MAX_BYTES_PER_HIT, retained


def test_a_retained_cold_request_costs_at_most_15000_bytes(make_service):
    """A leader's record finishes with the document the verdict store
    keeps, so a retained cold request holds one copy of its result."""
    service = make_service(history_limit=COLD_REQUESTS + 16)
    _serve(service, key=1)  # compile, schedule and metric series
    _serve(service, key=2)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = [_serve(service, key=1000 + index)
                   for index in range(COLD_REQUESTS)]
        gc.collect()
        retained = (tracemalloc.get_traced_memory()[0] - before) \
            / COLD_REQUESTS
    finally:
        tracemalloc.stop()
    assert service.verdict_cache_stats()["hits"] == 0
    for record in records:
        stored, _stored_at = service.verdict_cache.store.memory.get(
            verdict_key(record.request))
        assert record._result is stored
    assert retained <= MAX_BYTES_PER_COLD_REQUEST, retained


def test_eviction_never_drops_an_inflight_record(make_service, monkeypatch):
    """Hits overflowing a 4-record history evict the oldest terminal
    records, never a request still executing ahead of them."""
    service = make_service(history_limit=4)
    release = threading.Event()
    execute = service._execute

    def held_blocker(record, deadline):
        if record.request.client == "blocker":
            release.wait(60.0)
        return execute(record, deadline)

    monkeypatch.setattr(service, "_execute", held_blocker)
    _serve(service)  # the fill
    blocker = service.submit(pair_payload(client="blocker", cache=False))
    try:
        for _ in range(60_000):
            if blocker.state == RUNNING:
                break
            time.sleep(0.001)
        hits = [_serve(service) for _ in range(20)]
        kept = service.records()
        assert not blocker.terminal
        assert kept[0] is blocker
        assert kept[1:] == hits[-3:]
        assert service.get(blocker.id) is blocker
    finally:
        release.set()
    assert blocker.wait(60.0) and blocker.state == DONE


def test_wait_on_a_terminal_record_returns_at_once():
    record = RequestRecord(request=AssessRequest.from_dict(pair_payload()))
    assert record.wait(0.0) is False  # a timed-out waiter arrived early
    record.finish(DONE, result={"ok": True})
    assert record.wait(0.0) is True
    assert record.wait() is True
    assert _sync_objects(record) == []  # the early waiter's event is gone


def test_a_waiter_on_a_queued_record_wakes_on_finish():
    record = RequestRecord(request=AssessRequest.from_dict(pair_payload()))
    woke = []
    waiter = threading.Thread(target=lambda: woke.append(record.wait(60.0)))
    waiter.start()
    for _ in range(10_000):  # until the waiter is parked on its event
        if _sync_objects(record):
            break
        time.sleep(0.001)
    assert _sync_objects(record), "the waiter never parked"
    record.finish(DONE, result={"ok": True})
    waiter.join(60.0)
    assert woke == [True]
    assert _sync_objects(record) == []


def test_racing_waiters_and_finishers_lose_no_wakeup():
    """Each record gets a waiter and two racing finishers (a completion
    and a drain) under a tiny switch interval: every waiter wakes, the
    first finisher wins, and no record keeps a synchronization object."""
    request = AssessRequest.from_dict(pair_payload())
    records = [RequestRecord(request=request) for _ in range(48)]
    woke = []
    threads = []
    for record in records:
        threads.append(threading.Thread(
            target=lambda record=record: woke.append(record.wait(60.0))))
        threads.append(threading.Thread(target=record.finish,
                                        args=(DONE,)))
        threads.append(threading.Thread(target=record.finish,
                                        args=(SHUTDOWN,)))
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert woke == [True] * len(records)
    for record in records:
        assert record.terminal and record.state in (DONE, SHUTDOWN)
        assert _sync_objects(record) == []
