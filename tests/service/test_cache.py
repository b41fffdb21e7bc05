"""Verdict cache: keys, LRU, lookup counting, service wiring, journal
replay.

The acceptance gate mirrors the batch engine's: a cache hit must be
**bit-identical** to a cold run (same trace digest, same verdict), and a
restarted daemon's journal accounting must fold cached completions
exactly like simulated ones — one submitted + one terminal frame each,
never double-counted.
"""

import gc
import json
import threading
import time
import tracemalloc

from repro.harness.engine import CompileCache, resident_size
from repro.service.cache import VerdictCache, verdict_key
from repro.service.core import LeakageService, ServiceConfig
from repro.service.executor import execute_assessment
from repro.service.protocol import DONE, AssessRequest

from .conftest import pair_payload, population_payload


def _request(**overrides) -> AssessRequest:
    return AssessRequest.from_dict(pair_payload(**overrides))


def _verdicts(tmp_path, max_bytes=1 << 16) -> VerdictCache:
    return VerdictCache(CompileCache(tmp_path, max_bytes=max_bytes))


def _put(cache: VerdictCache, key: str, document: dict) -> int:
    """Store one document the way the executor does; returns evictions."""
    return cache.put(key, document)[1]


def _get(cache: VerdictCache, key: str):
    """The stored document, or ``None``."""
    hit = cache.lookup(key)
    return None if hit is None else hit[0]


# -- key derivation ---------------------------------------------------------


def test_key_ignores_scheduling_and_observability_fields():
    base = _request()
    same = _request(client="someone-else", priority="high",
                    deadline_s=5.0, cache=False)
    assert verdict_key(base) == verdict_key(same)


def test_key_covers_trace_shaping_parameters():
    base = verdict_key(_request())
    assert verdict_key(_request(seed=999)) != base
    assert verdict_key(_request(noise_sigma=0.5)) != base
    assert verdict_key(_request(masking="none")) != base
    assert verdict_key(_request(rounds=4)) != base


def test_key_prefix_is_the_program_key_hash():
    request = _request()
    prefix = verdict_key(request).split(":")[0]
    assert prefix.startswith("verdict-")
    assert verdict_key(_request(seed=999)).startswith(prefix + ":")
    assert not verdict_key(_request(masking="none")).startswith(prefix)


# -- storage in the artifact store ------------------------------------------


def test_hit_shares_the_stored_document_and_reports_its_age(tmp_path):
    cache = _verdicts(tmp_path)
    _put(cache, "verdict-k", {"verdict": {"passed": True}})
    document, age_s = cache.lookup("verdict-k")
    assert document == {"verdict": {"passed": True}}
    assert "verdict_cache" not in document  # the envelope is the caller's
    assert age_s >= 0.0
    stored, _stored_at = cache.store.memory.get("verdict-k")
    assert document is stored


def test_hits_and_the_computing_request_share_one_canonical_document(
        tmp_path):
    """One decoded copy per entry, handed out as is: the request that
    stored it and every hit get the stored document itself (no
    per-request copy to retain), and it carries lists, never the tuples
    the executor produced."""
    cache = _verdicts(tmp_path)
    document = {"trace_digest": "ab" * 32,
                "verdict": {"passed": True, "leaky_cycles": (3, 5)}}
    served, _evicted = cache.put("verdict-k", document)
    first = _get(cache, "verdict-k")
    second = _get(cache, "verdict-k")
    assert first is second is served
    assert first["verdict"]["leaky_cycles"] == [3, 5]
    assert first == json.loads(json.dumps(document))
    stored = cache.store.memory.get("verdict-k")
    assert cache.stats()["bytes"] == resident_size(stored)


def test_lru_eviction_respects_byte_budget(tmp_path):
    document = {"payload": "x" * 64}
    probe = _verdicts(tmp_path / "probe")
    _put(probe, "verdict-probe", document)
    size = probe.store.memory.bytes
    cache = _verdicts(tmp_path, max_bytes=3 * size)
    for name in ("a", "b", "c"):
        assert _put(cache, f"verdict-{name}", document) == 0
    _get(cache, "verdict-a")            # refresh: "b" is now LRU
    assert _put(cache, "verdict-d", document) == 1
    assert _get(cache, "verdict-b") is None
    assert _get(cache, "verdict-a") is not None
    stats = cache.stats()
    assert stats["entries"] == 3
    assert stats["evictions"] == 1
    assert stats["bytes"] <= stats["max_bytes"] == 3 * size


def test_document_larger_than_budget_is_skipped_not_truncated(tmp_path):
    cache = _verdicts(tmp_path, max_bytes=8)
    assert _put(cache, "verdict-k", {"payload": "x" * 64}) == 0
    assert _get(cache, "verdict-k") is None
    assert cache.stats()["entries"] == 0
    assert cache.stats()["bytes"] == 0


def test_store_of_distinct_verdicts_holds_its_budget(tmp_path):
    """A store filled with distinct decoded verdicts holds about its
    budget, not the ~7x a pickled-size count let it hold: a memory-only
    entry counts its resident bytes."""
    document = execute_assessment(_request(rounds=1))
    budget = 256 * 1024
    cache = _verdicts(tmp_path, max_bytes=budget)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(400):
            _put(cache, f"verdict-{index}",
                 dict(document, trace_digest=f"{index:064x}"))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    stats = cache.stats()
    assert stats["evictions"] == 400 - stats["entries"] > 0
    assert stats["bytes"] <= budget
    assert held < 1.25 * budget, (held, stats["entries"])


def test_invalidate_by_program_key_prefix(tmp_path):
    cache = _verdicts(tmp_path)
    key_a = verdict_key(_request())
    key_b = verdict_key(_request(seed=999))          # same program
    key_other = verdict_key(_request(masking="none"))  # different program
    for key in (key_a, key_b, key_other):
        _put(cache, key, {"verdict": "v"})
    cache.store.store_artifact("program-x", b"not a verdict")
    assert cache.invalidate(_request().program_key()) == 2
    assert _get(cache, key_a) is None and _get(cache, key_b) is None
    assert _get(cache, key_other) is not None
    assert cache.invalidate() == 1                   # every verdict
    assert cache.stats()["entries"] == 1             # the program stays
    assert cache.store.artifact("program-x") == b"not a verdict"


# -- lookup counting --------------------------------------------------------


def test_a_lookup_counts_every_hit_and_only_the_misses_asked_for(tmp_path):
    """The admission probe (``count_miss=False``) counts no miss: a
    request that queues counts one, when the executor looks it up."""
    cache = _verdicts(tmp_path)
    assert cache.lookup("verdict-k", count_miss=False) is None
    assert cache.stats()["misses"] == 0
    assert cache.lookup("verdict-k") is None
    assert cache.stats()["misses"] == 1
    _put(cache, "verdict-k", {"verdict": "v"})
    assert cache.lookup("verdict-k", count_miss=False) is not None
    assert cache.lookup("verdict-k") is not None
    stats = cache.stats()
    assert (stats["hits"], stats["misses"], stats["stores"]) == (2, 1, 1)
    assert set(stats) == {"hits", "misses", "stores", "invalidations",
                          "entries", "bytes", "max_bytes", "evictions"}


def test_a_failed_computation_stores_nothing(make_service, monkeypatch):
    """Errors are never cached: a failing request stores no verdict, and
    the next identical one simulates again."""
    service = make_service()
    execute = service._execute
    calls = []

    def fail_first(record, deadline):
        calls.append(record.id)
        if len(calls) == 1:
            raise RuntimeError("injected failure")
        return execute(record, deadline)

    monkeypatch.setattr(service, "_execute", fail_first)
    failed = service.submit(pair_payload())
    assert failed.wait(60.0) and failed.state == "failed"
    retried = service.submit(pair_payload())
    assert retried.wait(60.0) and retried.state == DONE
    assert "verdict_cache" not in retried.result
    stats = service.verdict_cache_stats()
    assert (stats["misses"], stats["stores"], stats["hits"]) == (2, 1, 0)


# -- service wiring ---------------------------------------------------------


def test_repeat_submission_hits_cache_bit_identical(make_service):
    service = make_service()
    cold = service.submit(pair_payload())
    assert cold.wait(60.0) and cold.state == DONE
    warm = service.submit(pair_payload())
    assert warm.wait(60.0) and warm.state == DONE
    assert warm.result["trace_digest"] == cold.result["trace_digest"]
    assert warm.result["verdict"] == cold.result["verdict"]
    assert warm.result["verdict_cache"]["hit"] is True
    assert "verdict_cache" not in (cold.result or {})
    stats = service.verdict_cache_stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    snapshot = service.metrics_snapshot()
    assert "verdict_cache_hits" in snapshot
    assert "artifact_cache_entries" in snapshot
    # The cached envelope belongs to *this* request, not the cold one.
    assert warm.result["request"]["client"] == "test"
    assert "verdict_cache_hit" in [mark["event"]
                                   for mark in warm.timeline]


def test_mutating_a_served_result_cannot_change_the_next_hit(
        make_service):
    """``RequestRecord.result`` is a fresh copy on every read: changing
    it, at the top level or nested, touches neither the record nor the
    shared document the verdict cache serves next."""
    service = make_service()
    cold = service.submit(pair_payload())
    assert cold.wait(60.0) and cold.state == DONE
    warm = service.submit(pair_payload())
    assert warm.wait(60.0) and warm.state == DONE
    expected = warm.to_dict()["result"]
    for record in (cold, warm):
        result = record.result
        result["trace_digest"] = "tampered"
        result["verdict_cache"] = "tampered"
        result["verdict"]["passed"] = "tampered"
        result["cycles"].append(-1)
        result["request"]["client"] = "tampered"
        del result["n_traces"]
    assert warm.to_dict()["result"] == expected
    again = service.submit(pair_payload())
    assert again.wait(60.0) and again.state == DONE
    served = again.result
    for key in ("trace_digest", "verdict", "cycles", "n_traces"):
        assert served[key] == expected[key], key
    assert served["request"]["client"] == "test"
    assert served["verdict_cache"]["hit"] is True


def test_concurrent_identical_submissions_coalesce(make_service):
    """The second of two identical submissions queues behind the first
    and finds its verdict stored when it is taken off the queue."""
    service = make_service()
    first = service.submit(population_payload(n_traces=8))
    second = service.submit(population_payload(n_traces=8))
    assert first.wait(120.0) and second.wait(120.0)
    assert first.state == DONE and second.state == DONE
    assert first.result["trace_digest"] == second.result["trace_digest"]
    assert second.result["verdict_cache"]["hit"] is True
    stats = service.verdict_cache_stats()
    assert stats["misses"] == 1 and stats["hits"] == 1


def test_a_hit_is_answered_at_admission_while_the_executor_is_busy(
        make_service, monkeypatch):
    """A stored verdict never waits for the executor thread: submitted
    while a slow cold request runs, the hit is terminal when ``submit``
    returns, takes no queue slot and records no queue-wait sample."""
    service = make_service()
    cold = service.submit(pair_payload())
    assert cold.wait(60.0) and cold.state == DONE
    release = threading.Event()
    execute = service._execute

    def held(record, deadline):
        release.wait(60.0)
        return execute(record, deadline)

    monkeypatch.setattr(service, "_execute", held)
    slow = service.submit(pair_payload(cache=False))
    try:
        for _ in range(60_000):
            if slow.state == "running":
                break
            time.sleep(0.001)
        assert slow.state == "running"
        queued_samples = _queue_samples(service)
        hit = service.submit(pair_payload())
        assert hit.terminal and hit.state == DONE
        assert hit.result["verdict_cache"]["hit"] is True
        assert hit.result["trace_digest"] == cold.result["trace_digest"]
        assert [mark["event"] for mark in hit.timeline] \
            == ["received", "verdict_cache_hit", "terminal"]
        assert hit.queued_s is None
        assert _queue_samples(service) == queued_samples
        assert service.queue.depth == 0
    finally:
        release.set()
    assert slow.wait(60.0) and slow.state == DONE


def _queue_samples(service) -> int:
    """Observations in the ``service_queue_seconds`` histogram."""
    metric = service.metrics_snapshot()["service_queue_seconds"]
    return sum(series["count"] for series in metric["series"])


def test_cache_false_and_attribution_bypass_the_cache(make_service):
    service = make_service()
    for payload in (pair_payload(cache=False),
                    pair_payload(cache=False),
                    pair_payload(attribution=True)):
        record = service.submit(payload)
        assert record.wait(60.0) and record.state == DONE
        assert "verdict_cache" not in record.result
    stats = service.verdict_cache_stats()
    assert stats["hits"] == 0 and stats["misses"] == 0
    assert stats["stores"] == 0


def test_served_verdict_is_never_written_to_disk(tmp_path):
    """Verdicts are stored memory-only: a served request leaves its
    program on disk but no verdict file."""
    service = LeakageService(ServiceConfig(),
                             cache=CompileCache(tmp_path))
    try:
        record = service.submit(pair_payload())
        assert record.wait(60.0) and record.state == DONE
        assert service.verdict_cache_stats()["stores"] == 1
    finally:
        service.drain(grace_s=30.0)
    assert list(tmp_path.glob("program-*.pkl"))
    assert not [path for path in tmp_path.iterdir()
                if path.name.startswith("verdict-")]


def test_invalidation_forces_a_fresh_simulation(make_service):
    service = make_service()
    cold = service.submit(pair_payload())
    assert cold.wait(60.0)
    program_key = AssessRequest.from_dict(pair_payload()).program_key()
    assert service.invalidate_verdict_cache(program_key) == 1
    warm = service.submit(pair_payload())
    assert warm.wait(60.0) and warm.state == DONE
    assert "verdict_cache" not in warm.result
    assert warm.result["trace_digest"] == cold.result["trace_digest"]
    stats = service.verdict_cache_stats()
    assert stats["misses"] == 2 and stats["invalidations"] == 1


# -- journal replay × verdict cache (restart accounting) --------------------


def test_restarted_daemon_counts_cached_completions_once(tmp_path):
    journal_path = tmp_path / "journal.jsonl"
    service = LeakageService(ServiceConfig(journal=journal_path))
    try:
        cold = service.submit(pair_payload())
        assert cold.wait(60.0) and cold.state == DONE
        warm = service.submit(pair_payload())
        assert warm.wait(60.0) and warm.state == DONE
        assert warm.result["verdict_cache"]["hit"] is True
    finally:
        service.drain(grace_s=30.0)

    restarted = LeakageService(ServiceConfig(journal=journal_path))
    try:
        report = restarted.recovery_report()
        # Two submissions, two terminal frames: the cached completion is
        # a first-class "done", counted exactly once, interrupting
        # nothing.
        assert report["completed"] == {"done": 2}
        assert report["interrupted"] == []
        assert report["total_submitted"] == 2
    finally:
        restarted.drain(grace_s=30.0)

    frames = [json.loads(line)
              for line in journal_path.read_text().splitlines()]
    submitted = [frame for frame in frames
                 if frame.get("event") == "received"]
    terminal = [frame for frame in frames
                if frame.get("event") == "terminal"]
    assert len(submitted) == 2 and len(terminal) == 2
    # The cached replay keeps its own identifiers: distinct request and
    # trace IDs per submission, each matched by its own terminal frame.
    assert len({frame["id"] for frame in submitted}) == 2
    assert len({frame["trace_id"] for frame in submitted}) == 2
    assert {frame["id"] for frame in terminal} \
        == {frame["id"] for frame in submitted}
    assert all(frame["state"] == "done" for frame in terminal)
