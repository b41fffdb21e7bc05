"""Verdict cache: keys, LRU, single-flight, service wiring, journal replay.

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
    """Store one document the way a leader does; returns evictions."""
    verb, flight = cache.begin(key)
    assert verb == "lead"
    return cache.complete(key, flight, document)[1]


def _get(cache: VerdictCache, key: str):
    """The stored document, or ``None`` (the lookup is left unled)."""
    verb, token = cache.begin(key)
    if verb == "hit":
        document, _age_s = token
        return document
    cache.abandon(key, token)
    return None


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
    verb, (document, age_s) = cache.begin("verdict-k")
    assert verb == "hit"
    assert document == {"verdict": {"passed": True}}
    assert "verdict_cache" not in document  # the envelope is the caller's
    assert age_s >= 0.0
    stored, _stored_at = cache.store.memory.get("verdict-k")
    assert document is stored


def test_hits_and_joiners_share_one_canonical_document(tmp_path):
    """One decoded copy per entry, handed out as is: the leader, a hit
    and a joiner get the stored document itself (no per-request copy to
    retain), and it
    carries lists, never the tuples the leader stored."""
    cache = _verdicts(tmp_path)
    document = {"trace_digest": "ab" * 32,
                "verdict": {"passed": True, "leaky_cycles": (3, 5)}}
    outcome, leader_flight = cache.begin("verdict-k")
    assert outcome == "lead"
    verb, flight = cache.begin("verdict-k")
    assert verb == "join"
    served, _evicted = cache.complete("verdict-k", leader_flight, document)
    joined = cache.wait(flight, timeout=5.0)
    first = _get(cache, "verdict-k")
    second = _get(cache, "verdict-k")
    assert first is second is joined is served  # the leader's too
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


# -- single-flight ----------------------------------------------------------


def test_concurrent_identical_requests_coalesce_on_one_leader(tmp_path):
    cache = _verdicts(tmp_path)
    outcome, leader_flight = cache.begin("k")
    assert outcome == "lead"
    joined = []

    def join():
        verb, flight = cache.begin("k")
        assert verb == "join"
        joined.append(cache.wait(flight, timeout=30.0))

    threads = [threading.Thread(target=join) for _ in range(3)]
    for thread in threads:
        thread.start()
    time.sleep(0.05)  # let the joiners block on the flight
    cache.complete("k", leader_flight, {"verdict": "computed-once"})
    for thread in threads:
        thread.join(30.0)
    assert [doc["verdict"] for doc in joined] == ["computed-once"] * 3
    stats = cache.stats()
    assert stats["misses"] == 1 and stats["coalesced"] == 3
    # After completion the entry is a plain hit, no flight left.
    verb, (document, _age_s) = cache.begin("k")
    assert verb == "hit" and document["verdict"] == "computed-once"
    assert stats["inflight"] == 0 or cache.stats()["inflight"] == 0


def test_failed_leader_wakes_joiners_empty_handed(tmp_path):
    cache = _verdicts(tmp_path)
    _, leader_flight = cache.begin("k")
    verb, flight = cache.begin("k")
    assert verb == "join"
    cache.abandon("k", leader_flight)
    assert cache.wait(flight, timeout=5.0) is None
    assert cache.stats()["coalesced_misses"] == 1
    assert cache.store.memory.get("k") is None  # errors are never cached


# -- service wiring ---------------------------------------------------------


def test_repeat_submission_hits_cache_bit_identical(make_service):
    service = make_service(workers=1)
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
    service = make_service(workers=1)
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
    service = make_service(workers=2)
    first = service.submit(population_payload(n_traces=8))
    second = service.submit(population_payload(n_traces=8))
    assert first.wait(120.0) and second.wait(120.0)
    assert first.state == DONE and second.state == DONE
    assert first.result["trace_digest"] == second.result["trace_digest"]
    stats = service.verdict_cache_stats()
    # Exactly one simulation ran; the other request either coalesced
    # onto it or (if it finished first) hit the stored entry.
    assert stats["misses"] == 1
    assert stats["hits"] + stats["coalesced"] >= 1


def test_cache_false_and_attribution_bypass_the_cache(make_service):
    service = make_service(workers=1)
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
    service = LeakageService(ServiceConfig(workers=1),
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
    service = make_service(workers=1)
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
    service = LeakageService(ServiceConfig(workers=1,
                                           journal=journal_path))
    try:
        cold = service.submit(pair_payload())
        assert cold.wait(60.0) and cold.state == DONE
        warm = service.submit(pair_payload())
        assert warm.wait(60.0) and warm.state == DONE
        assert warm.result["verdict_cache"]["hit"] is True
    finally:
        service.drain(grace_s=30.0)

    restarted = LeakageService(ServiceConfig(workers=1,
                                             journal=journal_path))
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
