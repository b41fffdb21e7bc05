"""The artifact store: one memory LRU over the disk layer, one key rule
for programs, bound schedules and verdicts."""

import pickle

import numpy as np
import pytest

from repro import fingerprint
from repro.harness import engine as harness_engine
from repro.harness.engine import CompileCache, CompileRequest, default_cache
from repro.harness.runner import des_run
from repro.machine import fastpath
from repro.programs.des_source import DesProgramSpec
from repro.service.cache import verdict_key
from repro.service.protocol import AssessRequest

TINY_SPEC = DesProgramSpec(rounds=1, include_ip=False, include_fp=False)
KEY = 0x133457799BBCDFF1
PLAINTEXT = 0x0123456789ABCDEF


@pytest.fixture
def fresh_default_store(tmp_path, monkeypatch):
    """A default store on an empty directory, with no schedule memo."""
    monkeypatch.setenv("REPRO_COMPILE_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(harness_engine, "_DEFAULT_CACHE", None)
    fastpath._clear_caches()
    yield tmp_path
    fastpath._clear_caches()


def _live_bytes(memory) -> int:
    return sum(size for _, size in memory._entries.values())


def test_lru_evicts_across_kinds(tmp_path):
    """A program, a bound schedule and a verdict share one budget; the
    least recently used one goes, whatever its kind."""
    program = CompileRequest(spec=TINY_SPEC, masking="none").compile()
    bound = fastpath._BoundSchedule(fastpath.record_schedule(program))
    verdict = (b'{"verdict": "v"}', 0.0)
    sizes = [len(pickle.dumps(item)) for item in (program, bound, verdict)]
    cache = CompileCache(tmp_path, max_bytes=sum(sizes) - 1)
    cache.store_artifact("program-p", program)
    cache.store_artifact("sched-s", bound)
    assert cache.artifact("program-p") is program  # schedule is now LRU
    assert cache.store_artifact("verdict-v", verdict, durable=False) == 1
    assert "sched-s" not in cache.memory
    assert "program-p" in cache.memory and "verdict-v" in cache.memory
    assert cache.memory.bytes == sizes[0] + sizes[2]
    assert cache.memory.evictions == 1
    # The evicted schedule is still on disk and binds again on load.
    reloaded = cache.artifact("sched-s")
    assert isinstance(reloaded, fastpath._BoundSchedule)
    assert reloaded.schedule.steps == bound.schedule.steps
    # An entry larger than the whole budget is not kept in memory.
    assert cache.store_artifact("verdict-big", b"x" * sum(sizes),
                                durable=False) == 0
    assert "verdict-big" not in cache.memory
    assert cache.memory.bytes == _live_bytes(cache.memory) \
        <= cache.memory.max_bytes


def test_memory_clear_keeps_byte_accounting(fresh_default_store):
    """``default_cache().memory.clear()`` (what the e2e benchmark does
    between setups) resets the byte total with the entries."""
    cache = default_cache()
    cache.program_for(CompileRequest(spec=TINY_SPEC, masking="none"))
    assert cache.memory.bytes > 0
    cache.memory.clear()
    assert cache.memory.bytes == 0 and len(cache.memory) == 0
    cache.memory.max_bytes = 3000
    for index in range(10):
        cache.store_artifact(f"verdict-{index}", b"x" * 900, durable=False)
        assert cache.memory.bytes == _live_bytes(cache.memory) \
            <= cache.memory.max_bytes
        assert f"verdict-{index}" in cache.memory
    assert len(cache.memory) < 10


def test_fresh_store_replays_schedule_without_recording(
        fresh_default_store, monkeypatch):
    """A new store on the same directory loads the bound schedule from
    disk and replays bit-identically, never calling ``record_schedule``."""
    program = CompileRequest(spec=TINY_SPEC, masking="none").compile()
    first = des_run(program, KEY, PLAINTEXT, engine="fast")
    assert first.engine == "fast"
    monkeypatch.setattr(harness_engine, "_DEFAULT_CACHE", None)

    def refuse(*args, **kwargs):
        raise AssertionError("schedule re-recorded")

    monkeypatch.setattr(fastpath, "record_schedule", refuse)
    again = des_run(program, KEY, PLAINTEXT, engine="fast")
    assert again.engine == "fast"
    assert np.array_equal(again.trace.energy, first.trace.energy)
    assert again.cycles == first.cycles


def test_every_key_kind_follows_the_source_fingerprint(monkeypatch):
    request = AssessRequest.from_dict({"mode": "pair", "rounds": 2})
    compile_request = CompileRequest(spec=TINY_SPEC, masking="none")

    def keys():
        return (compile_request.cache_key(),
                fastpath._schedule_cache_key("0" * 32, True),
                verdict_key(request))

    monkeypatch.setattr(fingerprint, "source_fingerprint", lambda: "a" * 16)
    before = keys()
    monkeypatch.setattr(fingerprint, "source_fingerprint", lambda: "b" * 16)
    after = keys()
    assert [key.split("-")[0] for key in before] == \
        ["program", "sched", "verdict"]
    for old, new in zip(before, after):
        assert old != new
