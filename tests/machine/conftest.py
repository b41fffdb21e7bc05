"""Fixtures shared by the schedule-engine tests."""

import pytest

from repro.machine import fastpath


@pytest.fixture
def fresh_schedule_cache(tmp_path, monkeypatch):
    """Point the default compile cache at an empty directory and forget
    every in-process schedule, so the next fast run must record."""
    from repro.harness import engine as harness_engine

    monkeypatch.setenv("REPRO_COMPILE_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(harness_engine, "_DEFAULT_CACHE", None)
    fastpath._clear_caches()
    yield tmp_path
    fastpath._clear_caches()
