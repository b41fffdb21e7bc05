"""Shared fixtures: compiled programs are expensive, so cache per session."""

from __future__ import annotations

import pytest

from repro.harness.runner import des_run
from repro.lang.compiler import compile_source
from repro.programs.des_source import DesProgramSpec
from repro.programs.workloads import compile_des

KEY = 0x133457799BBCDFF1
PLAINTEXT = 0x0123456789ABCDEF


@pytest.fixture
def fresh_schedule_cache(tmp_path, monkeypatch):
    """Point the default artifact store at an empty directory and drop
    the stored programs and schedules, so the next run must compile and
    record."""
    from repro.harness import engine as harness_engine
    from repro.machine import fastpath

    monkeypatch.setenv("REPRO_COMPILE_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(harness_engine, "_DEFAULT_CACHE", None)
    fastpath._clear_caches()
    yield tmp_path
    fastpath._clear_caches()


@pytest.fixture(scope="session")
def round1_unmasked():
    return compile_des(DesProgramSpec(rounds=1), masking="none")


@pytest.fixture(scope="session")
def round1_masked():
    return compile_des(DesProgramSpec(rounds=1), masking="selective")


@pytest.fixture(scope="session")
def keyperm_unmasked():
    spec = DesProgramSpec(rounds=0, include_ip=False, include_fp=False)
    return compile_des(spec, masking="none")


@pytest.fixture(scope="session")
def keyperm_masked():
    spec = DesProgramSpec(rounds=0, include_ip=False, include_fp=False)
    return compile_des(spec, masking="selective")


def run_source(source: str, masking: str = "selective", inputs=None,
               tracker=None):
    """Compile and run a SecureC snippet; returns the CPU."""
    from repro.machine.cpu import run_to_halt

    compiled = compile_source(source, masking=masking)
    return compiled, run_to_halt(compiled.program, tracker=tracker,
                                 inputs=inputs)


@pytest.fixture
def des_runner():
    return des_run
