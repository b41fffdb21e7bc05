"""Simulator performance benchmarks (real pytest-benchmark timing).

Unlike the experiment benchmarks (one-shot reproductions), these measure
the toolchain's own throughput so performance regressions are visible:
compilation, assembly, cycle-accurate simulation with energy, the
functional interpreter, and the batch engine's parallel trace collection.
"""

import os
import time

import numpy as np
import pytest

from repro.attacks.dpa import collect_traces, random_plaintexts
from repro.harness.runner import des_run
from repro.isa.assembler import assemble
from repro.lang.compiler import compile_source
from repro.machine.cpu import run_to_halt
from repro.machine.interpreter import run_functional
from repro.programs.des_source import DesProgramSpec, des_source
from repro.programs.workloads import compile_des, key_words, plaintext_words

KEY = 0x133457799BBCDFF1
PT = 0x0123456789ABCDEF


@pytest.fixture(scope="module")
def round1_source():
    return des_source(DesProgramSpec(rounds=1))


@pytest.fixture(scope="module")
def round1_program():
    return compile_des(DesProgramSpec(rounds=1), masking="selective").program


@pytest.fixture(scope="module")
def des_inputs():
    return {"key": key_words(KEY), "plaintext": plaintext_words(PT)}


def test_compile_des_round1(benchmark, round1_source):
    result = benchmark.pedantic(
        lambda: compile_source(round1_source, masking="selective"),
        rounds=3, iterations=1)
    assert len(result.program.text) > 500


def test_assemble_des_round1(benchmark, round1_source):
    assembly = compile_source(round1_source, masking="selective").assembly
    program = benchmark.pedantic(lambda: assemble(assembly),
                                 rounds=3, iterations=1)
    assert len(program.text) > 500


def _timed(function, walls):
    """Call ``function``, append its wall seconds to ``walls`` and
    return its result.  The floors below read ``walls``, not
    ``benchmark.stats``, so they also hold under ``--benchmark-disable``
    (one call per ``pedantic``, no stats)."""
    start = time.perf_counter()
    result = function()
    walls.append(time.perf_counter() - start)
    return result


def test_simulate_with_energy(benchmark, round1_program):
    walls = []
    run = benchmark.pedantic(
        lambda: _timed(
            lambda: des_run(round1_program, KEY, PT, engine="reference"),
            walls),
        rounds=3, iterations=1)
    assert run.cycles > 10_000
    # Throughput floor: the cycle-accurate loop should stay usable.
    cycles_per_second = run.cycles / np.mean(walls)
    assert cycles_per_second > 10_000


def test_simulate_fast_replay(benchmark, round1_program):
    """Schedule-replay engine: same workload, warm schedule cache.

    Asserts the fast engine's speedup floor in-process (fast vs reference
    on this host), which is robust to absolute machine speed.  The floor
    leaves 1.67x headroom below the median measured on a 2-vCPU host
    (15x).
    """
    from repro.machine.fastpath import ensure_schedule

    assert ensure_schedule(round1_program)

    reference, fast = [], []
    for _ in range(3):
        _timed(lambda: des_run(round1_program, KEY, PT, engine="reference"),
               reference)
    run = benchmark.pedantic(
        lambda: _timed(
            lambda: des_run(round1_program, KEY, PT, engine="fast"), fast),
        rounds=3, iterations=1)
    reference_s, fast_s = min(reference), min(fast)
    assert run.engine == "fast"
    assert run.cycles > 10_000
    speedup = reference_s / fast_s
    print(f"\nschedule replay: reference {reference_s:.3f}s, "
          f"fast {fast_s:.3f}s, speedup {speedup:.2f}x")
    assert speedup >= 9.0


def test_simulate_without_energy(benchmark, round1_program, des_inputs):
    cpu = benchmark.pedantic(
        lambda: run_to_halt(round1_program, inputs=des_inputs),
        rounds=3, iterations=1)
    assert cpu.cycles > 10_000


def test_functional_interpreter(benchmark, round1_program, des_inputs):
    interp = benchmark.pedantic(
        lambda: run_functional(round1_program, inputs=des_inputs),
        rounds=3, iterations=1)
    assert interp.executed > 10_000


def test_parallel_trace_collection(benchmark, round1_program):
    """The ISSUE's speedup workload: 16 DPA traces, jobs=1 vs jobs=4.

    Records the parallel collection under benchmark timing and prints the
    measured speedup.  The >=2x wall-clock assertion only fires on hosts
    with at least 4 usable cores — on smaller machines the engine cannot
    beat the GIL-free serial loop, and the benchmark just checks that the
    parallel path stays correct (bit-identical traces).
    """
    plaintexts = random_plaintexts(16)

    serial_walls, parallel_walls = [], []
    serial = _timed(
        lambda: collect_traces(round1_program, KEY, plaintexts, jobs=1),
        serial_walls)
    parallel = benchmark.pedantic(
        lambda: _timed(
            lambda: collect_traces(round1_program, KEY, plaintexts, jobs=4),
            parallel_walls),
        rounds=1, iterations=1)
    serial_s, parallel_s = serial_walls[0], parallel_walls[0]

    assert np.array_equal(serial.traces, parallel.traces)
    speedup = serial_s / parallel_s
    print(f"\nparallel trace collection: serial {serial_s:.2f}s, "
          f"4 workers {parallel_s:.2f}s, speedup {speedup:.2f}x "
          f"({os.cpu_count()} cores)")
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    if cores >= 4:
        assert speedup >= 2.0
    else:
        # Fork + pickling overhead must stay bounded even without cores.
        assert speedup >= 0.5
