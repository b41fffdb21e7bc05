"""Vector trace-batch engine: bit-identity against the reference engine.

The vector engine inherits the fast engine's absolute contract: for every
program whose control path is data-independent, replaying the recorded
schedule — here as one NumPy pass over a whole batch — must reproduce
the reference pipeline's output *bit for bit*: per-cycle energies (same
floats, same accumulation order), component matrices, totals/counts,
final architectural state, markers, and performance counters.  These
tests enforce that contract over the full set of experiment programs
(mirroring ``test_fastpath.py``), plus the batch-native dispatch in
``run_jobs``, the registry fallback chain, and engine resolution.
"""

import hashlib

import numpy as np
import pytest

from repro import obs
from repro.aes.reference import int_to_state
from repro.harness.engine import SimJob, run_jobs
from repro.harness.runner import des_run, run_with_trace
from repro.isa.assembler import assemble
from repro.machine import engines, fastpath, resolve_engine, vector
from repro.machine.exceptions import CycleLimitExceeded
from repro.masking.policy import MaskingPolicy, apply_policy
from repro.programs.des_source import DesProgramSpec
from repro.programs.workloads import compile_des, key_words, plaintext_words

KEY = 0x133457799BBCDFF1
PLAINTEXT = 0x0123456789ABCDEF
AES_KEY = 0x000102030405060708090A0B0C0D0E0F
AES_PLAINTEXT = 0x00112233445566778899AABBCCDDEEFF

#: Same golden digests the fast path and attribution layer are pinned to.
GOLDEN_DIGESTS = {
    "none":
        "a63e8b8e0cd6cd22c0cbbc20008443d4ca47533378988a03106778e3b071d8b4",
    "selective":
        "5d1a41d858d421defc6f4dc3650af5951f026157ea5baca802c971d1c83ce954",
}


def _digest(run):
    return hashlib.sha256(run.trace.energy.tobytes()).hexdigest()


def _des_inputs(program):
    inputs = {"key": key_words(KEY)}
    if "plaintext" in program.symbols:
        inputs["plaintext"] = plaintext_words(PLAINTEXT)
    return inputs


def _assert_identical(reference, vectored):
    """Every observable of the two runs must match exactly."""
    assert _digest(reference) == _digest(vectored)
    assert reference.cycles == vectored.cycles
    assert reference.cpu.pipeline.regs.dump() == \
        vectored.cpu.pipeline.regs.dump()
    assert reference.cpu.memory._words == vectored.cpu.memory._words
    assert reference.cpu.pipeline.markers == vectored.cpu.pipeline.markers
    assert reference.cpu.pipeline.stats == vectored.cpu.pipeline.stats
    assert reference.tracker.totals == vectored.tracker.totals
    assert reference.tracker.counts == vectored.tracker.counts
    if reference.tracker.component_energy:
        assert np.array_equal(
            np.asarray(reference.tracker.component_energy),
            np.asarray(vectored.tracker.component_energy))


def _differential(program, operand_isolation=True, inputs=None,
                  **run_kwargs):
    if inputs is None:
        inputs = _des_inputs(program)
    reference = run_with_trace(program, inputs=inputs, engine="reference",
                               operand_isolation=operand_isolation,
                               collect_components=True, **run_kwargs)
    vectored = run_with_trace(program, inputs=inputs, engine="vector",
                              operand_isolation=operand_isolation,
                              collect_components=True, **run_kwargs)
    assert vectored.engine == "vector"
    assert reference.engine == "reference"
    _assert_identical(reference, vectored)
    return reference, vectored


# -- golden digests -----------------------------------------------------

@pytest.mark.parametrize("masking", ["none", "selective"])
def test_round1_vector_hits_golden_digest(masking):
    program = compile_des(DesProgramSpec(rounds=1), masking=masking).program
    run = des_run(program, KEY, PLAINTEXT, engine="vector")
    assert run.engine == "vector"
    assert run.cycles == 18432
    assert _digest(run) == GOLDEN_DIGESTS[masking]


# -- differential bit-identity over the experiment programs -------------

@pytest.mark.parametrize("masking", ["none", "selective"])
def test_full_des_bit_identical(masking):
    program = compile_des(DesProgramSpec(rounds=16), masking=masking).program
    _differential(program)


@pytest.mark.parametrize("masking", ["none", "selective", "annotate-only"])
def test_round1_bit_identical(masking):
    program = compile_des(DesProgramSpec(rounds=1), masking=masking).program
    _differential(program)


def test_keyschedule_only_bit_identical():
    spec = DesProgramSpec(rounds=0, include_keyschedule=True)
    program = compile_des(spec, masking="selective").program
    _differential(program)


@pytest.mark.parametrize("policy", [MaskingPolicy.ALL_LOADS_STORES,
                                    MaskingPolicy.ALL])
def test_whole_program_policies_bit_identical(policy):
    base = compile_des(DesProgramSpec(rounds=2), masking="none").program
    _differential(apply_policy(base, policy))


def test_no_operand_isolation_bit_identical():
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program
    _differential(program, operand_isolation=False)


@pytest.mark.parametrize("masking", ["none", "selective"])
def test_aes_bit_identical(masking):
    from repro.programs.workloads import compile_aes

    program = compile_aes(masking=masking).program
    _differential(program, inputs={"key": int_to_state(AES_KEY),
                                   "plaintext": int_to_state(AES_PLAINTEXT)})


def test_noise_bit_identical():
    """Same noise seed -> the vector post-pass replays the tracker's
    chunked draw stream draw-for-draw."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program
    _differential(program, noise_sigma=0.1, noise_seed=7)


def test_coupled_bus_bit_identical():
    """The vectorized dual-rail coupling math (spread/interleave popcount)
    matches the scalar CoupledBusModel event for event."""
    import dataclasses

    from repro.energy.params import DEFAULT_PARAMS

    params = dataclasses.replace(DEFAULT_PARAMS, c_coupling=0.12)
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program
    _differential(program, params=params)


def test_opcode_mix_identical():
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program

    def observed(engine):
        was_enabled = obs.enabled()
        with obs.scope():
            obs.enable()
            try:
                return des_run(program, KEY, PLAINTEXT, engine=engine)
            finally:
                if not was_enabled:
                    obs.disable()

    reference, vectored = observed("reference"), observed("vector")
    assert vectored.engine == "vector"
    assert reference.cpu.pipeline.opcode_mix
    assert reference.cpu.pipeline.opcode_mix == \
        vectored.cpu.pipeline.opcode_mix


def test_attribution_substitutes_hooked_engine():
    """Attribution needs per-cycle hooks; the registry substitutes the
    vector engine's declared ``hooked`` engine (fast) transparently."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program

    def attributed(engine):
        was_enabled = obs.enabled()
        with obs.scope():
            obs.enable_attribution()
            try:
                return des_run(program, KEY, PLAINTEXT, engine=engine)
            finally:
                obs.disable_attribution()
                if not was_enabled:
                    obs.disable()

    reference, vectored = attributed("reference"), attributed("vector")
    assert vectored.engine == "fast"
    assert reference.attribution.cells == vectored.attribution.cells


# -- divergence and fallback --------------------------------------------

DIVERGENT_SOURCE = """
.data
inval: .word 0
.text
main:
    la $t0, inval
    lw $t1, 0($t0)
    beq $t1, $zero, skip
    addi $t2, $zero, 99
skip:
    addi $t3, $zero, 7
    halt
"""


def test_divergence_falls_back_bit_identically():
    """An input that flips a recorded branch re-runs down the fallback
    chain with completely fresh state, labeled with the requested engine."""
    program = assemble(DIVERGENT_SOURCE)
    fastpath._clear_caches()
    vector._clear_caches()
    reference = run_with_trace(program, inputs={"inval": [1]},
                               engine="reference", collect_components=True)
    vectored = run_with_trace(program, inputs={"inval": [1]},
                              engine="vector", collect_components=True)
    assert vectored.engine == "vector-fallback"
    _assert_identical(reference, vectored)
    assert (fastpath.program_digest(program), True) in fastpath._DIVERGENT


def test_matching_input_replays_before_any_divergence():
    program = assemble(DIVERGENT_SOURCE)
    fastpath._clear_caches()
    vector._clear_caches()
    reference = run_with_trace(program, inputs={"inval": [0]},
                               engine="reference")
    vectored = run_with_trace(program, inputs={"inval": [0]},
                              engine="vector")
    assert vectored.engine == "vector"
    _assert_identical(reference, vectored)


def test_divergent_batch_falls_back_per_job():
    """One divergent trace poisons the whole batch (whole-program
    divergence marking, like the fast engine); every job still comes back
    bit-identical via the per-job fallback chain."""
    program = assemble(DIVERGENT_SOURCE)
    fastpath._clear_caches()
    vector._clear_caches()
    values = (0, 0, 1, 0)
    jobs = [SimJob(program=program, inputs={"inval": [v]}, label=f"j{i}",
                   engine="vector") for i, v in enumerate(values)]
    results = run_jobs(jobs)
    assert [r.engine for r in results] == ["vector-fallback"] * 4
    for result, value in zip(results, values):
        ref = run_with_trace(program, inputs={"inval": [value]},
                             engine="reference")
        assert np.array_equal(result.energy, ref.trace.energy)


def test_cycle_limit_parity():
    program = assemble("""
.text
main:
    j main
""")
    fastpath._clear_caches()
    vector._clear_caches()
    with pytest.raises(CycleLimitExceeded) as reference:
        run_with_trace(program, engine="reference", max_cycles=500)
    with pytest.raises(CycleLimitExceeded) as vectored:
        run_with_trace(program, engine="vector", max_cycles=500)
    assert vectored.value.cycles == reference.value.cycles == 500
    assert vectored.value.pc == reference.value.pc


def test_streaming_always_uses_reference_engine(tmp_path):
    from repro.harness.io import StreamingTraceWriter

    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    stream = StreamingTraceWriter(tmp_path / "trace.csv")
    try:
        run = run_with_trace(program, inputs=_des_inputs(program),
                             stream=stream, engine="vector")
    finally:
        stream.close()
    assert run.engine == "reference"


# -- engine registry and resolution -------------------------------------

def test_registry_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert engines.resolve(None) == "fast"
    assert engines.resolve("vector") == "vector"
    monkeypatch.setenv("REPRO_ENGINE", "vector")
    assert engines.resolve(None) == "vector"
    assert engines.resolve("reference") == "reference"
    monkeypatch.setenv("REPRO_ENGINE", "warp")
    with pytest.raises(ValueError):
        engines.resolve(None)
    with pytest.raises(ValueError):
        engines.resolve("warp")
    # The historical public name is a plain re-export of the registry's.
    assert resolve_engine is engines.resolve
    assert set(fastpath.ENGINES) == {"fast", "reference", "vector"}


def test_registry_specs():
    assert engines.get("vector").fallback == "fast"
    assert engines.get("fast").fallback == "reference"
    assert engines.get("reference").fallback is None
    assert engines.get("vector").batch is not None
    assert engines.get("fast").batch is None
    with pytest.raises(ValueError):
        engines.get("warp")


# -- batch-native dispatch ----------------------------------------------

def test_run_jobs_batch_native_bit_identical():
    """A homogeneous vector batch is served in one vectorized pass and
    matches the reference per-job path result for result."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    batch = lambda: [SimJob(program=program, des_pair=(KEY, PLAINTEXT ^ i),
                            label=f"job[{i}]") for i in range(4)]
    reference = run_jobs(batch(), engine="reference")
    vectored = run_jobs(batch(), engine="vector")
    for ref_result, vec_result in zip(reference, vectored):
        assert vec_result.engine == "vector"
        assert ref_result.cycles == vec_result.cycles
        assert np.array_equal(ref_result.energy, vec_result.energy)
        assert ref_result.markers == vec_result.markers
        assert ref_result.totals == vec_result.totals
        assert ref_result.counts == vec_result.counts
        assert ref_result.label == vec_result.label


def test_run_jobs_batch_native_noise_and_components():
    """Per-job noise seeds and component matrices survive the batch path."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    batch = lambda: [SimJob(program=program, des_pair=(KEY, PLAINTEXT ^ i),
                            noise_sigma=0.2, noise_seed=i + 1,
                            collect_components=True, label=f"job[{i}]")
                     for i in range(3)]
    reference = run_jobs(batch(), engine="reference")
    vectored = run_jobs(batch(), engine="vector")
    for ref_result, vec_result in zip(reference, vectored):
        assert np.array_equal(ref_result.energy, vec_result.energy)
        assert ref_result.totals == vec_result.totals
        assert np.array_equal(np.asarray(ref_result.components),
                              np.asarray(vec_result.components))


def test_run_jobs_mixed_engines_fall_back_to_per_job():
    """A batch that mixes engines cannot go batch-native; results still
    come back correct, each under its own engine."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    jobs = [SimJob(program=program, des_pair=(KEY, PLAINTEXT),
                   label="a", engine="vector"),
            SimJob(program=program, des_pair=(KEY, PLAINTEXT),
                   label="b", engine="reference")]
    results = run_jobs(jobs)
    assert results[0].engine == "vector"
    assert results[1].engine == "reference"
    assert np.array_equal(results[0].energy, results[1].energy)


def test_collect_traces_vector_bit_identical():
    """DPA collection via the batch-native vector path matches the
    reference engine trace matrix exactly."""
    from repro.attacks.dpa import collect_traces, random_plaintexts

    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    plaintexts = random_plaintexts(6)
    reference = collect_traces(program, KEY, plaintexts,
                               engine="reference")
    vectored = collect_traces(program, KEY, plaintexts, engine="vector")
    assert np.array_equal(reference.traces, vectored.traces)


def test_final_state_is_input_dependent():
    """The vector replay applies *this batch's* data flow, not the
    recorded run's: different plaintexts -> different ciphertexts."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    first = des_run(program, KEY, PLAINTEXT, engine="vector")
    second = des_run(program, KEY, PLAINTEXT ^ 0xFF, engine="vector")
    assert first.engine == second.engine == "vector"
    assert first.cpu.read_symbol_words("ciphertext", 64) != \
        second.cpu.read_symbol_words("ciphertext", 64)
    assert _digest(first) != _digest(second)


def test_vector_cpu_is_one_shot():
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    run = des_run(program, KEY, PLAINTEXT, engine="vector")
    from repro.machine.exceptions import SimulationError

    with pytest.raises(SimulationError):
        run.cpu.run()


def test_plan_compiled_once(monkeypatch):
    """Repeated vector runs of the same program reuse the compiled plan."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    fastpath._clear_caches()
    vector._clear_caches()
    calls = []
    compile_plan = vector._compile_plan

    def counting(prog, bound):
        calls.append(1)
        return compile_plan(prog, bound)

    monkeypatch.setattr(vector, "_compile_plan", counting)
    des_run(program, KEY, PLAINTEXT, engine="vector")
    des_run(program, KEY, PLAINTEXT ^ 1, engine="vector")
    des_run(program, KEY ^ (1 << 60), PLAINTEXT, engine="vector")
    assert len(calls) == 1
