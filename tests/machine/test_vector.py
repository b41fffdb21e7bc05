"""Vector trace-batch engine: bit-identity against the reference engine.

The vector engine inherits the fast engine's absolute contract: for every
program whose control path is data-independent, replaying the recorded
schedule — here as one NumPy pass over a whole batch — must reproduce
the reference pipeline's output *bit for bit*: per-cycle energies (same
floats, same accumulation order), component matrices, totals/counts and
markers.  The engine is batch-only, so these tests drive it the way it
runs: ``run_jobs`` batches of at least two jobs, over the full set of
experiment programs (mirroring ``test_fastpath.py``).  They also pin the
routing rule that single traces requested on ``vector`` replay on
``fast``, the registry fallback chain, and engine resolution.
"""

import dataclasses
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

#: (key, plaintext) pairs of the two-job DES batches.
DES_PAIRS = ((KEY, PLAINTEXT), (KEY ^ (1 << 60), PLAINTEXT ^ 0xFF))


def _digest(run):
    return hashlib.sha256(run.trace.energy.tobytes()).hexdigest()


def _des_inputs(program):
    inputs = {"key": key_words(KEY)}
    if "plaintext" in program.symbols:
        inputs["plaintext"] = plaintext_words(PLAINTEXT)
    return inputs


def _batch_differential(program, inputs=None, **job_kwargs):
    """Run one batch on the reference and the vector engine; the vector
    batch must be served natively and match the reference job for job.

    ``inputs`` lists one symbol-input dict per job; by default the jobs
    run :data:`DES_PAIRS`.
    """
    if inputs is None:
        per_job = [{"des_pair": pair} for pair in DES_PAIRS]
    else:
        per_job = [{"inputs": job_inputs} for job_inputs in inputs]

    def batch():
        return [SimJob(program=program, collect_components=True,
                       label=f"job[{i}]", **job, **job_kwargs)
                for i, job in enumerate(per_job)]

    reference = run_jobs(batch(), engine="reference")
    vectored = run_jobs(batch(), engine="vector")
    assert len(vectored) >= 2
    for ref_result, vec_result in zip(reference, vectored, strict=True):
        assert ref_result.engine == "reference"
        assert vec_result.engine == "vector"
        assert ref_result.label == vec_result.label
        assert ref_result.cycles == vec_result.cycles
        assert ref_result.energy.tobytes() == vec_result.energy.tobytes()
        assert ref_result.markers == vec_result.markers
        assert ref_result.totals == vec_result.totals
        assert ref_result.counts == vec_result.counts
        assert np.array_equal(np.asarray(ref_result.components),
                              np.asarray(vec_result.components))
    return reference, vectored


# -- golden digests -----------------------------------------------------

@pytest.mark.parametrize("masking", ["none", "selective"])
def test_round1_vector_hits_golden_digest(masking):
    program = compile_des(DesProgramSpec(rounds=1), masking=masking).program
    _reference, vectored = _batch_differential(program)
    assert vectored[0].cycles == 18432
    assert hashlib.sha256(vectored[0].energy.tobytes()).hexdigest() \
        == GOLDEN_DIGESTS[masking]


# -- differential bit-identity over the experiment programs -------------

@pytest.mark.parametrize("masking", ["none", "selective"])
def test_full_des_bit_identical(masking):
    program = compile_des(DesProgramSpec(rounds=16), masking=masking).program
    _batch_differential(program)


@pytest.mark.parametrize("masking", ["none", "selective", "annotate-only"])
def test_round1_bit_identical(masking):
    program = compile_des(DesProgramSpec(rounds=1), masking=masking).program
    _batch_differential(program)


def test_keyschedule_only_bit_identical():
    spec = DesProgramSpec(rounds=0, include_keyschedule=True)
    program = compile_des(spec, masking="selective").program
    _batch_differential(program)


@pytest.mark.parametrize("policy", [MaskingPolicy.ALL_LOADS_STORES,
                                    MaskingPolicy.ALL])
def test_whole_program_policies_bit_identical(policy):
    base = compile_des(DesProgramSpec(rounds=2), masking="none").program
    _batch_differential(apply_policy(base, policy))


def test_no_operand_isolation_bit_identical():
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program
    _batch_differential(program, operand_isolation=False)


@pytest.mark.parametrize("masking", ["none", "selective"])
def test_aes_bit_identical(masking):
    from repro.programs.workloads import compile_aes

    program = compile_aes(masking=masking).program
    _batch_differential(program, inputs=[
        {"key": int_to_state(AES_KEY),
         "plaintext": int_to_state(AES_PLAINTEXT ^ i)} for i in range(2)])


def test_noise_bit_identical():
    """Same noise seed -> the vector post-pass replays the tracker's
    chunked draw stream draw-for-draw (the two jobs share the seed, so
    only their inputs tell them apart)."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program
    _batch_differential(program, noise_sigma=0.1, noise_seed=7)


def test_coupled_bus_bit_identical():
    """The vectorized dual-rail coupling math (spread/interleave popcount)
    matches the scalar CoupledBusModel event for event."""
    from repro.energy.params import DEFAULT_PARAMS

    params = dataclasses.replace(DEFAULT_PARAMS, c_coupling=0.12)
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program
    _batch_differential(program, params=params)


def test_score_blocks_carry_state(monkeypatch):
    """A 7-cycle score block carries each trace's model state, running
    totals and noise across block edges bit-identically."""
    monkeypatch.setattr(vector, "SCORE_BLOCK", 7)
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program
    _batch_differential(program, noise_sigma=0.1, noise_seed=7)


def test_opcode_mix_identical():
    """An observed single run requested on vector replays on fast and
    installs the reference engine's dynamic instruction mix."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program

    def observed(engine):
        with obs.scope(force=True):
            return des_run(program, KEY, PLAINTEXT, engine=engine)

    reference, vectored = observed("reference"), observed("vector")
    assert vectored.engine == "fast"
    assert reference.cpu.pipeline.opcode_mix
    assert reference.cpu.pipeline.opcode_mix == \
        vectored.cpu.pipeline.opcode_mix


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


def _assert_identical(reference, replayed):
    """Every observable of two single runs must match exactly."""
    assert _digest(reference) == _digest(replayed)
    assert reference.cycles == replayed.cycles
    assert reference.cpu.pipeline.regs.dump() == \
        replayed.cpu.pipeline.regs.dump()
    assert reference.cpu.memory._words == replayed.cpu.memory._words
    assert reference.cpu.pipeline.markers == replayed.cpu.pipeline.markers
    assert reference.cpu.pipeline.stats == replayed.cpu.pipeline.stats
    assert reference.tracker.totals == replayed.tracker.totals
    assert reference.tracker.counts == replayed.tracker.counts


def _fallbacks(context) -> float:
    return context.registry.counter("engine_fallbacks").total()


def test_divergence_falls_back_bit_identically():
    """A single vector-requested trace whose input flips a recorded
    branch replays on fast, which declines it: the trace re-runs on the
    reference engine with fresh state, labelled as a fast fallback."""
    program = assemble(DIVERGENT_SOURCE)
    fastpath._clear_caches()
    vector._clear_caches()
    reference = run_with_trace(program, inputs={"inval": [1]},
                               engine="reference", collect_components=True)
    with obs.scope(force=True) as context:
        vectored = run_with_trace(program, inputs={"inval": [1]},
                                  engine="vector", collect_components=True)
        assert _fallbacks(context) == 1
    assert vectored.engine == "fast-fallback"
    _assert_identical(reference, vectored)
    assert (fastpath.program_digest(program), True) in fastpath._DIVERGENT
    assert not vector._PLANS


def test_matching_input_replays_before_any_divergence():
    """Until an input flips a recorded branch, a batch of the divergent
    program is served natively and matches the reference."""
    program = assemble(DIVERGENT_SOURCE)
    fastpath._clear_caches()
    vector._clear_caches()
    _batch_differential(program, inputs=[{"inval": [0]}, {"inval": [0]}])


def test_divergent_batch_falls_back_per_job():
    """One divergent trace poisons the whole batch (whole-program
    divergence marking, like the fast engine); every job still comes back
    bit-identical via the per-job path, where vector jobs replay on fast
    and fast falls back to the reference engine."""
    program = assemble(DIVERGENT_SOURCE)
    fastpath._clear_caches()
    vector._clear_caches()
    values = (0, 0, 1, 0)
    jobs = [SimJob(program=program, inputs={"inval": [v]}, label=f"j{i}",
                   engine="vector") for i, v in enumerate(values)]
    results = run_jobs(jobs)
    assert [r.engine for r in results] == ["fast-fallback"] * 4
    for result, value in zip(results, values):
        ref = run_with_trace(program, inputs={"inval": [value]},
                             engine="reference")
        assert np.array_equal(result.energy, ref.trace.energy)


def _batch_overrun(program, engine, max_cycles, **job_kwargs):
    jobs = [SimJob(program=program, label=f"job[{i}]", max_cycles=max_cycles,
                   **job_kwargs) for i in range(2)]
    with pytest.raises(CycleLimitExceeded) as excinfo:
        run_jobs(jobs, engine=engine)
    return excinfo.value


def test_cycle_limit_parity():
    """A batch that never halts raises the reference engine's
    CycleLimitExceeded, at the same cycle and pc."""
    program = assemble("""
.text
main:
    j main
""")
    fastpath._clear_caches()
    vector._clear_caches()
    reference = _batch_overrun(program, "reference", 500)
    vectored = _batch_overrun(program, "vector", 500)
    assert vectored.cycles == reference.cycles == 500
    assert vectored.pc == reference.pc


def test_cycle_budget_below_schedule_parity():
    """A batch whose budget ends one cycle short of the recorded schedule
    is declined by the vector engine and overruns exactly like the
    reference engine."""
    program = compile_des(DesProgramSpec(rounds=1), masking="none").program
    reference = _batch_overrun(program, "reference", 18431,
                               des_pair=DES_PAIRS[0])
    vectored = _batch_overrun(program, "vector", 18431,
                              des_pair=DES_PAIRS[0])
    assert vectored.cycles == reference.cycles == 18431
    assert vectored.pc == reference.pc


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


@pytest.mark.parametrize("via", ["explicit", "env"])
def test_single_trace_vector_run_replays_on_fast(monkeypatch, via):
    """Vector is batch-only: a single trace requested on it runs on fast
    from the first attempt, compiles no plan, and is not a fallback."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program
    vector._clear_caches()
    if via == "env":
        monkeypatch.setenv("REPRO_ENGINE", "vector")
    with obs.scope(force=True) as context:
        run = des_run(program, KEY, PLAINTEXT,
                      engine="vector" if via == "explicit" else None)
        assert _fallbacks(context) == 0
    assert run.engine == "fast"
    assert _digest(run) == GOLDEN_DIGESTS["selective"]
    assert not vector._PLANS


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
    assert set(engines.ENGINES) == {"fast", "reference", "vector"}


def test_registry_specs():
    assert engines.get("vector").fallback == "fast"
    assert engines.get("fast").fallback == "reference"
    assert engines.get("reference").fallback is None
    assert engines.get("vector").batch is not None
    assert engines.get("fast").batch is None
    assert engines.get("vector").factory is None
    assert engines.single_trace_engine("vector") == "fast"
    assert engines.single_trace_engine("fast") == "fast"
    assert engines.single_trace_engine("reference") == "reference"
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
    come back correct, the vector job replayed on fast."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    jobs = [SimJob(program=program, des_pair=(KEY, PLAINTEXT),
                   label="a", engine="vector"),
            SimJob(program=program, des_pair=(KEY, PLAINTEXT),
                   label="b", engine="reference")]
    results = run_jobs(jobs)
    assert results[0].engine == "fast"
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


def test_plan_compiled_once(monkeypatch):
    """Repeated vector batches of the same program reuse the compiled
    plan."""
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
    for flip in (0, 1, 2):
        results = run_jobs([SimJob(program=program,
                                   des_pair=(KEY, PLAINTEXT ^ flip ^ i))
                            for i in range(2)], engine="vector")
        assert [r.engine for r in results] == ["vector"] * 2
    assert len(calls) == 1


def test_observed_vector_batch_replays_on_fast(monkeypatch):
    """Traced jobs need per-job scopes, so an observed vector batch runs
    per job: each job replays on fast and no plan is compiled."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    vector._clear_caches()
    calls = []
    monkeypatch.setattr(vector, "_compile_plan",
                        lambda *args: calls.append(1))
    results = run_jobs([SimJob(program=program, des_pair=pair, observe=True,
                               label=f"job[{i}]")
                        for i, pair in enumerate(DES_PAIRS)],
                       engine="vector")
    assert [r.engine for r in results] == ["fast"] * 2
    assert all(r.spans for r in results)
    assert not calls
    assert not vector._PLANS
