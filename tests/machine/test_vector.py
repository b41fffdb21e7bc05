"""Batch replay: ``run_jobs`` batches on the schedule engine against the
reference engine.

These tests once pinned the batch-only ``vector`` engine, which served a
homogeneous batch in one NumPy pass.  That engine is gone: every batch
now runs job by job through ``run_jobs`` -> ``execute_batch`` on the
``fast`` schedule replay, falling back to ``reference`` per job.  The
tests keep their ids and drive that path instead, with the contract
unchanged: over the full set of experiment programs, a batch of at least
two jobs must reproduce the reference batch *bit for bit* — per-cycle
energies, component matrices, totals/counts and markers — and divergent
inputs, cycle budgets, streaming and the removed engine name must behave
exactly as on a single run.
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
from repro.machine import engines, fastpath
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


def _fallbacks(context) -> float:
    return context.registry.counter("engine_fallbacks").total()


def _batch_differential(program, inputs=None, expect="fast", **job_kwargs):
    """Run one batch on the reference and the fast engine; every fast job
    must report the engine ``expect`` and match the reference job for
    job.

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
    replayed = run_jobs(batch(), engine="fast")
    assert len(replayed) >= 2
    for ref_result, result in zip(reference, replayed, strict=True):
        assert ref_result.engine == "reference"
        assert result.engine == expect
        assert ref_result.label == result.label
        assert ref_result.cycles == result.cycles
        assert ref_result.energy.tobytes() == result.energy.tobytes()
        assert ref_result.markers == result.markers
        assert ref_result.totals == result.totals
        assert ref_result.counts == result.counts
        assert np.array_equal(np.asarray(ref_result.components),
                              np.asarray(result.components))
    return reference, replayed


# -- golden digests -----------------------------------------------------

@pytest.mark.parametrize("masking", ["none", "selective"])
def test_round1_vector_hits_golden_digest(masking):
    program = compile_des(DesProgramSpec(rounds=1), masking=masking).program
    _reference, replayed = _batch_differential(program)
    assert replayed[0].cycles == 18432
    assert hashlib.sha256(replayed[0].energy.tobytes()).hexdigest() \
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
    """Same noise seed -> each replayed job draws the tracker's chunked
    noise stream draw-for-draw (the two jobs share the seed, so only
    their inputs tell them apart)."""
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
    """A 7-cycle score block carries each job's model state, running
    totals and noise across block edges bit-identically."""
    monkeypatch.setattr(fastpath, "SCORE_BLOCK", 7)
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program
    _batch_differential(program, noise_sigma=0.1, noise_seed=7)


def test_opcode_mix_identical():
    """Observed replayed jobs publish the reference engine's dynamic
    instruction mix in their per-job metrics."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program

    def observed(engine):
        return run_jobs([SimJob(program=program, des_pair=pair, observe=True,
                                label=f"job[{i}]")
                         for i, pair in enumerate(DES_PAIRS)], engine=engine)

    for ref_result, result in zip(observed("reference"), observed("fast"),
                                  strict=True):
        assert result.engine == "fast"
        mix = ref_result.metrics["instructions_executed"]
        assert mix["series"]
        assert result.metrics["instructions_executed"] == mix


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
    """A batch whose inputs flip a recorded branch: the first job is
    declined by fast and the program marked divergent, so the second goes
    straight to reference.  Each job counts one fallback and matches the
    reference batch."""
    program = assemble(DIVERGENT_SOURCE)
    fastpath._clear_caches()
    with obs.scope(force=True) as context:
        reference, replayed = _batch_differential(
            program, inputs=[{"inval": [1]}, {"inval": [2]}],
            expect="fast-fallback")
        assert _fallbacks(context) == 2
    assert (fastpath.program_digest(program), True) in fastpath._DIVERGENT


def test_matching_input_replays_before_any_divergence():
    """Until an input flips a recorded branch, a batch of the divergent
    program replays on fast and matches the reference."""
    program = assemble(DIVERGENT_SOURCE)
    fastpath._clear_caches()
    _batch_differential(program, inputs=[{"inval": [0]}, {"inval": [0]}])


def test_divergent_batch_falls_back_per_job():
    """In a batch, jobs before the first divergent input replay on fast;
    the divergent job and every later one (the program is then marked
    divergent) re-run on the reference engine, all bit-identical."""
    program = assemble(DIVERGENT_SOURCE)
    fastpath._clear_caches()
    values = (0, 0, 1, 0)
    jobs = [SimJob(program=program, inputs={"inval": [v]}, label=f"j{i}")
            for i, v in enumerate(values)]
    results = run_jobs(jobs, engine="fast")
    assert [r.engine for r in results] == \
        ["fast", "fast", "fast-fallback", "fast-fallback"]
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
    reference = _batch_overrun(program, "reference", 500)
    replayed = _batch_overrun(program, "fast", 500)
    assert replayed.cycles == reference.cycles == 500
    assert replayed.pc == reference.pc


def test_cycle_budget_below_schedule_parity():
    """A batch whose budget ends one cycle short of the recorded schedule
    is declined by the fast engine and overruns exactly like the
    reference engine."""
    program = compile_des(DesProgramSpec(rounds=1), masking="none").program
    reference = _batch_overrun(program, "reference", 18431,
                               des_pair=DES_PAIRS[0])
    replayed = _batch_overrun(program, "fast", 18431,
                              des_pair=DES_PAIRS[0])
    assert replayed.cycles == reference.cycles == 18431
    assert replayed.pc == reference.pc


@pytest.mark.parametrize("via", ["explicit", "env"])
def test_single_trace_vector_run_replays_on_fast(monkeypatch, via):
    """A single trace on the schedule engine, named by argument or by
    ``$REPRO_ENGINE``, replays from the first attempt: no fallback."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program
    monkeypatch.setenv("REPRO_ENGINE",
                       "fast" if via == "env" else "reference")
    with obs.scope(force=True) as context:
        run = des_run(program, KEY, PLAINTEXT,
                      engine="fast" if via == "explicit" else None)
        assert _fallbacks(context) == 0
    assert run.engine == "fast"
    assert _digest(run) == GOLDEN_DIGESTS["selective"]


# -- engine registry and resolution -------------------------------------

def test_registry_resolution(monkeypatch):
    """``vector`` is no longer an engine name, by argument or by env."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert engines.resolve(None) == "fast"
    with pytest.raises(ValueError):
        engines.resolve("vector")
    monkeypatch.setenv("REPRO_ENGINE", "vector")
    with pytest.raises(ValueError):
        engines.resolve(None)
    assert engines.resolve("reference") == "reference"
    assert engines.ENGINES == ("fast", "reference")


def test_registry_specs(monkeypatch):
    """Every name in ``ENGINES`` resolves to itself; nothing else does."""
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    for name in engines.ENGINES:
        assert engines.resolve(name) == name
    for name in ("vector", "warp"):
        with pytest.raises(ValueError):
            engines.resolve(name)


# -- the per-job batch path ---------------------------------------------

def test_run_jobs_batch_native_bit_identical():
    """A homogeneous four-job batch replays every job on fast and matches
    the reference batch result for result."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    _batch_differential(program, inputs=[
        {"key": key_words(KEY), "plaintext": plaintext_words(PLAINTEXT ^ i)}
        for i in range(4)])


def test_run_jobs_batch_native_noise_and_components():
    """Per-job noise seeds and component matrices survive the batch path."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    batch = lambda: [SimJob(program=program, des_pair=(KEY, PLAINTEXT ^ i),
                            noise_sigma=0.2, noise_seed=i + 1,
                            collect_components=True, label=f"job[{i}]")
                     for i in range(3)]
    reference = run_jobs(batch(), engine="reference")
    replayed = run_jobs(batch(), engine="fast")
    for ref_result, result in zip(reference, replayed, strict=True):
        assert result.engine == "fast"
        assert np.array_equal(ref_result.energy, result.energy)
        assert ref_result.totals == result.totals
        assert np.array_equal(np.asarray(ref_result.components),
                              np.asarray(result.components))


def test_run_jobs_mixed_engines_fall_back_to_per_job():
    """Each job of a batch runs on its own engine; a fast and a reference
    job of the same input agree."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    jobs = [SimJob(program=program, des_pair=(KEY, PLAINTEXT),
                   label="a", engine="fast"),
            SimJob(program=program, des_pair=(KEY, PLAINTEXT),
                   label="b", engine="reference")]
    results = run_jobs(jobs)
    assert results[0].engine == "fast"
    assert results[1].engine == "reference"
    assert np.array_equal(results[0].energy, results[1].energy)


def test_collect_traces_vector_bit_identical():
    """DPA collection on the schedule engine matches the reference
    engine trace matrix exactly."""
    from repro.attacks.dpa import collect_traces, random_plaintexts

    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    plaintexts = random_plaintexts(6)
    reference = collect_traces(program, KEY, plaintexts,
                               engine="reference")
    replayed = collect_traces(program, KEY, plaintexts, engine="fast")
    assert np.array_equal(reference.traces, replayed.traces)


def test_plan_compiled_once(monkeypatch, fresh_schedule_cache):
    """Repeated batches of the same program record its schedule once."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    calls = []
    recorded = fastpath.record_schedule

    def counting(prog, **kwargs):
        calls.append(1)
        return recorded(prog, **kwargs)

    monkeypatch.setattr(fastpath, "record_schedule", counting)
    for flip in (0, 1, 2):
        results = run_jobs([SimJob(program=program,
                                   des_pair=(KEY, PLAINTEXT ^ flip ^ i))
                            for i in range(2)], engine="fast")
        assert [r.engine for r in results] == ["fast"] * 2
    assert len(calls) == 1


def test_observed_vector_batch_replays_on_fast():
    """Traced jobs need per-job scopes; an observed batch still replays
    each job on fast and returns its span tree."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    results = run_jobs([SimJob(program=program, des_pair=pair, observe=True,
                               label=f"job[{i}]")
                        for i, pair in enumerate(DES_PAIRS)],
                       engine="fast")
    assert [r.engine for r in results] == ["fast"] * 2
    assert all(r.spans for r in results)
