"""Schedule-replay fast path: bit-identity against the reference engine.

The fast engine's contract is absolute: for every program whose control
path is data-independent, replaying the recorded cycle schedule must
reproduce the reference pipeline's output *bit for bit* — per-cycle
energies (same floats, same order of accumulation), component matrices,
totals/counts, final architectural state, markers, and performance
counters.  Attribution always runs on the reference engine; its cells
are pinned by digest.  These tests enforce that contract over the full
set of experiment programs (DES in every masking variant and policy,
AES, operand isolation on and off, with and without noise) plus the
divergence / budget / caching edge cases.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro import obs
from repro.aes.reference import int_to_state
from repro.energy.params import DEFAULT_PARAMS
from repro.harness.engine import SimJob, run_jobs
from repro.harness.runner import des_run, run_with_trace
from repro.isa.assembler import assemble
from repro.machine import engines, fastpath
from repro.machine.exceptions import CycleLimitExceeded
from repro.machine.pipeline import Pipeline
from repro.masking.policy import MaskingPolicy, apply_policy
from repro.programs.des_source import DesProgramSpec
from repro.programs.workloads import compile_des, key_words, plaintext_words

KEY = 0x133457799BBCDFF1
PLAINTEXT = 0x0123456789ABCDEF
AES_KEY = 0x000102030405060708090A0B0C0D0E0F
AES_PLAINTEXT = 0x00112233445566778899AABBCCDDEEFF

#: sha256 of ``run.trace.energy.tobytes()`` for the round-1 DES workload
#: on the seed (reference) simulator.  The fast path must hit these
#: exactly — same digests the attribution layer is pinned to.
GOLDEN_DIGESTS = {
    "none":
        "a63e8b8e0cd6cd22c0cbbc20008443d4ca47533378988a03106778e3b071d8b4",
    "selective":
        "5d1a41d858d421defc6f4dc3650af5951f026157ea5baca802c971d1c83ce954",
}


#: sha256 of :func:`_schedule_digest` for recorded schedules: any change
#: to what the recorder emits — slots, record order, counters, mix,
#: counts — shows.  The steps are hashed as a list, so the values
#: survive ``SCHEDULE_VERSION`` 3's step array.  These schedules equal
#: the version-1 ones (pinned from a recorder that stepped the reference
#: pipeline every cycle) projected onto the fields a replay reads and
#: re-interned.  ``des16-selective`` leaves its loops through outcomes
#: new at already-seen control states; ``call`` and the ``divergent``
#: programs cover jal/jr/jalr targets, byte loads and stores, a phase
#: marker, a counted loop and a branch each way.
GOLDEN_SCHEDULES = {
    ("des-none", True):
        "f3e14b4dff3f9fb17a71c72119d49630a58819b5037668cbc0341a36eec9ddf0",
    ("des-none", False):
        "a466bd914dc1c02a007385b82d76520700101a0648693692be05374a64dfa941",
    ("des-selective", True):
        "1828fbba7e81cadf88e7eb545925ff54e0af639d3318f23b3b8a0c15b392dd43",
    ("des-selective", False):
        "ad1c13ed891a8235780b42c5c0c3a2407154e41b3b36f5fe387e248721af899f",
    ("aes-selective", True):
        "ec35aceb8af5b146ef3586ba8c9a7141d99a1d3d564588f607b92a1b67def5a5",
    ("des16-selective", True):
        "22407074a86a3b799135725b2376dae90eca6b9fb9a73198fdabbf5450c57707",
    ("des16-selective", False):
        "d17dfc7695a82ecd76679d4c764d3db9f6b9e39597a4d195d7265b5b13c6d4d4",
    ("call", True):
        "70ce8857061ac11cc4336813e71773f35ecc8566bfebf36abe404832b7c7954d",
    ("call", False):
        "8e64c519b776e2d222fab90b48804db867bd8039425bad6638ee53c586d7e49d",
    ("divergent-0", True):
        "3066604cf1c227a913c1cc0586690d932120f6b18f9b6593b7e3488daf48a712",
    ("divergent-1", True):
        "45052f9fbaebafe14765fe2d5d1a6202b01677d63587121b5557ec3c62be9c69",
}

#: A call-heavy program: ``jal`` + ``jr $ra`` back to two call sites (one
#: in a loop), ``jalr``, ``lb``/``lbu``/``sb``, a store to the phase
#: marker address and a counted ``bne`` loop.
CALL_SOURCE = """
.data
buf: .word 0x80402010, 0
.text
main:
    la $s0, buf
    li $s1, 4
    li $t9, 0xFF00
    la $s2, leaf2
    jal leaf
loop:
    jal leaf
    lb $t1, 3($s0)
    lbu $t2, 3($s0)
    sb $t1, 4($s0)
    jalr $s2
    sw $t4, 0($t9)
    addi $s1, $s1, -1
    bne $s1, $zero, loop
    halt
leaf:
    addi $t3, $t3, 1
    jr $ra
leaf2:
    xor $t4, $t4, $t3
    jr $ra
"""


def _digest(run):
    return hashlib.sha256(run.trace.energy.tobytes()).hexdigest()


def _schedule_digest(schedule):
    """sha256 of a canonical ``repr`` of everything a schedule carries."""
    canonical = repr((schedule.cycles, schedule.final_pc,
                      list(schedule.steps),
                      schedule.records, sorted(schedule.stats.items()),
                      sorted(schedule.mix.items()),
                      sorted(schedule.counts.items())))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _des_inputs(program):
    inputs = {"key": key_words(KEY)}
    if "plaintext" in program.symbols:
        inputs["plaintext"] = plaintext_words(PLAINTEXT)
    return inputs


def _assert_identical(reference, fast):
    """Every observable of the two runs must match exactly."""
    assert _digest(reference) == _digest(fast)
    assert reference.cycles == fast.cycles
    assert reference.cpu.pipeline.regs.dump() == \
        fast.cpu.pipeline.regs.dump()
    assert reference.cpu.memory._words == fast.cpu.memory._words
    assert reference.cpu.pipeline.markers == fast.cpu.pipeline.markers
    assert reference.cpu.pipeline.stats == fast.cpu.pipeline.stats
    assert reference.tracker.totals == fast.tracker.totals
    assert reference.tracker.counts == fast.tracker.counts
    assert len(reference.tracker.component_energy) == \
        len(fast.tracker.component_energy)
    if len(reference.tracker.component_energy):
        assert np.array_equal(
            np.asarray(reference.tracker.component_energy),
            np.asarray(fast.tracker.component_energy))
    else:
        assert fast.trace.components is None


def _differential(program, operand_isolation=True, inputs=None,
                  **run_kwargs):
    """Reference vs fast, with the per-component matrix collected and
    without it (the configuration every workload runs)."""
    if inputs is None:
        inputs = _des_inputs(program)
    for components in (True, False):
        reference = run_with_trace(program, inputs=inputs,
                                   engine="reference",
                                   operand_isolation=operand_isolation,
                                   collect_components=components,
                                   **run_kwargs)
        fast = run_with_trace(program, inputs=inputs, engine="fast",
                              operand_isolation=operand_isolation,
                              collect_components=components, **run_kwargs)
        assert fast.engine == "fast"
        assert reference.engine == "reference"
        _assert_identical(reference, fast)


# -- golden digests -----------------------------------------------------

@pytest.mark.parametrize("masking", ["none", "selective"])
def test_round1_fast_hits_golden_digest(masking):
    program = compile_des(DesProgramSpec(rounds=1), masking=masking).program
    run = des_run(program, KEY, PLAINTEXT, engine="fast")
    assert run.engine == "fast"
    assert run.cycles == 18432
    assert _digest(run) == GOLDEN_DIGESTS[masking]


@pytest.mark.parametrize("workload, operand_isolation",
                         sorted(GOLDEN_SCHEDULES))
def test_recorded_schedule_hits_golden_digest(workload, operand_isolation):
    """The recorder's output is pinned, not just the traces replayed
    from it: walking control states must leave every schedule
    byte-identical."""
    from repro.programs.workloads import compile_aes

    name, variant = workload.split("-") if "-" in workload \
        else (workload, None)
    if name == "call":
        program = assemble(CALL_SOURCE)
    elif name == "divergent":
        program = assemble(DIVERGENT_SOURCE.replace(
            "inval: .word 0", f"inval: .word {variant}"))
    elif name == "aes":
        program = compile_aes(masking=variant).program
    else:
        rounds = 16 if name == "des16" else 1
        program = compile_des(DesProgramSpec(rounds=rounds),
                              masking=variant).program
    schedule = fastpath.record_schedule(
        program, operand_isolation=operand_isolation)
    assert _schedule_digest(schedule) == \
        GOLDEN_SCHEDULES[workload, operand_isolation]


def test_schedule_steps_are_one_array_the_bound_schedule_views():
    """4 bytes a cycle, held once: the recorder's step ``array`` is what
    the schedule keeps and pickles, and the scorer's ``uint32`` steps
    are a zero-copy view of it, on binding and after a pickle round
    trip."""
    import pickle
    from array import array

    program = compile_des(DesProgramSpec(rounds=1), masking="none").program
    schedule = fastpath.record_schedule(program)
    assert isinstance(schedule.steps, array)
    assert schedule.steps.itemsize == 4
    assert len(schedule.steps) == schedule.cycles
    for bound in (fastpath._BoundSchedule(schedule),
                  pickle.loads(pickle.dumps(fastpath._BoundSchedule(
                      schedule)))):
        steps = bound.schedule.steps
        assert bound.steps.dtype == np.uint32
        assert not bound.steps.flags.owndata
        assert bound.steps.ctypes.data == steps.buffer_info()[0]
        assert bound.steps.tolist() == steps.tolist()


# -- differential bit-identity over the experiment programs -------------

@pytest.mark.parametrize("masking", ["none", "selective"])
def test_full_des_bit_identical(masking):
    """fig6/fig7-11 workload: the complete 16-round cipher."""
    program = compile_des(DesProgramSpec(rounds=16), masking=masking).program
    _differential(program)


@pytest.mark.parametrize("masking", ["none", "selective", "annotate-only"])
def test_round1_bit_identical(masking):
    program = compile_des(DesProgramSpec(rounds=1), masking=masking).program
    _differential(program)


def test_keyschedule_only_bit_identical():
    """fig12 workload: rounds=0, the masked key permutation."""
    spec = DesProgramSpec(rounds=0, include_keyschedule=True)
    program = compile_des(spec, masking="selective").program
    _differential(program)


@pytest.mark.parametrize("policy", [MaskingPolicy.ALL_LOADS_STORES,
                                    MaskingPolicy.ALL])
def test_whole_program_policies_bit_identical(policy):
    """tab1 workloads: assembly-level rewrites of the unmasked program."""
    base = compile_des(DesProgramSpec(rounds=2), masking="none").program
    _differential(apply_policy(base, policy))


def test_no_operand_isolation_bit_identical():
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program
    _differential(program, operand_isolation=False)


@pytest.mark.parametrize("masking", ["none", "selective"])
def test_aes_bit_identical(masking):
    """Extension workload: AES-128 under both maskings."""
    from repro.programs.workloads import compile_aes

    program = compile_aes(masking=masking).program
    _differential(program, inputs={"key": int_to_state(AES_KEY),
                                   "plaintext": int_to_state(AES_PLAINTEXT)})


def test_noise_bit_identical():
    """Same noise seed -> same post-pass draws -> identical noisy trace."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program
    _differential(program, noise_sigma=0.1, noise_seed=7)


def test_coupled_bus_bit_identical():
    """The scorer's coupled-bus math (adjacent-line and interleaved
    dual-rail coupling events) matches the scalar CoupledBusModel."""
    params = dataclasses.replace(DEFAULT_PARAMS, c_coupling=0.12)
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program
    _differential(program, params=params)


@pytest.mark.parametrize("block", [1, 7])
def test_score_blocks_carry_state(monkeypatch, block):
    """Tiny score blocks put secure commits, unit runs, memory cycles
    and the 4096-draw noise chunk edge across block edges: the carried
    model state, running totals and noise stream stay bit-identical."""
    monkeypatch.setattr(fastpath, "SCORE_BLOCK", block)
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program
    _differential(program, noise_sigma=0.1, noise_seed=7)


#: sha256 of the round-1 selective DES attribution snapshot's ``cells``
#: and ``pc_info`` (canonical JSON), pinned from the fast engine's
#: hook-driving replay before attribution moved to the reference engine.
ATTRIBUTION_DIGEST = \
    "037a2df66c2f898d7a18aa81e05dc7c9ebd40b545668cffc3d0e499903d7b42c"


@pytest.mark.parametrize("via", ["explicit", "env"])
@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_attribution_always_uses_reference_engine(monkeypatch, engine, via):
    """Attribution needs the per-cycle tracker hooks, so the runner pins
    it to the reference engine whichever engine was requested."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program
    if via == "env":
        monkeypatch.setenv("REPRO_ENGINE", engine)
    was_enabled = obs.enabled()
    with obs.scope():
        obs.enable_attribution()
        try:
            run = des_run(program, KEY, PLAINTEXT,
                          engine=engine if via == "explicit" else None)
        finally:
            obs.disable_attribution()
            if not was_enabled:
                obs.disable()
    assert run.engine == "reference"
    snapshot = run.attribution.snapshot()
    text = json.dumps({"cells": snapshot["cells"],
                       "pc_info": snapshot["pc_info"]}, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ATTRIBUTION_DIGEST


@pytest.mark.parametrize("hooks", ["none", "attribution"])
def test_replay_declines_runs_that_need_tracker_hooks(hooks):
    """Direct ``ReplayCPU`` users fall back instead of losing hooks."""
    from repro.energy.tracker import EnergyTracker

    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    bound = fastpath.bound_schedule_for(program)
    tracker = None if hooks == "none" \
        else EnergyTracker(attribution=obs.AttributionSink())
    cpu = fastpath.ReplayCPU(program, bound, tracker=tracker)
    with pytest.raises(fastpath.ScheduleUnavailable):
        cpu.run()


def test_opcode_mix_identical():
    """The replay installs the recorded dynamic instruction mix."""
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

    reference, fast = observed("reference"), observed("fast")
    assert fast.engine == "fast"
    assert reference.cpu.pipeline.opcode_mix
    assert reference.cpu.pipeline.opcode_mix == fast.cpu.pipeline.opcode_mix


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
    """An input that flips a recorded branch must transparently re-run on
    the reference engine with completely fresh state."""
    program = assemble(DIVERGENT_SOURCE)
    fastpath._clear_caches()
    reference = run_with_trace(program, inputs={"inval": [1]},
                               engine="reference", collect_components=True)
    fast = run_with_trace(program, inputs={"inval": [1]}, engine="fast",
                          collect_components=True)
    assert fast.engine == "fast-fallback"
    _assert_identical(reference, fast)


def test_divergent_program_goes_straight_to_reference_afterwards():
    program = assemble(DIVERGENT_SOURCE)
    fastpath._clear_caches()
    run_with_trace(program, inputs={"inval": [1]}, engine="fast")
    key = (fastpath.program_digest(program), True)
    assert key in fastpath._DIVERGENT
    # Even a run whose input matches the recorded path no longer replays:
    # the program has proven input-dependent, so replaying is unsound.
    again = run_with_trace(program, inputs={"inval": [0]}, engine="fast")
    assert again.engine == "fast-fallback"


def test_matching_input_replays_before_any_divergence():
    program = assemble(DIVERGENT_SOURCE)
    fastpath._clear_caches()
    reference = run_with_trace(program, inputs={"inval": [0]},
                               engine="reference")
    fast = run_with_trace(program, inputs={"inval": [0]}, engine="fast")
    assert fast.engine == "fast"
    _assert_identical(reference, fast)


def test_cycle_limit_parity():
    """Budgets smaller than the schedule behave exactly like the
    reference engine: CycleLimitExceeded at the same cycle and pc."""
    program = assemble("""
.text
main:
    j main
""")
    fastpath._clear_caches()
    with pytest.raises(CycleLimitExceeded) as reference:
        run_with_trace(program, engine="reference", max_cycles=500)
    with pytest.raises(CycleLimitExceeded) as fast:
        run_with_trace(program, engine="fast", max_cycles=500)
    assert fast.value.cycles == reference.value.cycles == 500
    assert fast.value.pc == reference.value.pc


def test_recording_budget_message_pins_the_pc():
    """An endless loop exhausts the recording budget with the same
    message the per-cycle recorder gave, naming the fetch pc."""
    program = assemble("""
.text
main:
    j main
""")
    with pytest.raises(fastpath.ScheduleUnavailable) as error:
        fastpath.record_schedule(program, max_cycles=500)
    assert str(error.value) == \
        "recording exceeded max_cycles=500 (pc=0x00000008)"


# -- engine resolution and plumbing -------------------------------------

def test_resolve_engine(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert engines.resolve(None) == "fast"
    assert engines.resolve("reference") == "reference"
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert engines.resolve(None) == "reference"
    assert engines.resolve("fast") == "fast"
    monkeypatch.setenv("REPRO_ENGINE", "warp")
    with pytest.raises(ValueError):
        engines.resolve(None)
    with pytest.raises(ValueError):
        engines.resolve("warp")


def test_schedule_recorded_once(monkeypatch, fresh_schedule_cache):
    """Repeated fast runs reuse the bound schedule (memo + disk cache)."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    calls = []
    recorded = fastpath.record_schedule

    def counting(prog, **kwargs):
        calls.append(1)
        return recorded(prog, **kwargs)

    monkeypatch.setattr(fastpath, "record_schedule", counting)
    des_run(program, KEY, PLAINTEXT, engine="fast")
    des_run(program, KEY, PLAINTEXT ^ 1, engine="fast")
    des_run(program, KEY ^ (1 << 60), PLAINTEXT, engine="fast")
    assert len(calls) == 1
    assert list(fresh_schedule_cache.glob("sched-*.pkl"))


def test_attribution_batch_records_no_schedule(monkeypatch,
                                               fresh_schedule_cache):
    """A pooled batch of attribution jobs runs on the reference engine,
    so nothing pre-warms (or records) a schedule for it."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    calls = []
    recorded = fastpath.record_schedule

    def counting(prog, **kwargs):
        calls.append(1)
        return recorded(prog, **kwargs)

    monkeypatch.setattr(fastpath, "record_schedule", counting)
    results = run_jobs([SimJob(program=program, des_pair=(KEY, PLAINTEXT ^ i),
                               attribute=True, label=f"job[{i}]")
                        for i in range(2)], jobs=2, engine="fast")
    assert [result.engine for result in results] == ["reference"] * 2
    assert calls == []
    assert not list(fresh_schedule_cache.glob("sched-*.pkl"))


#: Reference-pipeline steps behind one DES schedule recording: one per
#: control transition, the same at every round count and masking, while
#: the recorded cycles grow with the rounds.
RECORD_STEPS = 847
DES_CYCLES = {1: 18_432, 4: 52_313, 16: 187_845}


def _count_steps(monkeypatch) -> list:
    """Wrap ``Pipeline.step``; the returned list grows one per call."""
    steps = []
    step = Pipeline.step

    def counting(self):
        steps.append(1)
        return step(self)

    monkeypatch.setattr(Pipeline, "step", counting)
    return steps


@pytest.mark.parametrize("masking", ["none", "selective"])
@pytest.mark.parametrize("rounds", sorted(DES_CYCLES))
def test_record_schedule_step_count(monkeypatch, rounds, masking):
    """Recording steps the reference pipeline once per new control
    transition, never once per cycle: an exact work count."""
    program = compile_des(DesProgramSpec(rounds=rounds),
                          masking=masking).program
    steps = _count_steps(monkeypatch)
    schedule = fastpath.record_schedule(program)
    assert len(steps) == RECORD_STEPS
    assert schedule.cycles == DES_CYCLES[rounds]


def test_warm_fast_batch_takes_no_reference_step(monkeypatch):
    """Once the schedule is recorded, a fast batch replays every trace
    without a single reference-pipeline step."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program
    assert fastpath.ensure_schedule(program)
    steps = _count_steps(monkeypatch)
    results = run_jobs([SimJob(program=program, des_pair=(KEY, PLAINTEXT ^ i),
                               label=f"job[{i}]") for i in range(16)],
                       engine="fast")
    assert [result.engine for result in results] == ["fast"] * 16
    assert len(steps) == 0


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_second_trace_of_a_program_encodes_nothing(monkeypatch, engine):
    """Instruction words are encoded once per program instance, not once
    per pipeline: an exact work count."""
    from repro.machine import pipeline as pipeline_module

    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program
    program = dataclasses.replace(program)  # a fresh, uncached instance
    real_encode = pipeline_module.encode
    calls = []

    def counting_encode(ins):
        calls.append(ins)
        return real_encode(ins)

    monkeypatch.setattr(pipeline_module, "encode", counting_encode)
    inputs = {"key": key_words(KEY), "plaintext": plaintext_words(PLAINTEXT)}
    first = run_with_trace(program, inputs=inputs, engine=engine)
    assert len(calls) == len(program.text)
    calls.clear()
    second = run_with_trace(program, inputs=inputs, engine=engine)
    assert calls == []
    assert np.array_equal(first.trace.energy, second.trace.energy)


def test_run_jobs_engine_plumb():
    """Batch jobs honor the engine and record it in the result."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    batch = lambda: [SimJob(program=program, des_pair=(KEY, PLAINTEXT ^ i),
                            label=f"job[{i}]") for i in range(2)]
    reference = run_jobs(batch(), engine="reference")
    fast = run_jobs(batch(), engine="fast")
    for ref_result, fast_result in zip(reference, fast):
        assert ref_result.engine == "reference"
        assert fast_result.engine == "fast"
        assert np.array_equal(ref_result.energy, fast_result.energy)
        assert ref_result.markers == fast_result.markers
        assert ref_result.totals == fast_result.totals


def test_collect_traces_engine_parallel():
    """DPA collection is bit-identical across engine and worker count."""
    from repro.attacks.dpa import collect_traces, random_plaintexts

    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    plaintexts = random_plaintexts(4)
    reference = collect_traces(program, KEY, plaintexts,
                               engine="reference")
    fast_parallel = collect_traces(program, KEY, plaintexts,
                                   engine="fast", jobs=2)
    assert np.array_equal(reference.traces, fast_parallel.traces)


def test_final_state_is_input_dependent():
    """Replay applies *this run's* data flow, not the recorded run's:
    different plaintexts must produce different ciphertext memory."""
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="none").program
    first = des_run(program, KEY, PLAINTEXT, engine="fast")
    second = des_run(program, KEY, PLAINTEXT ^ 0xFF, engine="fast")
    assert first.engine == second.engine == "fast"
    assert first.cpu.read_symbol_words("ciphertext", 64) != \
        second.cpu.read_symbol_words("ciphertext", 64)
    assert _digest(first) != _digest(second)
