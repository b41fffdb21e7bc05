"""Schedule-replay fast path: record the cycle schedule once, replay it.

The pipeline's timing is *data-independent by construction*: stalls,
squashes, forwarding selections, and regfile port gating depend only on
register **numbers** and opcodes, never on operand values (that is what
makes Figs. 7-11 cycle-aligned).  So for a given program the per-cycle
control schedule — which instruction occupies each stage, which forwarding
path feeds each EX operand, how many regfile ports fire, which latches run
dual-rail — is the same for every input.  Only *branch outcomes* are data
in principle; in the paper's straight-line crypto kernels they are loop
counters and therefore input-independent too.

This module exploits that:

* :func:`record_schedule` runs the program once (on its initial data
  image, no inputs) and records a compact :class:`CycleSchedule`: one
  interned control record per cycle holding the write-back register,
  ALU operation, forwarding selectors, decode read/gate lists, memory-op
  kind, pre-computed instruction-bus and IF/ID-latch transition counts
  (the instruction stream is static), and the secure-bit layout of the
  four pipeline latches, each built from a step of the reference
  :class:`~.pipeline.Pipeline`.
* :class:`ReplayPipeline` replays the schedule for each subsequent trace.
  Its per-cycle loop executes only the data path — operand evaluation
  through pre-resolved per-record handler tuples, memory traffic and the
  recorded control checks — and buffers the six latched values.  After
  each block of cycles the :class:`~.scoring.EnergyScorer` turns them
  into transition-sensitive energy in one NumPy pass, and the results
  are committed to the tracker once at the end
  (:meth:`~repro.energy.tracker.EnergyTracker.commit_fastpath`).  It
  never drives the per-cycle tracker hooks: a run with no tracker or
  with an attribution sink raises :class:`ScheduleUnavailable`, and the
  harness runner pins attribution runs to the reference engine, whose
  hooks are the ground truth for it.
* Every recorded branch/indirect-jump outcome is checked during replay;
  a mismatch raises :class:`ScheduleDivergence` and the harness runner
  transparently re-runs the trace on the reference engine, so correctness
  never depends on the data-independence heuristic.

The contract is **bit identity** with the reference engine: the replay
performs the exact same floating-point accumulations in the exact same
order (see :mod:`.scoring` and the differential suite in
``tests/machine/test_fastpath.py``).

Bound schedules live in the harness artifact store
(:class:`~repro.harness.engine.CompileCache`), keyed through
:func:`~repro.fingerprint.artifact_key` by a digest of the program
text/data, so a DPA batch pays schedule construction once across a
process pool.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Optional

import numpy as np

from ..energy.tracker import COMPONENTS
from ..fingerprint import artifact_key
from ..isa.instructions import AluOp, Format, Instruction
from ..isa.program import Program
from .cpu import CPU
from .exceptions import SimulationError
from .memory import Memory
from .pipeline import MARKER_ADDR, Pipeline
from .scoring import (MEM_LOAD, MEM_STORE, SCORE_BLOCK, STREAMS, UNIT_ALU,
                      UNIT_NONE, UNIT_SHIFT, UNIT_XOR, EnergyScorer,
                      running_total)

_WORD_MASK = 0xFFFF_FFFF
#: ``array`` typecode of an unsigned 32-bit word.
_U32 = "I" if array("I").itemsize == 4 else "L"

#: Bump when the record layout or replay semantics change; part of the
#: on-disk cache key, so stale schedules can only miss, never replay wrong.
SCHEDULE_VERSION = 3

#: Cycle budget for the one-time recording run when the caller does not
#: bound it tighter.
_RECORD_MAX_CYCLES = 50_000_000


class ScheduleFallback(SimulationError):
    """Base: the fast engine cannot (or can no longer) serve this run."""


class ScheduleUnavailable(ScheduleFallback):
    """No usable schedule (recording failed, over budget, or divergent)."""


class ScheduleDivergence(ScheduleFallback):
    """A replayed control decision disagreed with the recorded schedule.

    Raised *before* the diverging cycle commits any state, so the caller
    can re-run the trace from scratch on the reference engine.
    """

    def __init__(self, cycle: int):
        super().__init__(f"recorded control path diverged at cycle {cycle}; "
                         "falling back to the reference engine")
        self.cycle = cycle


# ---------------------------------------------------------------------------
# Program digest + schedule store keys
# ---------------------------------------------------------------------------


def program_digest(program: Program) -> str:
    """Stable digest of everything the cycle schedule depends on.

    Covers the executed text (operands and secure bits included), the
    initial data image, and the memory layout; deliberately excludes
    debug-only fields (``source_line``/``sliced``) which cannot affect
    execution.  Cached on the program instance.
    """
    cached = getattr(program, "_fastpath_digest", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(f"{program.text_base}:{program.data_base}:"
                  f"{program.entry};".encode())
    for ins in program.text:
        digest.update(f"{ins.op}|{ins.rd}|{ins.rs}|{ins.rt}|{ins.imm}|"
                      f"{ins.shamt}|{ins.target}|{int(ins.secure)};"
                      .encode())
    digest.update(("d:" + ",".join(str(word) for word in program.data))
                  .encode())
    value = digest.hexdigest()[:32]
    try:
        program._fastpath_digest = value
    except AttributeError:  # pragma: no cover - exotic program subclass
        pass
    return value


def _schedule_cache_key(digest: str, operand_isolation: bool) -> str:
    return artifact_key("sched", SCHEDULE_VERSION, digest,
                        "iso" if operand_isolation else "noiso")


# ---------------------------------------------------------------------------
# Cycle schedule recording
# ---------------------------------------------------------------------------

class CycleSchedule:
    """The recorded control schedule of one program.

    ``records`` holds the unique per-cycle control tuples (interned — a
    16-round DES run is 187,845 cycles but only 847 distinct records);
    ``steps[i]`` indexes the record replayed at cycle ``i``, one
    unsigned 32-bit ``array`` the recorder appends to (4 bytes a cycle,
    0.75 MB for 16-round DES).
    ``stats``/``mix``/``counts`` are the end-of-run performance counters,
    opcode mix, and per-component event counts, all input-independent and
    therefore recordable once.
    """

    __slots__ = ("version", "operand_isolation", "cycles", "steps",
                 "records", "final_pc", "stats", "mix", "counts")

    def __init__(self, version: int, operand_isolation: bool, cycles: int,
                 steps: array, records: list[tuple], final_pc: int,
                 stats: dict, mix: dict, counts: dict):
        self.version = version
        self.operand_isolation = operand_isolation
        self.cycles = cycles
        self.steps = steps
        self.records = records
        self.final_pc = final_pc
        self.stats = stats
        self.mix = mix
        self.counts = counts

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name in self.__slots__:
            setattr(self, name, state[name])


_MEM_NONE, _MEM_LW, _MEM_LBU, _MEM_LB, _MEM_SW, _MEM_SB = range(6)
_SHIFT_OPS = (AluOp.SLL, AluOp.SRL, AluOp.SRA)


def _mem_kind(ins: Instruction) -> int:
    spec = ins.spec
    if spec.is_load:
        if spec.width == 4:
            return _MEM_LW
        return _MEM_LB if spec.signed_load else _MEM_LBU
    if spec.is_store:
        return _MEM_SW if spec.width == 4 else _MEM_SB
    return _MEM_NONE


def _unit_for(ins: Instruction) -> tuple[int, bool]:
    """Functional-unit index + effective secure flag, as the tracker's
    :meth:`~repro.energy.tracker.EnergyTracker.ex_stage` resolves them."""
    spec = ins.spec
    alu_op = spec.alu
    if alu_op is AluOp.NONE:
        return UNIT_NONE, False
    if spec.is_load or spec.is_store:
        return UNIT_ALU, ins.secure and spec.is_indexing
    if alu_op is AluOp.XOR:
        return UNIT_XOR, ins.secure
    if alu_op in _SHIFT_OPS:
        return UNIT_SHIFT, ins.secure
    return UNIT_ALU, ins.secure


def _decode_plan(ins: Instruction, ex_dest, mem_dest,
                 isolate: bool) -> tuple[int, int, int, int, int, int]:
    """Replicate ``Pipeline._decode``'s register reads and operand-isolation
    gating as ``(a_reg, a_const, b_reg, b_const, st_reg, reads)``.

    ``*_reg == -1`` means the operand is the paired constant; a gated read
    (its producer sits in EX or MEM, so forwarding will supply it) latches
    a constant zero without a port access — exactly the reference gating,
    which depends only on register numbers.
    """
    spec = ins.spec
    fmt = spec.fmt
    reads = 0
    a_reg = b_reg = st_reg = -1
    a_const = b_const = 0

    def plan(number: int) -> int:
        nonlocal reads
        if isolate and number and (number == ex_dest or number == mem_dest):
            return -1  # forwarded at EX; regfile port gated off, zero latched
        reads += 1
        return number

    if fmt == Format.R3:
        a_reg = plan(ins.rs)
        b_reg = plan(ins.rt)
    elif fmt == Format.SHIFT:
        a_reg = plan(ins.rt)
        b_const = ins.shamt
    elif fmt == Format.SHIFT_V:
        a_reg = plan(ins.rt)
        b_reg = plan(ins.rs)
    elif fmt == Format.ARITH_I:
        a_reg = plan(ins.rs)
        imm = ins.imm if ins.imm is not None else 0
        b_const = imm & 0xFFFF if spec.unsigned_imm else imm & _WORD_MASK
    elif fmt == Format.LOAD:
        a_reg = plan(ins.rs)
        b_const = (ins.imm or 0) & _WORD_MASK
    elif fmt == Format.STORE:
        a_reg = plan(ins.rs)
        b_const = (ins.imm or 0) & _WORD_MASK
        st_reg = plan(ins.rt)
    elif fmt == Format.BRANCH2:
        a_reg = plan(ins.rs)
        b_reg = plan(ins.rt)
    elif fmt == Format.BRANCH1:
        a_reg = plan(ins.rs)
    elif fmt in (Format.JR, Format.JALR):
        a_reg = plan(ins.rs)
    elif fmt == Format.LUI:
        b_const = ins.imm & 0xFFFF
    return a_reg, a_const, b_reg, b_const, st_reg, reads


def _forward_selector(src, fwd_mem_dest, fwd_wb_dest) -> int:
    """0 = latched value, 1 = EX/MEM forward, 2 = MEM/WB forward."""
    if src is not None and src != 0:
        if src == fwd_mem_dest:
            return 1
        if src == fwd_wb_dest:
            return 2
    return 0


#: Pipeline counters the recorder scales from per-transition deltas.
_COUNTERS = ("retired", "stall_cycles", "squashed_instructions",
             "branches_executed", "branches_taken", "loads_executed",
             "stores_executed", "secure_retired")


def record_schedule(program: Program, operand_isolation: bool = True,
                    max_cycles: int = _RECORD_MAX_CYCLES) -> CycleSchedule:
    """Record the reference pipeline's control schedule for ``program``.

    The recording run executes on the program's initial data image (no
    inputs written); if the program's control flow depends on inputs the
    replay detects it per-trace and falls back.  Raises
    :class:`ScheduleUnavailable` if the recording run itself cannot finish
    (cycle budget, simulation fault).

    The run walks *control states* — the fetch PC, the four latch PCs (a
    latch's PC fixes its instruction), ``_halt_in_flight``, the previous
    instruction-bus and IF/ID words.  A state and its EX outcome (branch
    taken flag, ``jr``/``jalr`` target, else ``None``) fix the cycle's
    record, next state and counter deltas: a *transition*.  A known one
    runs only the data path, the operand, memory and register statements
    of :meth:`ReplayPipeline._replay_fast`; a new state or outcome steps
    the unmodified reference :class:`Pipeline` once from the state's
    latches, so every record comes from a real step — 847 steps for the
    187,845 cycles of a 16-round DES.
    """
    pipe = Pipeline(program, Memory(), tracker=None,
                    operand_isolation=operand_isolation, collect_mix=True)
    text_base = program.text_base
    iwords = pipe._iwords
    text_len = len(program.text)

    records: list[tuple] = []
    index_of: dict[tuple, int] = {}

    def build(if_id, id_ex, ex_mem, mem_wb, pc_before: int,
              halt_in_flight: bool, stall: bool, taken: bool,
              prev_ibus: int) -> tuple[int, int, tuple]:
        """Intern the just-stepped cycle's record, resolved exactly as the
        reference stages resolve it; returns ``(slot, next prev_ibus,
        events)`` with the cycle's input-independent component events
        ``(ibus, regfile, funits, mem, secure)``."""
        id_ins = if_id.ins
        ex_ins, ex_pc = id_ex.ins, id_ex.pc
        mem_ins = ex_mem.ins
        wb_ins = mem_wb.ins

        # -- control outcomes ------------------------------------
        ex_spec = ex_ins.spec
        redirect = False
        ctl = None
        if ex_spec.is_branch:
            ctl = ("b", ex_ins.op, taken)
            redirect = taken
        elif ex_spec.is_jump:
            redirect = True
            if ex_ins.op in ("jr", "jalr"):
                ctl = ("j", pipe.pc)  # target came from a register
        ex_link = -1
        if ex_ins.op in ("jal", "jalr"):
            ex_link = (ex_pc + 4) & _WORD_MASK

        # -- forwarding selectors (reference EX logic) -----------
        fwd_mem_dest = mem_ins.dest if not mem_ins.spec.is_load else None
        fwd_wb_dest = wb_ins.dest
        a_sel = _forward_selector(id_ex.a_src, fwd_mem_dest, fwd_wb_dest)
        b_sel = _forward_selector(id_ex.b_src, fwd_mem_dest, fwd_wb_dest)
        st_sel = _forward_selector(id_ex.store_src, fwd_mem_dest,
                                   fwd_wb_dest)

        # -- decode plan (reference ID logic incl. isolation) ----
        if stall:
            dec = (-1, 0, -1, 0, -1, 0)
        else:
            dec = _decode_plan(id_ins, ex_ins.dest, mem_ins.dest,
                               operand_isolation)
        a_reg, a_const, b_reg, b_const, st_reg, reads = dec
        dec_live = not stall and not redirect
        writes = 1 if wb_ins.dest is not None else 0

        # -- fetch (reference IF logic, pre-squash hook args) ----
        fetch_active = False
        ibus_ev = 0
        if not stall and not halt_in_flight:
            index = (pc_before - text_base) >> 2
            if 0 <= index < text_len:
                fetch_active = True
                fetch_iword = iwords[index]
                ibus_ev = (fetch_iword & ~prev_ibus & _WORD_MASK).bit_count()
                prev_ibus = fetch_iword

        # -- post-step latch contents ----------------------------
        # if_id is the pre-step latch: its word is the previous l0 word.
        l0_ev = (pipe.if_id.iword & ~if_id.iword & _WORD_MASK).bit_count()
        s1 = pipe.id_ex.ins.secure
        s2 = ex_ins.secure
        s3 = mem_ins.secure

        unit_i, ex_sec = _unit_for(ex_ins)
        alu_name = None if ex_spec.alu is AluOp.NONE \
            else ex_spec.alu.value
        mem_kind = _mem_kind(mem_ins)
        wb_dest = wb_ins.dest if wb_ins.dest is not None else -1

        record = (
            wb_dest, wb_ins.secure, mem_kind, mem_ins.secure,
            alu_name, unit_i, ex_sec, a_sel, b_sel, st_sel, ex_link, ctl,
            dec_live, a_reg, a_const, b_reg, b_const, st_reg, reads, writes,
            ibus_ev, l0_ev, s1, s2, s3,
        )
        slot = index_of.setdefault(record, len(records))
        if slot == len(records):
            records.append(record)
        events = (1 if fetch_active else 0, reads + writes,
                  1 if unit_i != UNIT_NONE else 0,
                  1 if mem_kind != _MEM_NONE else 0,
                  (1 if wb_ins.secure else 0) + (1 if s1 else 0)
                  + (1 if s2 else 0) + (1 if s3 else 0))
        return slot, prev_ibus, events

    # Control states: key -> id; per id ``[key, reference latches of the
    # first visit, EX outcome probe (a_sel, b_sel, branch function or None
    # for jr/jalr; None until a step shows the outcome matters), outcome ->
    # transition id]``.  Per transition: fast handler tuple, next state
    # (None after the halt), slot, counter + event deltas, mix delta; uses.
    state_ids: dict[tuple, int] = {}
    states: list[list] = []
    moves: list[tuple] = []
    uses: list[int] = []

    def visit(prev_ibus: int) -> int:
        key = (pipe.pc, pipe.if_id.pc, pipe.id_ex.pc, pipe.ex_mem.pc,
               pipe.mem_wb.pc, pipe._halt_in_flight, prev_ibus,
               pipe.if_id.iword)
        sid = state_ids.setdefault(key, len(states))
        if sid == len(states):
            states.append([key, (pipe.if_id, pipe.id_ex, pipe.ex_mem,
                                 pipe.mem_wb), None, {}])
        return sid

    regs = pipe.regs._regs
    read_word, read_byte = pipe.memory.read_word, pipe.memory.read_byte
    write_word, write_byte = pipe.memory.write_word, pipe.memory.write_byte
    steps = array(_U32)
    steps_append = steps.append
    wb_value = mem_alu = mem_store = idex_a = idex_b = idex_st = 0
    sid = visit(0)
    try:
        while sid is not None:
            key, latches, probe, table = states[sid]
            if len(steps) >= max_cycles:
                raise ScheduleUnavailable(
                    f"recording exceeded max_cycles={max_cycles} "
                    f"(pc=0x{key[0]:08x})")
            outcome = None
            if probe is not None:
                a_sel, b_sel, taken_fn = probe
                outcome = idex_a if a_sel == 0 else (mem_alu if a_sel == 1
                                                     else wb_value)
                if taken_fn is not None:
                    outcome = taken_fn(outcome, idex_b if b_sel == 0 else (
                        mem_alu if b_sel == 1 else wb_value))
            tid = table.get(outcome)
            if tid is None:
                # -- miss: one reference step from this state's latches --
                if_id, id_ex, ex_mem, mem_wb = pipe.if_id, pipe.id_ex, \
                    pipe.ex_mem, pipe.mem_wb = latches
                id_ex.a, id_ex.b, id_ex.store_val = idex_a, idex_b, idex_st
                ex_mem.alu_out, ex_mem.store_val = mem_alu, mem_store
                mem_wb.value = wb_value
                pipe.pc, pipe._halt_in_flight = key[0], key[5]
                pipe.cycle, pipe._mix = len(steps), {}
                for name in _COUNTERS:
                    setattr(pipe, name, 0)
                pipe.step()
                slot, prev_ibus, events = build(
                    if_id, id_ex, ex_mem, mem_wb, key[0], key[5],
                    pipe.stall_cycles > 0, pipe.branches_taken > 0, key[6])
                fast = _BoundSchedule._bind_fast(records[slot])
                if fast[7] is not None:
                    outcome = fast[7][1]
                    states[sid][2] = (fast[3], fast[4], fast[7][0])
                tid = table[outcome] = len(moves)
                moves.append((fast, None if pipe.halted else visit(prev_ibus),
                               slot, tuple(getattr(pipe, name) for name
                                           in _COUNTERS) + events,
                               pipe._mix))
                uses.append(0)
                # The data path below repeats the step's register and
                # memory writes with the same values and so computes the
                # values the step latched.
            # -- data path of the transition ----------------------------
            (wb_wr, mem_kind, alu_fn, a_sel, b_sel, st_sel, ex_link, _ctl,
             dec_live, a_reg, a_const, b_reg, b_const, st_reg), sid, slot, \
                _, _ = moves[tid]
            steps_append(slot)
            uses[tid] += 1
            if wb_wr >= 0:
                regs[wb_wr] = wb_value
            new_wb = mem_alu
            if mem_kind:
                if mem_kind == _MEM_LW:
                    new_wb = read_word(mem_alu)
                elif mem_kind == _MEM_LBU:
                    new_wb = read_byte(mem_alu)
                elif mem_kind == _MEM_LB:
                    new_wb = read_byte(mem_alu)
                    if new_wb & 0x80:
                        new_wb |= 0xFFFF_FF00
                elif mem_alu == MARKER_ADDR:
                    pass  # a phase marker never reaches memory
                elif mem_kind == _MEM_SW:
                    write_word(mem_alu, mem_store)
                else:
                    write_byte(mem_alu, mem_store)
            a = idex_a if a_sel == 0 else (mem_alu if a_sel == 1
                                           else wb_value)
            b = idex_b if b_sel == 0 else (mem_alu if b_sel == 1
                                           else wb_value)
            mem_store = idex_st if st_sel == 0 else (mem_alu if st_sel == 1
                                                     else wb_value)
            mem_alu = alu_fn(a, b) if alu_fn is not None else 0
            if ex_link >= 0:
                mem_alu = ex_link
            wb_value = new_wb
            if dec_live:
                idex_a = regs[a_reg] if a_reg >= 0 else a_const
                idex_b = regs[b_reg] if b_reg >= 0 else b_const
                idex_st = regs[st_reg] if st_reg >= 0 else 0
            else:
                idex_a = idex_b = idex_st = 0
    except ScheduleFallback:
        raise
    except SimulationError as error:
        # e.g. an input-dependent address faulted on the zero data image.
        raise ScheduleUnavailable(
            f"recording run failed: {error}") from error

    # Counters, component events and opcode mix: each transition's deltas
    # times its uses, in first-use order (= the reference mix order); the
    # counters go back into the pipe so the stat formulas stay there.
    totals = [0] * (len(_COUNTERS) + 5)
    mix: dict[tuple[str, bool], int] = {}
    for (_, _, _, delta, mix_delta), times in zip(moves, uses):
        totals = [total + value * times
                  for total, value in zip(totals, delta)]
        for mix_key, count in mix_delta.items():
            mix[mix_key] = mix.get(mix_key, 0) + count * times
    for name, total in zip(_COUNTERS, totals):
        setattr(pipe, name, total)
    pipe._mix = mix
    cycles = pipe.cycle = len(steps)
    n_ibus, n_regfile, n_funits, n_mem, n_secure = totals[len(_COUNTERS):]
    counts = {"clock": cycles, "ibus": n_ibus, "regfile": n_regfile,
              "funits": n_funits, "dbus": n_mem, "memport": n_mem,
              "latches": 4 * cycles, "secure": n_secure}
    return CycleSchedule(version=SCHEDULE_VERSION,
                         operand_isolation=operand_isolation,
                         cycles=cycles, steps=steps, records=records,
                         final_pc=pipe.pc, stats=dict(pipe.stats),
                         mix=pipe.opcode_mix, counts=counts)


# ---------------------------------------------------------------------------
# Binding: schedule records -> replay handler tuples
# ---------------------------------------------------------------------------

def _signed(value: int) -> int:
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


# Pre-resolved per-op ALU handlers; must compute exactly what
# machine.alu.alu_execute computes for the same AluOp.
_ALU_FUNCS = {
    AluOp.ADD.value: lambda a, b: (a + b) & _WORD_MASK,
    AluOp.SUB.value: lambda a, b: (a - b) & _WORD_MASK,
    AluOp.AND.value: lambda a, b: a & b,
    AluOp.OR.value: lambda a, b: a | b,
    AluOp.XOR.value: lambda a, b: a ^ b,
    AluOp.NOR.value: lambda a, b: (~(a | b)) & _WORD_MASK,
    AluOp.SLT.value: lambda a, b: 1 if _signed(a) < _signed(b) else 0,
    AluOp.SLTU.value:
        lambda a, b: 1 if (a & _WORD_MASK) < (b & _WORD_MASK) else 0,
    AluOp.SLL.value: lambda a, b: (a << (b & 31)) & _WORD_MASK,
    AluOp.SRL.value: lambda a, b: (a & _WORD_MASK) >> (b & 31),
    AluOp.SRA.value: lambda a, b: (_signed(a) >> (b & 31)) & _WORD_MASK,
    AluOp.LUI.value: lambda a, b: (b << 16) & _WORD_MASK,
    AluOp.PASS_A.value: lambda a, b: a & _WORD_MASK,
}

_BRANCH_FUNCS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blez": lambda a, b: _signed(a) <= 0,
    "bgtz": lambda a, b: _signed(a) > 0,
    "bltz": lambda a, b: _signed(a) < 0,
    "bgez": lambda a, b: _signed(a) >= 0,
}


class _BoundSchedule:
    """A :class:`CycleSchedule` resolved for replay.

    ``fast`` holds one data-path handler tuple per record for the replay
    loop, in an object array, so a block of steps selects its tuples in
    one fancy index instead of one Python int per cycle; ``columns`` the
    records' input-independent energy fields as a ``[13, records]``
    matrix (rows named in :mod:`.scoring`) and ``steps`` a zero-copy
    ``uint32`` view of the schedule's step array, both for the energy
    scorer.  The view exports the array's buffer, so the step array can
    no longer grow once it is bound.
    It pickles as its :class:`CycleSchedule`, so loading it from the
    artifact store's disk layer binds it again.
    """

    __slots__ = ("schedule", "fast", "columns", "steps")

    def __init__(self, schedule: CycleSchedule):
        self.schedule = schedule
        self.fast = np.empty(len(schedule.records), object)
        for index, record in enumerate(schedule.records):
            self.fast[index] = self._bind_fast(record)
        self.columns = np.array(
            [self._energy_columns(record) for record in schedule.records],
            np.int8).T.copy()
        self.steps = np.frombuffer(schedule.steps, np.uint32)

    def __reduce__(self):
        return _BoundSchedule, (self.schedule,)

    @staticmethod
    def _bind_fast(record: tuple) -> tuple:
        (wb_dest, _wb_sec, mem_kind, _mem_sec, alu_name, _unit_i, _ex_sec,
         a_sel, b_sel, st_sel, ex_link, ctl, dec_live, a_reg, a_const,
         b_reg, b_const, st_reg, *_energy) = record
        if ctl is not None:
            if ctl[0] == "b":
                ctl = (_BRANCH_FUNCS[ctl[1]], ctl[2])
            else:
                ctl = (None, ctl[1])
        alu_fn = _ALU_FUNCS[alu_name] if alu_name is not None else None
        wb_wr = wb_dest if wb_dest > 0 else -1
        return (wb_wr, mem_kind, alu_fn, a_sel, b_sel, st_sel, ex_link, ctl,
                dec_live, a_reg, a_const, b_reg, b_const, st_reg)

    @staticmethod
    def _energy_columns(record: tuple) -> tuple:
        (_wb_dest, wb_sec, mem_kind, mem_sec, _alu_name, unit_i, ex_sec,
         a_sel, b_sel, _st_sel, _ex_link, _ctl, _dec_live, _a_reg,
         _a_const, _b_reg, _b_const, _st_reg, reads, writes, ibus_ev,
         l0_ev, s1, s2, s3) = record
        mem = MEM_LOAD if _MEM_NONE < mem_kind <= _MEM_LB \
            else MEM_STORE if mem_kind else 0
        sec_idx = ((8 if wb_sec else 0) | (4 if s1 else 0)
                   | (2 if s2 else 0) | (1 if s3 else 0))
        return (ibus_ev, l0_ev, reads + writes, mem, mem_sec, unit_i, ex_sec,
                a_sel, b_sel, s1, s2, s3, sec_idx)


# ---------------------------------------------------------------------------
# Schedule lookup (artifact store) + per-process fallback policy
# ---------------------------------------------------------------------------

#: ``(digest, operand_isolation) -> max_cycles`` recording budgets that
#: already failed; retried only with a larger budget.
_UNRECORDABLE: dict[tuple[str, bool], int] = {}
#: Digests whose replay diverged once; they go straight to the reference
#: engine afterwards (control flow is input-dependent for this program).
_DIVERGENT: set[tuple[str, bool]] = set()


def _clear_caches() -> None:
    """Test hook: forget the per-process fallback policy and every bound
    schedule held in the default store's memory."""
    from ..harness.engine import default_cache

    _UNRECORDABLE.clear()
    _DIVERGENT.clear()
    default_cache().discard("sched-")


def bound_schedule_for(program: Program, operand_isolation: bool = True,
                       max_cycles: int = _RECORD_MAX_CYCLES,
                       ) -> _BoundSchedule:
    """The program's bound schedule: from the default artifact store
    (memory, then disk), else a fresh recording run stored back to it.

    Raises :class:`ScheduleUnavailable` when the fast engine cannot serve
    the run — unrecordable program, previously diverged digest, or a
    schedule longer than ``max_cycles`` (the reference engine then raises
    its :class:`~repro.machine.exceptions.CycleLimitExceeded` at the
    exact cycle the budget expires).
    """
    from ..harness.engine import default_cache

    digest = program_digest(program)
    key = (digest, operand_isolation)
    if key in _DIVERGENT:
        raise ScheduleUnavailable(
            f"program {digest} diverged before; using reference engine")
    cache = default_cache()
    cache_key = _schedule_cache_key(digest, operand_isolation)
    bound = cache.artifact(cache_key)
    if not isinstance(bound, _BoundSchedule) \
            or bound.schedule.version != SCHEDULE_VERSION:
        tried = _UNRECORDABLE.get(key)
        if tried is not None and max_cycles <= tried:
            raise ScheduleUnavailable(
                f"recording already failed within {tried} cycles")
        try:
            schedule = record_schedule(
                program, operand_isolation=operand_isolation,
                max_cycles=max_cycles)
        except ScheduleUnavailable:
            _UNRECORDABLE[key] = max(max_cycles, _UNRECORDABLE.get(key, 0))
            raise
        bound = _BoundSchedule(schedule)
        cache.store_artifact(cache_key, bound)
    if bound.schedule.cycles > max_cycles:
        raise ScheduleUnavailable(
            f"schedule needs {bound.schedule.cycles} cycles "
            f"> max_cycles={max_cycles}")
    return bound


def ensure_schedule(program: Program, operand_isolation: bool = True,
                    max_cycles: int = _RECORD_MAX_CYCLES) -> bool:
    """Pre-warm the schedule cache (parent side of a batch, before the
    process pool forks); returns True when a schedule is available."""
    try:
        bound_schedule_for(program, operand_isolation=operand_isolation,
                           max_cycles=max_cycles)
        return True
    except ScheduleFallback:
        return False


# ---------------------------------------------------------------------------
# Replay pipeline
# ---------------------------------------------------------------------------

class ReplayPipeline(Pipeline):
    """Drop-in :class:`Pipeline` that replays a recorded schedule.

    Exposes the same post-run surface (``markers``, ``stats``,
    ``opcode_mix``, ``regs``, ``cycle``, ``pc``, ``halted``, counters);
    :meth:`run` executes the whole schedule in one flat loop.  Raises
    :class:`ScheduleDivergence` when a recorded branch or indirect-jump
    outcome disagrees with the replayed data — the caller falls back to
    the reference engine and no tracker/memory state of *this* attempt is
    reused.
    """

    def __init__(self, program: Program, bound: _BoundSchedule,
                 memory: Optional[Memory] = None, tracker=None,
                 operand_isolation: bool = True, collect_mix: bool = False):
        super().__init__(program, memory, tracker=tracker,
                         operand_isolation=operand_isolation,
                         collect_mix=collect_mix)
        if bound.schedule.operand_isolation != operand_isolation:
            raise ScheduleUnavailable(
                "schedule recorded under a different isolation setting")
        self._bound = bound

    def run(self, max_cycles: int = 50_000_000) -> int:
        schedule = self._bound.schedule
        if schedule.cycles > max_cycles:
            raise ScheduleUnavailable(
                f"schedule needs {schedule.cycles} cycles "
                f"> max_cycles={max_cycles}")
        if self.halted or self.cycle:
            raise SimulationError("ReplayPipeline.run is one-shot")
        tracker = self.tracker
        if tracker is None or tracker.attribution is not None:
            raise ScheduleUnavailable(
                "replay needs a tracker without attribution; "
                "using reference engine")
        try:
            self._replay_fast(tracker)
        except ScheduleDivergence:
            _DIVERGENT.add((program_digest(self.program),
                            self.operand_isolation))
            raise
        # Input-independent end-of-run state, recorded once.
        stats = schedule.stats
        self.cycle = schedule.cycles
        self.pc = schedule.final_pc
        self.halted = True
        self.retired = stats["retired"]
        self.stall_cycles = stats["stall_cycles"]
        self.squashed_instructions = stats["squashed_instructions"]
        self.branches_executed = stats["branches_executed"]
        self.branches_taken = stats["branches_taken"]
        self.loads_executed = stats["loads_executed"]
        self.stores_executed = stats["stores_executed"]
        self.secure_retired = stats["secure_retired"]
        if self._mix is not None:
            self._mix.update(schedule.mix)
        return self.cycle

    def _replay_fast(self, tracker) -> None:
        """Data-path loop; energy scored a block at a time, one commit.

        Per cycle the loop runs only the data path and the recorded
        control checks, storing the six latched values in
        :data:`SCORE_BLOCK`-cycle buffers whose slot 0 holds the value
        of the cycle before the block.  After each block the
        :class:`~.scoring.EnergyScorer` scores them with the tracker's
        own component models, in the reference hook order, and the
        block's noise is folded in from the tracker's stream, so traces
        and totals are bit-identical.  A divergence abandons the tracker
        mid-run; the caller re-runs on a fresh one.
        """
        handlers = self._bound.fast
        steps = self._bound.steps
        cycles = len(steps)
        scorer = EnergyScorer(self._bound, tracker)

        regs = self.regs._regs
        memory = self.memory
        read_word = memory.read_word
        read_byte = memory.read_byte
        write_word = memory.write_word
        write_byte = memory.write_byte
        markers_append = self.markers.append

        # ID/EX a, b, store; EX/MEM alu_out, store; MEM/WB value.
        buffers = [array(_U32, bytes(4 * (SCORE_BLOCK + 1)))
                   for _ in range(6)]
        na_buf, nb_buf, nst_buf, out_buf, st_buf, wbv_buf = buffers
        views = [np.frombuffer(buffer, np.uint32) for buffer in buffers]
        streams = np.empty((STREAMS, SCORE_BLOCK + 1), np.uint32)
        trace = np.empty(cycles)
        components = np.empty((cycles, len(COMPONENTS))) \
            if tracker.collect_components else []
        noisy = tracker.noise_sigma > 0
        t_noise = tracker.totals["noise"]

        wb_value = 0
        mem_alu = 0
        mem_store = 0
        idex_a = idex_b = idex_st = 0
        for start in range(0, cycles, SCORE_BLOCK):
            na_buf[0], nb_buf[0], nst_buf[0] = idex_a, idex_b, idex_st
            out_buf[0], st_buf[0], wbv_buf[0] = mem_alu, mem_store, wb_value
            block = handlers[steps[start:start + SCORE_BLOCK]].tolist()
            for k, (wb_wr, mem_kind, alu_fn, a_sel, b_sel, st_sel, ex_link,
                    ctl, dec_live, a_reg, a_const, b_reg, b_const,
                    st_reg) in enumerate(block, 1):
                # ---- WB ----
                if wb_wr >= 0:
                    regs[wb_wr] = wb_value
                # ---- MEM ----
                new_wb = mem_alu
                if mem_kind:
                    if mem_kind == _MEM_LW:
                        new_wb = read_word(mem_alu)
                    elif mem_kind == _MEM_LBU:
                        new_wb = read_byte(mem_alu)
                    elif mem_kind == _MEM_LB:
                        new_wb = read_byte(mem_alu)
                        if new_wb & 0x80:
                            new_wb |= 0xFFFF_FF00
                    elif mem_alu == MARKER_ADDR:
                        markers_append((start + k - 1, mem_store))
                    elif mem_kind == _MEM_SW:
                        write_word(mem_alu, mem_store)
                    else:
                        write_byte(mem_alu, mem_store)
                # ---- EX (forwarding pre-resolved) ----
                a = idex_a if a_sel == 0 else (mem_alu if a_sel == 1
                                               else wb_value)
                b = idex_b if b_sel == 0 else (mem_alu if b_sel == 1
                                               else wb_value)
                mem_store = st_buf[k] = (
                    idex_st if st_sel == 0
                    else (mem_alu if st_sel == 1 else wb_value))
                mem_alu = alu_fn(a, b) if alu_fn is not None else 0
                if ex_link >= 0:
                    mem_alu = ex_link
                out_buf[k] = mem_alu
                if ctl is not None:
                    taken_fn, expected = ctl
                    if taken_fn is not None:
                        if taken_fn(a, b) != expected:
                            raise ScheduleDivergence(start + k - 1)
                    elif a != expected:
                        raise ScheduleDivergence(start + k - 1)
                wb_value = wbv_buf[k] = new_wb
                # ---- ID (reads pre-gated; write-before-read holds: the
                # WB write above already landed in regs) ----
                if dec_live:
                    idex_a = regs[a_reg] if a_reg >= 0 else a_const
                    idex_b = regs[b_reg] if b_reg >= 0 else b_const
                    idex_st = regs[st_reg] if st_reg >= 0 else 0
                else:
                    idex_a = idex_b = idex_st = 0
                na_buf[k] = idex_a
                nb_buf[k] = idex_b
                nst_buf[k] = idex_st
            for stream, view in zip(streams, views):
                stream[:k + 1] = view[:k + 1]
            total, parts = scorer.score(start, streams[:, :k + 1])
            stop = start + k
            if noisy:
                # The reference adds each draw after the component sum.
                draws = tracker.noise_draws(k)
                total += draws
                t_noise = running_total(t_noise, draws)
            trace[start:stop] = total
            if tracker.collect_components:
                components[start:stop] = np.column_stack(parts)

        totals = dict(zip(COMPONENTS, scorer.totals))
        counts = dict(self._bound.schedule.counts)
        if noisy:
            totals["noise"] = float(t_noise)
            counts["noise"] = cycles
        tracker.commit_fastpath(trace, components, totals, counts, cycles)


class ReplayCPU(CPU):
    """A :class:`~repro.machine.cpu.CPU` whose pipeline replays a recorded
    schedule instead of re-deriving control every cycle."""

    def __init__(self, program: Program, bound: _BoundSchedule,
                 tracker=None, operand_isolation: bool = True,
                 collect_mix: bool = False):
        self.program = program
        self.memory = Memory()
        self.pipeline = ReplayPipeline(program, bound, self.memory,
                                       tracker=tracker,
                                       operand_isolation=operand_isolation,
                                       collect_mix=collect_mix)
