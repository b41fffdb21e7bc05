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

* :func:`record_schedule` runs the reference :class:`~.pipeline.Pipeline`
  once (on the program's initial data image, no inputs) and records a
  compact :class:`CycleSchedule`: one interned control record per cycle
  holding stage occupancy, forwarding selectors, decode read/gate lists,
  memory-op kind, pre-computed instruction-bus and IF/ID-latch transition
  counts (the instruction stream is static), and the secure-bit layout of
  the four pipeline latches.
* :class:`ReplayPipeline` replays the schedule for each subsequent trace,
  executing only the data path: operand evaluation through pre-resolved
  per-record handler tuples, transition-sensitive energy accumulated in
  flat per-component floats, committed to the tracker once at the end
  (:meth:`~repro.energy.tracker.EnergyTracker.commit_fastpath`).  With an
  attribution sink attached it instead drives the standard tracker hooks
  in the reference call order, so attribution snapshots are identical.
* Every recorded branch/indirect-jump outcome is checked during replay;
  a mismatch raises :class:`ScheduleDivergence` and the harness runner
  transparently re-runs the trace on the reference engine, so correctness
  never depends on the data-independence heuristic.

The contract is **bit identity** with the reference engine: the replay
performs the exact same floating-point accumulations in the exact same
order (see the differential suite in ``tests/machine/test_fastpath.py``).

Schedules are persisted through the harness :class:`CompileCache` keyed by
a digest of the program text/data plus a fingerprint of the simulator
sources, so a DPA batch pays schedule construction once across a process
pool.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Optional

from ..fingerprint import source_fingerprint
from ..isa.instructions import AluOp, Format, Instruction
from ..isa.program import Program
from .cpu import CPU
from .exceptions import SimulationError
from .memory import Memory
from .pipeline import BUBBLE, MARKER_ADDR, Pipeline

_WORD_MASK = 0xFFFF_FFFF

#: Bump when the record layout or replay semantics change; part of the
#: on-disk cache key, so stale schedules can only miss, never replay wrong.
SCHEDULE_VERSION = 1

#: Engine names accepted by ``--engine`` / ``REPRO_ENGINE``.  Re-exported
#: from the engine registry for backwards compatibility.
from .engines import ENGINES  # noqa: E402  (historical import site)

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
# Program digest + schedule cache keys
# ---------------------------------------------------------------------------

#: Simulator subpackages.  The compile cache's toolchain fingerprint
#: covers the compiler side; schedules additionally depend on the machine
#: model and the energy bookkeeping they pre-compute (ibus/latch
#: transition counts).
SIMULATOR_SOURCES = ("machine", "energy", "isa")


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
    text = "|".join(("schedule", str(SCHEDULE_VERSION),
                     source_fingerprint(SIMULATOR_SOURCES), digest,
                     "iso" if operand_isolation else "noiso"))
    return "sched-" + hashlib.sha256(text.encode()).hexdigest()[:32]


# ---------------------------------------------------------------------------
# Cycle schedule recording
# ---------------------------------------------------------------------------

class CycleSchedule:
    """The recorded control schedule of one program.

    ``records`` holds the unique per-cycle control tuples (interned — a
    16-round DES run is 187,845 cycles but only 847 distinct records);
    ``steps[i]`` indexes the record replayed at cycle ``i``.
    ``stats``/``mix``/``counts`` are the end-of-run performance counters,
    opcode mix, and per-component event counts, all input-independent and
    therefore recordable once.
    """

    __slots__ = ("version", "operand_isolation", "cycles", "steps",
                 "records", "final_pc", "stats", "mix", "counts")

    def __init__(self, version: int, operand_isolation: bool, cycles: int,
                 steps: list[int], records: list[tuple], final_pc: int,
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
_UNIT_NONE, _UNIT_ALU, _UNIT_XOR, _UNIT_SHIFT = range(4)
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
        return _UNIT_NONE, False
    if spec.is_load or spec.is_store:
        return _UNIT_ALU, ins.secure and spec.is_indexing
    if alu_op is AluOp.XOR:
        return _UNIT_XOR, ins.secure
    if alu_op in _SHIFT_OPS:
        return _UNIT_SHIFT, ins.secure
    return _UNIT_ALU, ins.secure


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


def record_schedule(program: Program, operand_isolation: bool = True,
                    max_cycles: int = _RECORD_MAX_CYCLES) -> CycleSchedule:
    """Run the reference pipeline once and record its control schedule.

    The recording run executes on the program's initial data image (no
    inputs written); if the program's control flow depends on inputs the
    replay detects it per-trace and falls back.  Raises
    :class:`ScheduleUnavailable` if the recording run itself cannot finish
    (cycle budget, simulation fault).

    Every cycle steps the unmodified reference pipeline, but the control
    record is looked up by a compact key: the fetch PC, the four latch
    PCs (a latch's PC fixes its instruction), ``_halt_in_flight``, the
    previous instruction-bus and IF/ID words (the transition-count
    baselines), and the EX outcome (next PC, stall and branch-taken
    deltas).  Those fix every record field, so the record is built only
    on a key's first occurrence — a 16-round DES run has 187,845 cycles
    but 847 distinct records.
    """
    pipe = Pipeline(program, Memory(), tracker=None,
                    operand_isolation=operand_isolation, collect_mix=True)
    text_base = program.text_base
    iwords = pipe._iwords
    text_len = len(program.text)

    steps: list[int] = []
    records: list[tuple] = []
    index_of: dict[tuple, int] = {}
    #: Per-record input-independent component events:
    #: ``(ibus, regfile, funits, mem, secure)``.
    events: list[tuple[int, int, int, int, int]] = []
    #: Control key -> ``(slot, instruction-bus word after the cycle)``.
    memo: dict[tuple, tuple[int, int]] = {}
    prev_ibus = 0

    def ins_index(ins: Instruction, pc: int) -> int:
        if ins is BUBBLE or pc < 0:
            return -1
        return (pc - text_base) >> 2

    def build(if_id, id_ex, ex_mem, mem_wb, pc_before: int,
              halt_in_flight: bool, stall: bool, taken: bool,
              prev_ibus: int) -> tuple[int, int]:
        """Intern the just-stepped cycle's record, resolved exactly as the
        reference stages resolve it; returns ``(slot, next prev_ibus)``."""
        id_ins, id_pc = if_id.ins, if_id.pc
        ex_ins, ex_pc = id_ex.ins, id_ex.pc
        mem_ins, mem_pc = ex_mem.ins, ex_mem.pc
        wb_ins, wb_pc = mem_wb.ins, mem_wb.pc

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
        fetch_iword = 0
        if stall:
            fetch_idx = ins_index(id_ins, id_pc)
        elif halt_in_flight:
            fetch_idx = -1
        else:
            index = (pc_before - text_base) >> 2
            if 0 <= index < text_len:
                fetch_idx = index
                fetch_iword = iwords[index]
                fetch_active = True
            else:
                fetch_idx = -1
        ibus_ev = 0
        if fetch_active:
            ibus_ev = (fetch_iword & ~prev_ibus & _WORD_MASK).bit_count()
            prev_ibus = fetch_iword

        # -- post-step latch contents ----------------------------
        l0_iword = pipe.if_id.iword
        l0_idx = ins_index(pipe.if_id.ins, pipe.if_id.pc)
        # if_id is the pre-step latch: its word is the previous l0 word.
        l0_ev = (l0_iword & ~if_id.iword & _WORD_MASK).bit_count()
        l1_idx = ins_index(pipe.id_ex.ins, pipe.id_ex.pc)
        s1 = pipe.id_ex.ins.secure
        s2 = ex_ins.secure
        s3 = mem_ins.secure

        unit_i, ex_sec = _unit_for(ex_ins)
        alu_name = None if ex_spec.alu is AluOp.NONE \
            else ex_spec.alu.value
        mem_kind = _mem_kind(mem_ins)
        wb_dest = wb_ins.dest if wb_ins.dest is not None else -1

        record = (
            ins_index(wb_ins, wb_pc), wb_dest, wb_ins.secure,
            ins_index(mem_ins, mem_pc), mem_kind, mem_ins.secure,
            ins_index(ex_ins, ex_pc), alu_name, unit_i, ex_sec,
            a_sel, b_sel, st_sel, ex_link, ctl,
            ins_index(id_ins, id_pc), dec_live,
            a_reg, a_const, b_reg, b_const, st_reg, reads, writes,
            fetch_idx, fetch_active, fetch_iword, ibus_ev,
            l0_idx, l0_iword, l0_ev, l1_idx, s1, s2, s3,
        )
        slot = index_of.get(record)
        if slot is None:
            slot = len(records)
            records.append(record)
            index_of[record] = slot
            events.append((
                1 if fetch_active else 0, reads + writes,
                1 if unit_i != _UNIT_NONE else 0,
                1 if mem_kind != _MEM_NONE else 0,
                (1 if wb_ins.secure else 0) + (1 if s1 else 0)
                + (1 if s2 else 0) + (1 if s3 else 0)))
        return slot, prev_ibus

    step = pipe.step
    try:
        while not pipe.halted:
            if pipe.cycle >= max_cycles:
                raise ScheduleUnavailable(
                    f"recording exceeded max_cycles={max_cycles} "
                    f"(pc=0x{pipe.pc:08x})")
            # -- pre-step state --------------------------------------
            if_id, id_ex = pipe.if_id, pipe.id_ex
            ex_mem, mem_wb = pipe.ex_mem, pipe.mem_wb
            pc_before = pipe.pc
            halt_in_flight = pipe._halt_in_flight
            stalls_before = pipe.stall_cycles
            taken_before = pipe.branches_taken

            step()

            stall = pipe.stall_cycles - stalls_before
            taken = pipe.branches_taken - taken_before
            key = (pc_before, if_id.pc, id_ex.pc, ex_mem.pc, mem_wb.pc,
                   halt_in_flight, prev_ibus, if_id.iword, pipe.pc,
                   stall, taken)
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = build(
                    if_id, id_ex, ex_mem, mem_wb, pc_before,
                    halt_in_flight, stall > 0, taken > 0, prev_ibus)
            slot, prev_ibus = hit
            steps.append(slot)
    except ScheduleFallback:
        raise
    except SimulationError as error:
        # e.g. an input-dependent address faulted on the zero data image.
        raise ScheduleUnavailable(
            f"recording run failed: {error}") from error

    # Input-independent per-component event counts, from each record's
    # events times the number of cycles that replay it.
    n_ibus = n_regfile = n_funits = n_mem = n_secure = 0
    for slot, times in Counter(steps).items():
        ibus, regfile, funits, mem, secure = events[slot]
        n_ibus += ibus * times
        n_regfile += regfile * times
        n_funits += funits * times
        n_mem += mem * times
        n_secure += secure * times
    cycles = pipe.cycle
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
    """A :class:`CycleSchedule` resolved against a program's instruction
    objects: per-record handler tuples for the inline fast loop, plus
    (lazily) the instruction-bearing tuples the hooked loop needs."""

    __slots__ = ("schedule", "fast", "_hooked", "_program")

    def __init__(self, schedule: CycleSchedule, program: Program):
        self.schedule = schedule
        self._program = program
        self.fast = [self._bind_fast(record)
                     for record in schedule.records]
        self._hooked: Optional[list[tuple]] = None

    @staticmethod
    def _bind_fast(record: tuple) -> tuple:
        (_wb_idx, wb_dest, wb_sec, _mem_idx, mem_kind, mem_sec,
         _ex_idx, alu_name, unit_i, ex_sec, a_sel, b_sel, st_sel,
         ex_link, ctl, _id_idx, dec_live, a_reg, a_const, b_reg, b_const,
         st_reg, reads, writes, _fetch_idx, _fetch_active, _fetch_iword,
         ibus_ev, _l0_idx, _l0_iword, l0_ev, _l1_idx, s1, s2, s3) = record
        if ctl is not None:
            if ctl[0] == "b":
                ctl = (_BRANCH_FUNCS[ctl[1]], ctl[2])
            else:
                ctl = (None, ctl[1])
        alu_fn = _ALU_FUNCS[alu_name] if alu_name is not None else None
        wb_wr = wb_dest if wb_dest > 0 else -1
        sec_idx = ((8 if wb_sec else 0) | (4 if s1 else 0)
                   | (2 if s2 else 0) | (1 if s3 else 0))
        return (wb_wr, mem_kind, mem_sec, alu_fn, unit_i, ex_sec,
                a_sel, b_sel, st_sel, ex_link, ctl, dec_live,
                a_reg, a_const, b_reg, b_const, st_reg, reads + writes,
                ibus_ev, l0_ev, s1, s2, s3, sec_idx)

    @property
    def hooked(self) -> list[tuple]:
        if self._hooked is None:
            self._hooked = [self._bind_hooked(record)
                            for record in self.schedule.records]
        return self._hooked

    def _bind_hooked(self, record: tuple) -> tuple:
        (wb_idx, wb_dest, _wb_sec, mem_idx, mem_kind, _mem_sec,
         ex_idx, alu_name, _unit_i, _ex_sec, a_sel, b_sel, st_sel,
         ex_link, ctl, id_idx, dec_live, a_reg, a_const, b_reg, b_const,
         st_reg, reads, writes, fetch_idx, fetch_active, fetch_iword,
         _ibus_ev, l0_idx, l0_iword, _l0_ev, l1_idx, s1, s2, s3) = record
        text = self._program.text
        base = self._program.text_base

        def resolve(index: int) -> tuple[Instruction, int]:
            if index < 0:
                return BUBBLE, -1
            return text[index], base + (index << 2)

        if ctl is not None:
            if ctl[0] == "b":
                ctl = (_BRANCH_FUNCS[ctl[1]], ctl[2])
            else:
                ctl = (None, ctl[1])
        alu_fn = _ALU_FUNCS[alu_name] if alu_name is not None else None
        wb_ins, wb_pc = resolve(wb_idx)
        mem_ins, mem_pc = resolve(mem_idx)
        ex_ins, ex_pc = resolve(ex_idx)
        id_ins, id_pc = resolve(id_idx)
        fetch_ins, fetch_pc = resolve(fetch_idx)
        l0_ins, l0_pc = resolve(l0_idx)
        l1_ins, l1_pc = resolve(l1_idx)
        return (wb_ins, wb_pc, wb_dest, mem_ins, mem_pc, mem_kind,
                ex_ins, ex_pc, alu_fn, a_sel, b_sel, st_sel, ex_link, ctl,
                dec_live, a_reg, a_const, b_reg, b_const, st_reg,
                reads, writes, id_ins, id_pc, fetch_iword, fetch_active,
                fetch_ins, fetch_pc, l0_ins, l0_pc, l0_iword,
                l1_ins, l1_pc, s1, s2, s3)


# ---------------------------------------------------------------------------
# In-process + on-disk schedule cache
# ---------------------------------------------------------------------------

_BOUND: dict[tuple[str, bool], _BoundSchedule] = {}
#: ``(digest, operand_isolation) -> max_cycles`` recording budgets that
#: already failed; retried only with a larger budget.
_UNRECORDABLE: dict[tuple[str, bool], int] = {}
#: Digests whose replay diverged once; they go straight to the reference
#: engine afterwards (control flow is input-dependent for this program).
_DIVERGENT: set[tuple[str, bool]] = set()


def _clear_caches() -> None:
    """Test hook: forget all in-process schedule state."""
    _BOUND.clear()
    _UNRECORDABLE.clear()
    _DIVERGENT.clear()


def bound_schedule_for(program: Program, operand_isolation: bool = True,
                       max_cycles: int = _RECORD_MAX_CYCLES,
                       ) -> _BoundSchedule:
    """The program's bound schedule: in-process memo, then the shared
    :class:`~repro.harness.engine.CompileCache` disk layer, then a fresh
    recording run (stored back to both).

    Raises :class:`ScheduleUnavailable` when the fast engine cannot serve
    the run — unrecordable program, previously diverged digest, or a
    schedule longer than ``max_cycles`` (the reference engine then raises
    its :class:`~repro.machine.exceptions.CycleLimitExceeded` at the
    exact cycle the budget expires).
    """
    digest = program_digest(program)
    key = (digest, operand_isolation)
    if key in _DIVERGENT:
        raise ScheduleUnavailable(
            f"program {digest} diverged before; using reference engine")
    bound = _BOUND.get(key)
    if bound is None:
        from ..harness.engine import default_cache

        cache = default_cache()
        cache_key = _schedule_cache_key(digest, operand_isolation)
        schedule = cache.artifact(cache_key)
        if not isinstance(schedule, CycleSchedule) \
                or schedule.version != SCHEDULE_VERSION:
            tried = _UNRECORDABLE.get(key)
            if tried is not None and max_cycles <= tried:
                raise ScheduleUnavailable(
                    f"recording already failed within {tried} cycles")
            try:
                schedule = record_schedule(
                    program, operand_isolation=operand_isolation,
                    max_cycles=max_cycles)
            except ScheduleUnavailable:
                _UNRECORDABLE[key] = max(max_cycles,
                                         _UNRECORDABLE.get(key, 0))
                raise
            cache.store_artifact(cache_key, schedule)
        bound = _BoundSchedule(schedule, program)
        _BOUND[key] = bound
    if bound.schedule.cycles > max_cycles:
        raise ScheduleUnavailable(
            f"schedule needs {bound.schedule.cycles} cycles "
            f"> max_cycles={max_cycles}")
    return bound


def mark_divergent(program: Program, operand_isolation: bool = True) -> None:
    """Route future runs of this program straight to the reference engine."""
    _DIVERGENT.add((program_digest(program), operand_isolation))


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
        try:
            if tracker is None:
                self._replay_data_only()
            elif tracker.attribution is not None \
                    or tracker.stream is not None:
                self._replay_hooked(tracker)
            else:
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

    # -- data path core (shared by all three loops) ---------------------

    def _replay_data_only(self) -> None:
        """Architectural state + markers only (no tracker attached)."""
        records = self._bound.fast
        steps = self._bound.schedule.steps
        regs = self.regs._regs
        memory = self.memory
        read_word = memory.read_word
        read_byte = memory.read_byte
        write_word = memory.write_word
        write_byte = memory.write_byte
        markers_append = self.markers.append

        wb_value = 0
        mem_alu = 0
        mem_store = 0
        idex_a = idex_b = idex_st = 0
        cyc = 0
        for slot in steps:
            (wb_wr, mem_kind, _mem_sec, alu_fn, _unit_i, _ex_sec,
             a_sel, b_sel, st_sel, ex_link, ctl, dec_live,
             a_reg, a_const, b_reg, b_const, st_reg, _rw,
             _ibus_ev, _l0_ev, _s1, _s2, _s3, _sec_idx) = records[slot]
            if wb_wr >= 0:
                regs[wb_wr] = wb_value
            new_wb = mem_alu
            if mem_kind:
                if mem_kind == _MEM_LW:
                    new_wb = read_word(mem_alu)
                elif mem_kind == _MEM_LBU:
                    new_wb = read_byte(mem_alu)
                elif mem_kind == _MEM_LB:
                    value = read_byte(mem_alu)
                    if value & 0x80:
                        value |= 0xFFFF_FF00
                    new_wb = value
                elif mem_alu == MARKER_ADDR:
                    markers_append((cyc, mem_store))
                elif mem_kind == _MEM_SW:
                    write_word(mem_alu, mem_store)
                else:
                    write_byte(mem_alu, mem_store)
            a = idex_a if a_sel == 0 else (mem_alu if a_sel == 1
                                           else wb_value)
            b = idex_b if b_sel == 0 else (mem_alu if b_sel == 1
                                           else wb_value)
            store = idex_st if st_sel == 0 else (mem_alu if st_sel == 1
                                                 else wb_value)
            alu_out = alu_fn(a, b) if alu_fn is not None else 0
            if ex_link >= 0:
                alu_out = ex_link
            if ctl is not None:
                taken_fn, expected = ctl
                if taken_fn is not None:
                    if taken_fn(a, b) != expected:
                        raise ScheduleDivergence(cyc)
                elif a != expected:
                    raise ScheduleDivergence(cyc)
            if dec_live:
                next_a = regs[a_reg] if a_reg >= 0 else a_const
                next_b = regs[b_reg] if b_reg >= 0 else b_const
                next_st = regs[st_reg] if st_reg >= 0 else 0
            else:
                next_a = next_b = next_st = 0
            wb_value = new_wb
            mem_alu = alu_out
            mem_store = store
            idex_a, idex_b, idex_st = next_a, next_b, next_st
            cyc += 1

    def _replay_fast(self, tracker) -> None:
        """Inline data + energy loop; flat accumulators, one tracker commit.

        Floating-point additions happen in the exact order the reference
        hook sequence performs them (component order within a cycle, cycle
        order across the run, noise folded in draw order afterwards), so
        traces and totals are bit-identical.
        """
        records = self._bound.fast
        schedule = self._bound.schedule
        steps = schedule.steps
        params = tracker.params

        regs = self.regs._regs
        memory = self.memory
        read_word = memory.read_word
        read_byte = memory.read_byte
        write_word = memory.write_word
        write_byte = memory.write_byte
        markers_append = self.markers.append

        e_clock = params.e_clock_cycle
        e_port = params.e_regfile_port
        e_mem = params.e_memory_access
        e_ibus = tracker.ibus.event_energy
        e_latch = params.event_energy_latch
        dbus_transfer = tracker.dbus.transfer
        unit_fns = (None, tracker.alu.execute, tracker.xor_unit.execute,
                    tracker.shifter.execute)
        l1_secure = tracker.latches[1].secure_energy
        l2_secure = tracker.latches[2].secure_energy
        l3_secure = tracker.latches[3].secure_energy
        # 16-entry secure-energy table: bit3 = WB dummy load, bits 2..0 =
        # dual-rail ID/EX, EX/MEM, MEM/WB latches; accumulation order
        # matches the reference hook sequence (wb_stage, then latches).
        e_dummy = params.e_dummy_load
        e_sec_clk = params.e_secure_clock
        sec_table = []
        for sec_idx in range(16):
            value = 0.0
            if sec_idx & 8:
                value += e_dummy
            if sec_idx & 4:
                value += e_sec_clk
            if sec_idx & 2:
                value += e_sec_clk
            if sec_idx & 1:
                value += e_sec_clk
            sec_table.append(value)

        keep_trace = tracker.keep_trace
        collect_components = tracker.collect_components
        cycle_energy: list[float] = []
        trace_append = cycle_energy.append
        components: list[tuple[float, ...]] = []
        comp_append = components.append

        t_clock = t_ibus = t_regfile = t_funits = 0.0
        t_dbus = t_memport = t_latches = t_secure = 0.0

        # ID/EX latch previous values (latch 1, fields a/b/store), EX/MEM
        # (latch 2, fields alu_out/store), MEM/WB (latch 3, field value).
        p1a = p1b = p1st = 0
        p2a = p2st = 0
        p3 = 0

        wb_value = 0
        mem_alu = 0
        mem_store = 0
        idex_a = idex_b = idex_st = 0
        cyc = 0
        for slot in steps:
            (wb_wr, mem_kind, mem_sec, alu_fn, unit_i, ex_sec,
             a_sel, b_sel, st_sel, ex_link, ctl, dec_live,
             a_reg, a_const, b_reg, b_const, st_reg, rw,
             ibus_ev, l0_ev, s1, s2, s3, sec_idx) = records[slot]
            # ---- WB ----
            if wb_wr >= 0:
                regs[wb_wr] = wb_value
            # ---- MEM ----
            new_wb = mem_alu
            if mem_kind:
                if mem_kind == _MEM_LW:
                    new_wb = bus_value = read_word(mem_alu)
                elif mem_kind == _MEM_LBU:
                    new_wb = bus_value = read_byte(mem_alu)
                elif mem_kind == _MEM_LB:
                    value = read_byte(mem_alu)
                    if value & 0x80:
                        value |= 0xFFFF_FF00
                    new_wb = bus_value = value
                else:
                    if mem_alu == MARKER_ADDR:
                        markers_append((cyc, mem_store))
                    elif mem_kind == _MEM_SW:
                        write_word(mem_alu, mem_store)
                    else:
                        write_byte(mem_alu, mem_store)
                    bus_value = mem_store
                dbus_e = dbus_transfer(bus_value, mem_sec)
                memport_e = e_mem
            else:
                dbus_e = memport_e = 0.0
            # ---- EX (forwarding pre-resolved) ----
            a = idex_a if a_sel == 0 else (mem_alu if a_sel == 1
                                           else wb_value)
            b = idex_b if b_sel == 0 else (mem_alu if b_sel == 1
                                           else wb_value)
            store = idex_st if st_sel == 0 else (mem_alu if st_sel == 1
                                                 else wb_value)
            alu_out = alu_fn(a, b) if alu_fn is not None else 0
            if ex_link >= 0:
                alu_out = ex_link
            if ctl is not None:
                taken_fn, expected = ctl
                if taken_fn is not None:
                    if taken_fn(a, b) != expected:
                        raise ScheduleDivergence(cyc)
                elif a != expected:
                    raise ScheduleDivergence(cyc)
            if unit_i:
                funits_e = unit_fns[unit_i](a, b, alu_out, ex_sec)
            else:
                funits_e = 0.0
            # ---- ID (reads pre-gated; write-before-read holds: the WB
            # write above already landed in regs) ----
            if dec_live:
                next_a = regs[a_reg] if a_reg >= 0 else a_const
                next_b = regs[b_reg] if b_reg >= 0 else b_const
                next_st = regs[st_reg] if st_reg >= 0 else 0
            else:
                next_a = next_b = next_st = 0
            regfile_e = rw * e_port
            # ---- IF (static instruction stream: events precomputed) ----
            ibus_e = ibus_ev * e_ibus
            # ---- latch commit ----
            latches_e = l0_ev * e_latch
            if s1:
                p1a = p1b = p1st = _WORD_MASK
                latches_e += l1_secure
            else:
                events = ((next_a & ~p1a & _WORD_MASK).bit_count()
                          + (next_b & ~p1b & _WORD_MASK).bit_count()
                          + (next_st & ~p1st & _WORD_MASK).bit_count())
                p1a, p1b, p1st = next_a, next_b, next_st
                latches_e += events * e_latch
            if s2:
                p2a = p2st = _WORD_MASK
                latches_e += l2_secure
            else:
                events = ((alu_out & ~p2a & _WORD_MASK).bit_count()
                          + (store & ~p2st & _WORD_MASK).bit_count())
                p2a, p2st = alu_out, store
                latches_e += events * e_latch
            if s3:
                p3 = _WORD_MASK
                latches_e += l3_secure
            else:
                events = (new_wb & ~p3 & _WORD_MASK).bit_count()
                p3 = new_wb
                latches_e += events * e_latch
            secure_e = sec_table[sec_idx]
            # Reference end_cycle: total = 0.0 + clock + ibus + regfile
            # + funits + dbus + memport + latches + secure, in order.
            total = (e_clock + ibus_e + regfile_e + funits_e + dbus_e
                     + memport_e + latches_e + secure_e)
            t_clock += e_clock
            t_ibus += ibus_e
            t_regfile += regfile_e
            t_funits += funits_e
            t_dbus += dbus_e
            t_memport += memport_e
            t_latches += latches_e
            t_secure += secure_e
            trace_append(total)
            if collect_components:
                comp_append((e_clock, ibus_e, regfile_e, funits_e, dbus_e,
                             memport_e, latches_e, secure_e))
            # ---- state rotation ----
            wb_value = new_wb
            mem_alu = alu_out
            mem_store = store
            idex_a, idex_b, idex_st = next_a, next_b, next_st
            cyc += 1

        # Noise post-pass: the per-cycle schedule is noise-free; the
        # reference adds each draw after the component sum, so folding the
        # same draw sequence in afterwards is bit-identical.
        totals = {"clock": t_clock, "ibus": t_ibus, "regfile": t_regfile,
                  "funits": t_funits, "dbus": t_dbus, "memport": t_memport,
                  "latches": t_latches, "secure": t_secure}
        counts = dict(schedule.counts)
        if tracker.noise_sigma > 0:
            next_noise = tracker._next_noise
            t_noise = 0.0
            for index in range(cyc):
                noise = next_noise()
                cycle_energy[index] = cycle_energy[index] + noise
                t_noise += noise
            totals["noise"] = t_noise
            counts["noise"] = cyc
        tracker.commit_fastpath(
            cycle_energy if keep_trace else [],
            components, totals, counts, cyc)

    def _replay_hooked(self, tracker) -> None:
        """Replay driving the standard tracker hooks (attribution or
        streaming active): same call order and arguments as the reference
        ``Pipeline.step``, with control decisions pre-resolved."""
        records = self._bound.hooked
        steps = self._bound.schedule.steps
        regs = self.regs._regs
        memory = self.memory
        read_word = memory.read_word
        read_byte = memory.read_byte
        write_word = memory.write_word
        write_byte = memory.write_byte
        markers_append = self.markers.append
        begin_cycle = tracker.begin_cycle
        wb_stage = tracker.wb_stage
        mem_stage = tracker.mem_stage
        ex_stage = tracker.ex_stage
        regfile_access = tracker.regfile_access
        fetch = tracker.fetch
        latch = tracker.latch
        end_cycle = tracker.end_cycle

        wb_value = 0
        mem_alu = 0
        mem_store = 0
        idex_a = idex_b = idex_st = 0
        cyc = 0
        for slot in steps:
            (wb_ins, wb_pc, wb_dest, mem_ins, mem_pc, mem_kind,
             ex_ins, ex_pc, alu_fn, a_sel, b_sel, st_sel, ex_link, ctl,
             dec_live, a_reg, a_const, b_reg, b_const, st_reg,
             reads, writes, id_ins, id_pc, fetch_iword, fetch_active,
             fetch_ins, fetch_pc, l0_ins, l0_pc, l0_iword,
             l1_ins, l1_pc, s1, s2, s3) = records[slot]
            begin_cycle()
            # ---- WB ----
            if wb_dest > 0:
                regs[wb_dest] = wb_value
            wb_stage(wb_ins, wb_value, wb_pc)
            # ---- MEM ----
            new_wb = mem_alu
            bus_value = 0
            if mem_kind:
                if mem_kind == _MEM_LW:
                    new_wb = bus_value = read_word(mem_alu)
                elif mem_kind == _MEM_LBU:
                    new_wb = bus_value = read_byte(mem_alu)
                elif mem_kind == _MEM_LB:
                    value = read_byte(mem_alu)
                    if value & 0x80:
                        value |= 0xFFFF_FF00
                    new_wb = bus_value = value
                else:
                    if mem_alu == MARKER_ADDR:
                        markers_append((cyc, mem_store))
                    elif mem_kind == _MEM_SW:
                        write_word(mem_alu, mem_store)
                    else:
                        write_byte(mem_alu, mem_store)
                    bus_value = mem_store
            mem_stage(mem_ins, bus_value, bool(mem_kind), mem_pc)
            # ---- EX ----
            a = idex_a if a_sel == 0 else (mem_alu if a_sel == 1
                                           else wb_value)
            b = idex_b if b_sel == 0 else (mem_alu if b_sel == 1
                                           else wb_value)
            store = idex_st if st_sel == 0 else (mem_alu if st_sel == 1
                                                 else wb_value)
            alu_out = alu_fn(a, b) if alu_fn is not None else 0
            if ex_link >= 0:
                alu_out = ex_link
            if ctl is not None:
                taken_fn, expected = ctl
                if taken_fn is not None:
                    if taken_fn(a, b) != expected:
                        raise ScheduleDivergence(cyc)
                elif a != expected:
                    raise ScheduleDivergence(cyc)
            ex_stage(ex_ins, a, b, alu_out, ex_pc)
            # ---- ID ----
            if dec_live:
                next_a = regs[a_reg] if a_reg >= 0 else a_const
                next_b = regs[b_reg] if b_reg >= 0 else b_const
                next_st = regs[st_reg] if st_reg >= 0 else 0
            else:
                next_a = next_b = next_st = 0
            regfile_access(reads, writes, id_ins, id_pc, wb_ins, wb_pc)
            # ---- IF (hook args are pre-squash, as in the reference) ----
            fetch(fetch_iword, fetch_active, fetch_ins, fetch_pc)
            # ---- latch commit (post-squash contents) ----
            latch(0, (l0_iword,), l0_ins.secure, l0_ins, l0_pc)
            latch(1, (next_a, next_b, next_st), s1, l1_ins, l1_pc)
            latch(2, (alu_out, store), s2, ex_ins, ex_pc)
            latch(3, (new_wb,), s3, mem_ins, mem_pc)
            end_cycle()
            # ---- state rotation ----
            wb_value = new_wb
            mem_alu = alu_out
            mem_store = store
            idex_a, idex_b, idex_st = next_a, next_b, next_st
            cyc += 1


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
