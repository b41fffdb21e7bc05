"""Five-stage in-order pipeline (IF, ID, EX, MEM, WB).

This is the paper's target micro-architecture: a simple five-stage pipelined
32-bit embedded core (ARM7-TDMI-class) running the integer SimpleScalar-like
ISA, augmented with the secure bit.  Features:

* full forwarding (EX/MEM -> EX and MEM/WB -> EX),
* one-cycle load-use interlock,
* branches and jumps resolved in EX with a two-cycle squash on redirect,
* write-before-read register file (WB writes are visible to ID in the same
  cycle).

Timing is *data-independent by construction* — stalls and flushes depend only
on the instruction stream, never on operand values — so two runs of the same
program on different data are cycle-aligned.  That property is what makes the
differential energy traces of the paper (Figs. 7-11) well-defined.

Every cycle the pipeline reports its activity to an optional energy tracker
(see :mod:`repro.energy.tracker`):

* the fetched instruction word (instruction bus),
* register-file port activity,
* EX-stage operand/result values plus the functional-unit class,
* MEM-stage data-bus value and access type,
* the contents latched into each pipeline register, with the secure bit of
  the instruction occupying it,
* the WB value (for the secure dummy-capacitance termination).
"""

from __future__ import annotations

from typing import Optional

from ..isa.encoding import encode
from ..isa.instructions import Format, Instruction
from ..isa.program import Program
from .alu import alu_execute
from .exceptions import CycleLimitExceeded
from .memory import Memory
from .regfile import RegisterFile

_WORD_MASK = 0xFFFF_FFFF

#: Stores to this byte address are phase markers: the pipeline records
#: (cycle, value) pairs instead of touching RAM.  Programs use markers to
#: delimit DES phases (rounds, key permutation, ...) so experiments can
#: window their energy traces precisely.
MARKER_ADDR = 0x0000_FF00

#: Shared bubble instruction occupying squashed/stalled slots.
BUBBLE = Instruction("nop")


def _signed(value: int) -> int:
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


class _IFID:
    __slots__ = ("ins", "iword", "pc")

    def __init__(self, ins: Instruction = BUBBLE, iword: int = 0,
                 pc: int = -1):
        self.ins = ins
        self.iword = iword
        self.pc = pc


class _IDEX:
    __slots__ = ("ins", "a", "b", "a_src", "b_src", "store_val", "store_src",
                 "pc")

    def __init__(self, ins: Instruction = BUBBLE):
        self.ins = ins
        self.a = 0
        self.b = 0
        self.a_src: Optional[int] = None
        self.b_src: Optional[int] = None
        self.store_val = 0
        self.store_src: Optional[int] = None
        self.pc = -1


class _EXMEM:
    __slots__ = ("ins", "alu_out", "store_val", "pc")

    def __init__(self, ins: Instruction = BUBBLE, alu_out: int = 0,
                 store_val: int = 0, pc: int = -1):
        self.ins = ins
        self.alu_out = alu_out
        self.store_val = store_val
        self.pc = pc


class _MEMWB:
    __slots__ = ("ins", "value", "pc")

    def __init__(self, ins: Instruction = BUBBLE, value: int = 0,
                 pc: int = -1):
        self.ins = ins
        self.value = value
        self.pc = pc


def instruction_words(program: Program) -> tuple[int, ...]:
    """The program's text as 32-bit instruction words, encoded once.

    The fetch bus energy model needs each word's bit pattern every
    cycle.  The words are cached on the program instance (as
    :func:`repro.machine.fastpath.program_digest` caches its digest), so
    every later pipeline over the same program skips the encode.
    """
    words = vars(program).get("_encoded_text")
    if words is None:
        words = tuple(encode(ins) & _WORD_MASK for ins in program.text)
        program._encoded_text = words
    return words


class Pipeline:
    """Cycle-accurate five-stage pipeline over a loaded program image."""

    def __init__(self, program: Program, memory: Optional[Memory] = None,
                 tracker=None, operand_isolation: bool = True,
                 collect_mix: bool = False):
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.memory.load_image(program.data_base, program.data)
        self.regs = RegisterFile()
        self.tracker = tracker
        #: Gate ID-stage reads of registers the forwarding network will
        #: supply (see _decode).  Disabling this reproduces the stale-
        #: register side channel the ablation-isolation experiment shows.
        self.operand_isolation = operand_isolation

        self._text = program.text
        self._text_base = program.text_base
        self._iwords = instruction_words(program)

        self.pc = program.entry
        self.if_id = _IFID()
        self.id_ex = _IDEX()
        self.ex_mem = _EXMEM()
        self.mem_wb = _MEMWB()

        self.cycle = 0
        self.retired = 0
        self.halted = False
        self._halt_in_flight = False
        #: (cycle, value) pairs recorded by stores to MARKER_ADDR.
        self.markers: list[tuple[int, int]] = []
        # -- performance counters --
        self.stall_cycles = 0
        self.squashed_instructions = 0
        self.branches_executed = 0
        self.branches_taken = 0
        self.loads_executed = 0
        self.stores_executed = 0
        self.secure_retired = 0
        #: Dynamic instruction mix, (op, secure) -> retired count.  Only
        #: collected when requested (the observability layer asks for it);
        #: the default path pays a single attribute test per retirement.
        self._mix: Optional[dict[tuple[str, bool], int]] = \
            {} if collect_mix else None

    @property
    def stats(self) -> dict[str, int | float]:
        """Performance-counter snapshot."""
        return {
            "cycles": self.cycle,
            "retired": self.retired,
            "cpi": self.cycle / max(1, self.retired),
            "stall_cycles": self.stall_cycles,
            "squashed_instructions": self.squashed_instructions,
            "branches_executed": self.branches_executed,
            "branches_taken": self.branches_taken,
            "loads_executed": self.loads_executed,
            "stores_executed": self.stores_executed,
            "secure_retired": self.secure_retired,
            "secure_fraction_dynamic":
                self.secure_retired / max(1, self.retired),
        }

    @property
    def opcode_mix(self) -> dict[tuple[str, bool], int]:
        """Retired-instruction mix as ``(op, secure) -> count``.

        Empty unless the pipeline was built with ``collect_mix=True``.
        """
        return dict(self._mix) if self._mix is not None else {}

    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the machine by one clock cycle."""
        if self.halted:
            return
        tracker = self.tracker
        if tracker is not None:
            tracker.begin_cycle()

        regs = self.regs
        mem_wb = self.mem_wb
        ex_mem = self.ex_mem
        id_ex = self.id_ex
        if_id = self.if_id

        # ---------------- WB ----------------
        wb_ins = mem_wb.ins
        wb_dest = wb_ins.dest
        reg_writes = 0
        if wb_dest is not None:
            regs.write(wb_dest, mem_wb.value)
            reg_writes = 1
        if wb_ins.spec.halts:
            self.halted = True
        if wb_ins is not BUBBLE:
            self.retired += 1
            if self._mix is not None:
                mix_key = (wb_ins.op, wb_ins.secure)
                self._mix[mix_key] = self._mix.get(mix_key, 0) + 1
            if wb_ins.secure:
                self.secure_retired += 1
            if wb_ins.spec.is_load:
                self.loads_executed += 1
            elif wb_ins.spec.is_store:
                self.stores_executed += 1
        if tracker is not None:
            tracker.wb_stage(wb_ins, mem_wb.value, mem_wb.pc)

        # ---------------- MEM ----------------
        mem_ins = ex_mem.ins
        mem_spec = mem_ins.spec
        new_mem_wb = _MEMWB(mem_ins, ex_mem.alu_out, ex_mem.pc)
        bus_value = 0
        bus_active = False
        if mem_spec.is_load:
            address = ex_mem.alu_out
            if mem_spec.width == 4:
                value = self.memory.read_word(address)
            else:
                value = self.memory.read_byte(address)
                if mem_spec.signed_load and value & 0x80:
                    value |= 0xFFFF_FF00
            new_mem_wb.value = value
            bus_value = value
            bus_active = True
        elif mem_spec.is_store:
            address = ex_mem.alu_out
            if address == MARKER_ADDR:
                self.markers.append((self.cycle, ex_mem.store_val))
            elif mem_spec.width == 4:
                self.memory.write_word(address, ex_mem.store_val)
            else:
                self.memory.write_byte(address, ex_mem.store_val)
            bus_value = ex_mem.store_val
            bus_active = True
        if tracker is not None:
            tracker.mem_stage(mem_ins, bus_value, bus_active, ex_mem.pc)

        # ---------------- EX ----------------
        ex_ins = id_ex.ins
        ex_spec = ex_ins.spec
        a, b = id_ex.a, id_ex.b
        store_val = id_ex.store_val
        # Forwarding: EX/MEM result has priority over MEM/WB.
        fwd_mem_dest = mem_ins.dest if not mem_spec.is_load else None
        fwd_wb_dest = wb_dest
        if id_ex.a_src is not None and id_ex.a_src != 0:
            if id_ex.a_src == fwd_mem_dest:
                a = ex_mem.alu_out
            elif id_ex.a_src == fwd_wb_dest:
                a = mem_wb.value
        if id_ex.b_src is not None and id_ex.b_src != 0:
            if id_ex.b_src == fwd_mem_dest:
                b = ex_mem.alu_out
            elif id_ex.b_src == fwd_wb_dest:
                b = mem_wb.value
        if id_ex.store_src is not None and id_ex.store_src != 0:
            if id_ex.store_src == fwd_mem_dest:
                store_val = ex_mem.alu_out
            elif id_ex.store_src == fwd_wb_dest:
                store_val = mem_wb.value
        # Loads forwarded from MEM/WB only (load-use interlock guarantees the
        # producing load is at least two stages ahead).

        alu_out = alu_execute(ex_spec.alu, a, b)
        if ex_ins.op in ("jal", "jalr"):
            alu_out = (id_ex.pc + 4) & _WORD_MASK

        redirect: Optional[int] = None
        if ex_spec.is_branch:
            self.branches_executed += 1
            if self._branch_taken(ex_ins.op, a, b):
                self.branches_taken += 1
                redirect = ex_ins.target
        elif ex_spec.is_jump:
            if ex_ins.op in ("j", "jal"):
                redirect = ex_ins.target
            else:  # jr / jalr
                redirect = a
        if tracker is not None:
            tracker.ex_stage(ex_ins, a, b, alu_out, id_ex.pc)

        new_ex_mem = _EXMEM(ex_ins, alu_out, store_val, id_ex.pc)

        # ---------------- ID ----------------
        id_ins = if_id.ins
        stall = False
        # Load-use interlock: the instruction currently in EX is a load whose
        # destination is a source of the instruction being decoded.
        if ex_spec.is_load:
            load_dest = ex_ins.dest
            if load_dest is not None and load_dest != 0 \
                    and load_dest in id_ins.sources:
                stall = True

        reg_reads = 0
        if stall:
            self.stall_cycles += 1
            new_id_ex = _IDEX(BUBBLE)
        else:
            new_id_ex, reg_reads = self._decode(id_ins, if_id.pc,
                                                ex_ins.dest, mem_ins.dest)
        if tracker is not None:
            # Port attribution: reads belong to the decoding instruction,
            # the write to the retiring one.
            tracker.regfile_access(reg_reads, reg_writes,
                                   id_ins, if_id.pc, wb_ins, mem_wb.pc)

        # ---------------- IF ----------------
        fetch_active = False
        iword = 0
        if stall:
            new_if_id = if_id  # hold
            next_pc = self.pc
        elif self._halt_in_flight:
            new_if_id = _IFID()
            next_pc = self.pc
        else:
            index = (self.pc - self._text_base) >> 2
            if 0 <= index < len(self._text):
                ins = self._text[index]
                iword = self._iwords[index]
                new_if_id = _IFID(ins, iword, self.pc)
                fetch_active = True
                if ins.spec.halts:
                    self._halt_in_flight = True
            else:
                # Fetch past the text segment: deliver a bubble.  This only
                # happens transiently in branch shadows; a program that truly
                # runs off the end never retires anything and hits the
                # caller's cycle limit.
                new_if_id = _IFID()
            next_pc = (self.pc + 4) & _WORD_MASK
        if tracker is not None:
            tracker.fetch(iword, fetch_active, new_if_id.ins, new_if_id.pc)

        # ---------------- redirect / squash ----------------
        if redirect is not None:
            next_pc = redirect
            if new_if_id.ins is not BUBBLE:
                self.squashed_instructions += 1
            if new_id_ex.ins is not BUBBLE:
                self.squashed_instructions += 1
            new_if_id = _IFID()
            new_id_ex = _IDEX(BUBBLE)
            # A taken control transfer may re-enter the text segment, so
            # resume fetching even if a halt was (speculatively) fetched.
            self._halt_in_flight = False

        # ---------------- latch commit ----------------
        if tracker is not None:
            tracker.latch(0, (new_if_id.iword,), new_if_id.ins.secure,
                          new_if_id.ins, new_if_id.pc)
            tracker.latch(1, (new_id_ex.a, new_id_ex.b,
                              new_id_ex.store_val), new_id_ex.ins.secure,
                          new_id_ex.ins, new_id_ex.pc)
            tracker.latch(2, (new_ex_mem.alu_out, new_ex_mem.store_val),
                          new_ex_mem.ins.secure,
                          new_ex_mem.ins, new_ex_mem.pc)
            tracker.latch(3, (new_mem_wb.value,), new_mem_wb.ins.secure,
                          new_mem_wb.ins, new_mem_wb.pc)
            tracker.end_cycle()

        self.if_id = new_if_id
        self.id_ex = new_id_ex
        self.ex_mem = new_ex_mem
        self.mem_wb = new_mem_wb
        self.pc = next_pc
        self.cycle += 1

    # ------------------------------------------------------------------

    def _decode(self, ins: Instruction, pc: int, ex_dest, mem_dest):
        """ID stage: read registers and select EX operands.

        Operand isolation: when a source register's value will be supplied
        by the forwarding network (its producer currently sits in EX or
        MEM), the regfile read is suppressed and a zero is latched instead.
        Besides saving the port energy, this prevents the *stale* register
        content — which may be a sensitive value left by an earlier secure
        instruction that reused the register — from transiting the ID/EX
        pipeline latch of an insecure instruction.  The gating control
        depends only on register numbers, so it is data-independent.
        """
        latch = _IDEX(ins)
        latch.pc = pc
        spec = ins.spec
        fmt = spec.fmt
        regs = self.regs
        reads = 0
        isolate = self.operand_isolation

        def read(number: int) -> int:
            nonlocal reads
            if isolate and number and (number == ex_dest
                                       or number == mem_dest):
                return 0  # forwarded at EX; regfile port gated off
            reads += 1
            return regs.read(number)

        if fmt == Format.R3:
            latch.a, latch.a_src = read(ins.rs), ins.rs
            latch.b, latch.b_src = read(ins.rt), ins.rt
        elif fmt == Format.SHIFT:
            latch.a, latch.a_src = read(ins.rt), ins.rt
            latch.b = ins.shamt
        elif fmt == Format.SHIFT_V:
            latch.a, latch.a_src = read(ins.rt), ins.rt
            latch.b, latch.b_src = read(ins.rs), ins.rs
        elif fmt == Format.ARITH_I:
            latch.a, latch.a_src = read(ins.rs), ins.rs
            imm = ins.imm if ins.imm is not None else 0
            # andi/ori/xori zero-extend; the rest sign-extend (Python's mask
            # of a negative int already yields the two's-complement pattern).
            latch.b = imm & 0xFFFF if spec.unsigned_imm else imm & _WORD_MASK
        elif fmt == Format.LOAD:
            latch.a, latch.a_src = read(ins.rs), ins.rs
            latch.b = (ins.imm or 0) & _WORD_MASK
        elif fmt == Format.STORE:
            latch.a, latch.a_src = read(ins.rs), ins.rs
            latch.b = (ins.imm or 0) & _WORD_MASK
            latch.store_val, latch.store_src = read(ins.rt), ins.rt
        elif fmt == Format.BRANCH2:
            latch.a, latch.a_src = read(ins.rs), ins.rs
            latch.b, latch.b_src = read(ins.rt), ins.rt
        elif fmt == Format.BRANCH1:
            latch.a, latch.a_src = read(ins.rs), ins.rs
        elif fmt in (Format.JR, Format.JALR):
            latch.a, latch.a_src = read(ins.rs), ins.rs
        elif fmt == Format.LUI:
            latch.b = ins.imm & 0xFFFF
        return latch, reads

    @staticmethod
    def _branch_taken(op: str, a: int, b: int) -> bool:
        if op == "beq":
            return a == b
        if op == "bne":
            return a != b
        sa = _signed(a)
        if op == "blez":
            return sa <= 0
        if op == "bgtz":
            return sa > 0
        if op == "bltz":
            return sa < 0
        return sa >= 0  # bgez

    # ------------------------------------------------------------------

    def run(self, max_cycles: int = 50_000_000) -> int:
        """Run until halt; returns the cycle count."""
        step = self.step
        while not self.halted:
            if self.cycle >= max_cycles:
                raise CycleLimitExceeded(self.pc, self.cycle, max_cycles)
            step()
        return self.cycle
