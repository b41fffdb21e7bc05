"""Functional (non-pipelined) reference interpreter.

Executes a program instruction-at-a-time with architectural semantics
only — no pipeline, no hazards, no energy.  It serves two purposes:

* **differential testing**: an independent second implementation of the
  ISA semantics; the test suite runs programs on both executors and
  requires identical architectural results (registers, memory,
  instruction counts per retirement path);
* **fast feedback**: quick program checks in tools (roughly an order of
  magnitude faster than the cycle-accurate pipeline), used by the CLI's
  ``run --functional``.
"""

from __future__ import annotations

from typing import Optional

from ..isa.instructions import Format, Instruction
from ..isa.program import Program
from .alu import alu_execute
from .exceptions import CpuError
from .memory import Memory
from .pipeline import MARKER_ADDR
from .regfile import RegisterFile

_WORD = 0xFFFF_FFFF


def _signed(value: int) -> int:
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


class Interpreter:
    """Straight-line architectural executor."""

    def __init__(self, program: Program, memory: Optional[Memory] = None):
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.memory.load_image(program.data_base, program.data)
        self.regs = RegisterFile()
        self.pc = program.entry
        self.executed = 0
        self.halted = False
        self.markers: list[tuple[int, int]] = []

    def step(self) -> None:
        if self.halted:
            return
        index = (self.pc - self.program.text_base) >> 2
        if not 0 <= index < len(self.program.text):
            raise CpuError(f"pc out of text segment: 0x{self.pc:08x}")
        ins = self.program.text[index]
        self.pc = self._execute(ins, self.pc)
        self.executed += 1

    def _execute(self, ins: Instruction, pc: int) -> int:
        spec = ins.spec
        regs = self.regs
        next_pc = (pc + 4) & _WORD

        if spec.halts:
            self.halted = True
            return next_pc
        if spec.fmt == Format.NONE:  # nop
            return next_pc

        if spec.is_load:
            address = (regs.read(ins.rs) + (ins.imm or 0)) & _WORD
            if spec.width == 4:
                value = self.memory.read_word(address)
            else:
                value = self.memory.read_byte(address)
                if spec.signed_load and value & 0x80:
                    value |= 0xFFFF_FF00
            regs.write(ins.rt, value)
            return next_pc
        if spec.is_store:
            address = (regs.read(ins.rs) + (ins.imm or 0)) & _WORD
            value = regs.read(ins.rt)
            if address == MARKER_ADDR:
                self.markers.append((self.executed, value))
            elif spec.width == 4:
                self.memory.write_word(address, value)
            else:
                self.memory.write_byte(address, value)
            return next_pc

        if spec.is_branch:
            a = regs.read(ins.rs)
            if ins.op == "beq":
                taken = a == regs.read(ins.rt)
            elif ins.op == "bne":
                taken = a != regs.read(ins.rt)
            elif ins.op == "blez":
                taken = _signed(a) <= 0
            elif ins.op == "bgtz":
                taken = _signed(a) > 0
            elif ins.op == "bltz":
                taken = _signed(a) < 0
            else:  # bgez
                taken = _signed(a) >= 0
            return ins.target if taken else next_pc

        if spec.is_jump:
            if ins.op == "j":
                return ins.target
            if ins.op == "jal":
                regs.write(31, next_pc)
                return ins.target
            if ins.op == "jr":
                return regs.read(ins.rs)
            # jalr
            target = regs.read(ins.rs)
            regs.write(ins.rd, next_pc)
            return target

        fmt = spec.fmt
        if fmt == Format.R3:
            result = alu_execute(spec.alu, regs.read(ins.rs),
                                 regs.read(ins.rt))
            regs.write(ins.rd, result)
        elif fmt == Format.SHIFT:
            regs.write(ins.rd, alu_execute(spec.alu, regs.read(ins.rt),
                                           ins.shamt))
        elif fmt == Format.SHIFT_V:
            regs.write(ins.rd, alu_execute(spec.alu, regs.read(ins.rt),
                                           regs.read(ins.rs) & 31))
        elif fmt == Format.ARITH_I:
            imm = ins.imm if ins.imm is not None else 0
            operand = imm & 0xFFFF if spec.unsigned_imm else imm & _WORD
            regs.write(ins.rt, alu_execute(spec.alu, regs.read(ins.rs),
                                           operand))
        elif fmt == Format.LUI:
            regs.write(ins.rt, (ins.imm & 0xFFFF) << 16)
        else:  # pragma: no cover - formats above are exhaustive
            raise CpuError(f"cannot interpret {ins}")
        return next_pc

    def run(self, max_instructions: int = 50_000_000) -> int:
        while not self.halted:
            if self.executed >= max_instructions:
                raise CpuError(
                    f"exceeded max_instructions={max_instructions} "
                    f"(pc=0x{self.pc:08x})")
            self.step()
        return self.executed


def run_functional(program: Program,
                   inputs: Optional[dict[str, list[int]]] = None,
                   max_instructions: int = 50_000_000) -> Interpreter:
    """Load, inject inputs, run to halt; returns the interpreter."""
    interpreter = Interpreter(program)
    if inputs:
        for symbol, words in inputs.items():
            interpreter.memory.write_words(program.address_of(symbol), words)
    interpreter.run(max_instructions=max_instructions)
    return interpreter
