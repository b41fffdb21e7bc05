"""Instruction set definition for the secure-augmented embedded core.

The base ISA is the integer subset of a MIPS-like/SimpleScalar instruction
set.  Following the paper (Section 4.2), every instruction additionally
carries a *secure bit*: when set, the datapath activates the complementary
rails and pre-charged buses so the instruction's switching energy becomes
data-independent.  The paper names four canonical secure instruction classes
(secure load/store for assignment, secure XOR, secure shift, secure table
indexing); the architecture itself allows the secure bit on any opcode, which
is what the whole-program dual-rail baseline ("all instructions secure")
exercises.

Mnemonics accepted by the assembler:

* the paper's named forms: ``slw``, ``ssw``, ``sxor``, ``ssll`` ... and the
  secure-indexed load ``silw`` (S-box lookup with aligned table base and
  inverted-index propagation);
* the generic prefix form ``s.<op>`` (e.g. ``s.addu``) that sets the secure
  bit on any instruction — used by the naive whole-program policy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from .registers import register_name


class Format(enum.Enum):
    """Operand/encoding format of an opcode."""

    R3 = "r3"            # op rd, rs, rt
    SHIFT = "shift"      # op rd, rt, shamt
    SHIFT_V = "shiftv"   # op rd, rt, rs   (variable shift)
    ARITH_I = "arith_i"  # op rt, rs, imm
    LOAD = "load"        # op rt, off(rs)
    STORE = "store"      # op rt, off(rs)
    BRANCH2 = "branch2"  # op rs, rt, label
    BRANCH1 = "branch1"  # op rs, label
    JUMP = "jump"        # op label
    JR = "jr"            # op rs
    JALR = "jalr"        # op rd, rs
    LUI = "lui"          # op rt, imm
    NONE = "none"        # nop / halt


class AluOp(enum.Enum):
    """Operation performed in the EX stage."""

    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOR = "nor"
    SLT = "slt"
    SLTU = "sltu"
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    LUI = "lui"
    PASS_A = "pass_a"
    NONE = "none"


@dataclass(frozen=True)
class OpSpec:
    """Static description of one opcode."""

    name: str
    fmt: Format
    alu: AluOp = AluOp.NONE
    #: True if the instruction reads memory (MEM stage load).
    is_load: bool = False
    #: True if the instruction writes memory (MEM stage store).
    is_store: bool = False
    #: Number of bytes transferred for loads/stores.
    width: int = 4
    #: True for loads that sign-extend sub-word data.
    signed_load: bool = False
    is_branch: bool = False
    is_jump: bool = False
    #: True if the instruction belongs to one of the paper's four canonical
    #: secure classes (assignment load/store, XOR, shift, indexing).
    canonical_secure: bool = False
    #: True for the secure-indexed load used for S-box lookups.
    is_indexing: bool = False
    #: True if the immediate is treated as unsigned (zero-extended).
    unsigned_imm: bool = False
    halts: bool = False


def _specs() -> dict[str, OpSpec]:
    table: dict[str, OpSpec] = {}

    def add(spec: OpSpec) -> None:
        if spec.name in table:
            raise ValueError(f"duplicate opcode {spec.name}")
        table[spec.name] = spec

    # Three-register arithmetic / logic.
    for name, alu in (
        ("add", AluOp.ADD), ("addu", AluOp.ADD),
        ("sub", AluOp.SUB), ("subu", AluOp.SUB),
        ("and", AluOp.AND), ("or", AluOp.OR),
        ("nor", AluOp.NOR),
        ("slt", AluOp.SLT), ("sltu", AluOp.SLTU),
    ):
        add(OpSpec(name, Format.R3, alu))
    add(OpSpec("xor", Format.R3, AluOp.XOR, canonical_secure=True))

    # Shifts (canonical secure class).
    add(OpSpec("sll", Format.SHIFT, AluOp.SLL, canonical_secure=True))
    add(OpSpec("srl", Format.SHIFT, AluOp.SRL, canonical_secure=True))
    add(OpSpec("sra", Format.SHIFT, AluOp.SRA, canonical_secure=True))
    add(OpSpec("sllv", Format.SHIFT_V, AluOp.SLL, canonical_secure=True))
    add(OpSpec("srlv", Format.SHIFT_V, AluOp.SRL, canonical_secure=True))
    add(OpSpec("srav", Format.SHIFT_V, AluOp.SRA, canonical_secure=True))

    # Immediate arithmetic / logic.
    add(OpSpec("addi", Format.ARITH_I, AluOp.ADD))
    add(OpSpec("addiu", Format.ARITH_I, AluOp.ADD))
    add(OpSpec("andi", Format.ARITH_I, AluOp.AND, unsigned_imm=True))
    add(OpSpec("ori", Format.ARITH_I, AluOp.OR, unsigned_imm=True))
    add(OpSpec("xori", Format.ARITH_I, AluOp.XOR, unsigned_imm=True,
               canonical_secure=True))
    add(OpSpec("slti", Format.ARITH_I, AluOp.SLT))
    add(OpSpec("sltiu", Format.ARITH_I, AluOp.SLTU))
    add(OpSpec("lui", Format.LUI, AluOp.LUI))

    # Memory (assignment = load + store is a canonical secure class).
    add(OpSpec("lw", Format.LOAD, AluOp.ADD, is_load=True, width=4,
               canonical_secure=True))
    add(OpSpec("lb", Format.LOAD, AluOp.ADD, is_load=True, width=1,
               signed_load=True, canonical_secure=True))
    add(OpSpec("lbu", Format.LOAD, AluOp.ADD, is_load=True, width=1,
               canonical_secure=True))
    add(OpSpec("sw", Format.STORE, AluOp.ADD, is_store=True, width=4,
               canonical_secure=True))
    add(OpSpec("sb", Format.STORE, AluOp.ADD, is_store=True, width=1,
               canonical_secure=True))
    # Secure-indexed load: behaves like lw but additionally masks the
    # offset/index-dependent address-generation energy (aligned table base,
    # inverted index propagated alongside).  Only meaningful with the secure
    # bit set; the assembler's `silw` sets it automatically.
    add(OpSpec("lwx", Format.LOAD, AluOp.ADD, is_load=True, width=4,
               canonical_secure=True, is_indexing=True))

    # Branches (resolved in EX).
    add(OpSpec("beq", Format.BRANCH2, AluOp.SUB, is_branch=True))
    add(OpSpec("bne", Format.BRANCH2, AluOp.SUB, is_branch=True))
    add(OpSpec("blez", Format.BRANCH1, AluOp.PASS_A, is_branch=True))
    add(OpSpec("bgtz", Format.BRANCH1, AluOp.PASS_A, is_branch=True))
    add(OpSpec("bltz", Format.BRANCH1, AluOp.PASS_A, is_branch=True))
    add(OpSpec("bgez", Format.BRANCH1, AluOp.PASS_A, is_branch=True))

    # Jumps.
    add(OpSpec("j", Format.JUMP, is_jump=True))
    add(OpSpec("jal", Format.JUMP, is_jump=True))
    add(OpSpec("jr", Format.JR, AluOp.PASS_A, is_jump=True))
    add(OpSpec("jalr", Format.JALR, AluOp.PASS_A, is_jump=True))

    # Specials.
    add(OpSpec("nop", Format.NONE))
    add(OpSpec("halt", Format.NONE, halts=True))
    return table


#: All opcodes, keyed by base mnemonic (secure forms are not separate opcodes;
#: they are the same opcode with the secure bit set).
OPCODES: dict[str, OpSpec] = _specs()

#: Paper-named secure mnemonics -> (base opcode, secure bit implied).
SECURE_ALIASES: dict[str, str] = {
    "slw": "lw",
    "ssw": "sw",
    "slb": "lb",
    "slbu": "lbu",
    "ssb": "sb",
    "sxor": "xor",
    "sxori": "xori",
    "ssll": "sll",
    "ssrl": "srl",
    "ssra": "sra",
    "ssllv": "sllv",
    "ssrlv": "srlv",
    "ssrav": "srav",
    "silw": "lwx",
}

#: Reverse map for disassembly of secure instructions.
_SECURE_NAMES: dict[str, str] = {base: alias for alias, base in SECURE_ALIASES.items()}


class InstructionError(ValueError):
    """Raised when an instruction is malformed."""


@dataclass
class Instruction:
    """One machine instruction.

    ``rd``/``rs``/``rt`` follow MIPS field conventions.  ``target`` holds a
    label name until link time, after which it is an absolute word address
    (branches/jumps) resolved by the assembler.
    """

    op: str
    rd: Optional[int] = None
    rs: Optional[int] = None
    rt: Optional[int] = None
    imm: Optional[int] = None
    shamt: Optional[int] = None
    target: Optional[Union[str, int]] = None
    secure: bool = False
    #: Source line the instruction came from (for diagnostics/traces).
    line: Optional[int] = None
    #: Optional free-form provenance tag (e.g. the IR op that generated it).
    tag: Optional[str] = None
    #: High-level *source* line (DWARF-style ``.loc`` debug info threaded
    #: by the compiler through the assembler), distinct from ``line``,
    #: which is the assembly line.  None when no debug info was emitted.
    source_line: Optional[int] = field(default=None, compare=False)
    #: True if the instruction belongs to the program slice the masking
    #: pass secured (slice membership, not the per-instruction secure bit).
    sliced: bool = field(default=False, compare=False)
    spec: OpSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        spec = OPCODES.get(self.op)
        if spec is None:
            raise InstructionError(f"unknown opcode {self.op!r}")
        self.spec = spec
        # dest/sources are consulted every pipeline cycle; cache them.
        self._dest = self._compute_dest()
        self._sources = self._compute_sources()

    def with_secure(self, secure: bool = True) -> "Instruction":
        """Return a copy of this instruction with the secure bit set/cleared."""
        clone = replace(self)
        clone.secure = secure
        return clone

    @property
    def dest(self) -> Optional[int]:
        """Destination register written in WB, or None."""
        return self._dest

    @property
    def sources(self) -> tuple[int, ...]:
        """Register numbers read by this instruction."""
        return self._sources

    def _compute_dest(self) -> Optional[int]:
        spec = self.spec
        if spec.halts or spec.is_store or spec.is_branch:
            return None
        if self.op == "jal":
            return 31
        if self.op == "jalr":
            return self.rd
        if self.op in ("j", "jr"):
            return None
        if spec.fmt in (Format.R3, Format.SHIFT, Format.SHIFT_V, Format.JALR):
            return self.rd
        if spec.fmt in (Format.ARITH_I, Format.LOAD, Format.LUI):
            return self.rt
        return None

    def _compute_sources(self) -> tuple[int, ...]:
        spec = self.spec
        fmt = spec.fmt
        if fmt == Format.R3:
            return (self.rs, self.rt)
        if fmt == Format.SHIFT:
            return (self.rt,)
        if fmt == Format.SHIFT_V:
            return (self.rt, self.rs)
        if fmt in (Format.ARITH_I, Format.LOAD, Format.LUI):
            return (self.rs,) if self.rs is not None else ()
        if fmt == Format.STORE:
            return (self.rs, self.rt)
        if fmt == Format.BRANCH2:
            return (self.rs, self.rt)
        if fmt == Format.BRANCH1:
            return (self.rs,)
        if fmt in (Format.JR, Format.JALR):
            return (self.rs,)
        return ()

    @property
    def mnemonic(self) -> str:
        """Assembler spelling, including the secure prefix when set."""
        if not self.secure:
            return self.op
        return _SECURE_NAMES.get(self.op, "s." + self.op)

    def __str__(self) -> str:  # pragma: no cover - formatting convenience
        return format_instruction(self)


def format_instruction(ins: Instruction) -> str:
    """Render an instruction back to assembler syntax."""
    spec = ins.spec
    name = ins.mnemonic
    fmt = spec.fmt
    r = register_name
    if fmt == Format.R3:
        return f"{name} {r(ins.rd)},{r(ins.rs)},{r(ins.rt)}"
    if fmt == Format.SHIFT:
        return f"{name} {r(ins.rd)},{r(ins.rt)},{ins.shamt}"
    if fmt == Format.SHIFT_V:
        return f"{name} {r(ins.rd)},{r(ins.rt)},{r(ins.rs)}"
    if fmt == Format.ARITH_I:
        return f"{name} {r(ins.rt)},{r(ins.rs)},{ins.imm}"
    if fmt in (Format.LOAD, Format.STORE):
        return f"{name} {r(ins.rt)},{ins.imm}({r(ins.rs)})"
    if fmt == Format.BRANCH2:
        return f"{name} {r(ins.rs)},{r(ins.rt)},{ins.target}"
    if fmt == Format.BRANCH1:
        return f"{name} {r(ins.rs)},{ins.target}"
    if fmt == Format.JUMP:
        return f"{name} {ins.target}"
    if fmt == Format.JR:
        return f"{name} {r(ins.rs)}"
    if fmt == Format.JALR:
        return f"{name} {r(ins.rd)},{r(ins.rs)}"
    if fmt == Format.LUI:
        return f"{name} {r(ins.rt)},{ins.imm}"
    return name
