"""Three-address intermediate representation.

The IR is a flat list of instructions over virtual temporaries.  Scalars
live in memory (matching the paper's Figure 4 code, which reloads ``i``
from memory every iteration); temporaries only carry values within a
statement, which keeps register allocation trivial and makes the def-use
relation the forward-slicing pass consumes easy to compute.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Union


@dataclass(frozen=True)
class Temp:
    """A virtual register."""

    id: int

    def __repr__(self) -> str:
        return f"t{self.id}"


class BinOp(enum.Enum):
    ADD = "add"
    SUB = "sub"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOR = "nor"
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    SLT = "slt"
    SLTU = "sltu"



@dataclass
class IRInstr:
    """Base class; ``line`` tracks the source line for diagnostics."""

    line: int = field(default=0, kw_only=True)
    #: True for instructions inside an ``__insecure`` block: taint still
    #: flows through them, but they never become secure instructions.
    declassified: bool = field(default=False, kw_only=True)


@dataclass
class Const(IRInstr):
    dest: Temp = None
    value: int = 0


@dataclass
class Bin(IRInstr):
    dest: Temp = None
    op: BinOp = BinOp.ADD
    a: Temp = None
    b: Temp = None


@dataclass
class LoadVar(IRInstr):
    dest: Temp = None
    var: str = ""


@dataclass
class StoreVar(IRInstr):
    var: str = ""
    src: Temp = None


@dataclass
class LoadArr(IRInstr):
    dest: Temp = None
    array: str = ""
    index: Temp = None
    #: Set by the slicer: the index is derived from secure data, so the
    #: lookup must use the secure-indexed load (aligned table).
    secure_index: bool = field(default=False, kw_only=True)


@dataclass
class StoreArr(IRInstr):
    array: str = ""
    index: Temp = None
    src: Temp = None


@dataclass
class Label(IRInstr):
    name: str = ""


@dataclass
class Jump(IRInstr):
    target: str = ""


@dataclass
class BranchZero(IRInstr):
    """Branch to ``target`` when ``cond`` == 0."""

    cond: Temp = None
    target: str = ""


@dataclass
class MarkerOp(IRInstr):
    src: Temp = None


@dataclass
class Call(IRInstr):
    """Call a SecureC function.  Arguments and the return value travel
    through the function's static argument/return variables (``f$p0``,
    ``f$ret``), so the taint analysis needs no special call handling."""

    name: str = ""


@dataclass
class FuncBegin(IRInstr):
    """Function entry point (label + return-address save)."""

    name: str = ""


@dataclass
class ReturnOp(IRInstr):
    """Function return (the value was stored to ``name$ret`` already)."""

    name: str = ""


@dataclass
class HaltOp(IRInstr):
    """End of the main body (separates it from function bodies)."""


Instr = Union[Const, Bin, LoadVar, StoreVar, LoadArr, StoreArr, Label, Jump,
              BranchZero, MarkerOp, Call, FuncBegin, ReturnOp, HaltOp]


def uses_of(instr: Instr) -> tuple[Temp, ...]:
    """The temps used by an instruction."""
    if isinstance(instr, Bin):
        return (instr.a, instr.b)
    if isinstance(instr, StoreVar):
        return (instr.src,)
    if isinstance(instr, LoadArr):
        return (instr.index,)
    if isinstance(instr, StoreArr):
        return (instr.index, instr.src)
    if isinstance(instr, BranchZero):
        return (instr.cond,)
    if isinstance(instr, MarkerOp):
        return (instr.src,)
    return ()
