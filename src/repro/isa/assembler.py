"""Two-pass assembler for the secure-augmented MIPS-like ISA.

Accepted syntax (a superset of the paper's Figure 4 listing style):

* comments start with ``#`` or ``;``
* labels: ``name:`` (may share a line with an instruction)
* directives: ``.text``, ``.data``, ``.word v, ...``, ``.byte v, ...``,
  ``.space n``, ``.align n``, ``.globl name`` (accepted, ignored), and the
  DWARF-style debug directive ``.loc line [sliced]``: subsequent text
  instructions carry ``source_line=line`` (the high-level source line) and
  ``sliced`` (slice membership) until the next ``.loc``; ``.loc 0 0``
  clears the state
* memory operands: ``off($reg)``, ``($reg)``, ``label``, ``label+off``
* secure mnemonics: ``slw/ssw/sxor/ssll/.../silw`` and the generic ``s.<op>``

Pass 1 expands pseudo-instructions and lays out text and data; pass 2
resolves label references (branch/jump targets and ``%hi``/``%lo`` address
halves) against the symbol table.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .instructions import (Format, Instruction, InstructionError, OPCODES,
                           SECURE_ALIASES)
from .program import DATA_BASE, Program, TEXT_BASE
from .pseudo import HiRef, LoRef, PSEUDO_SHAPES, expand, expand_load_label, is_pseudo
from .registers import RegisterError, parse_register

_LABEL_RE = re.compile(r"^([A-Za-z_$.][\w$.]*)\s*:\s*(.*)$")
_MEM_RE = re.compile(r"^(-?\w*)\s*\(\s*(\$\w+)\s*\)$")
_LABEL_OFF_RE = re.compile(r"^([A-Za-z_$.][\w$.]*)\s*([+-]\s*\d+)?$")


class AssemblerError(ValueError):
    """Raised with source line information when assembly fails."""

    def __init__(self, message: str, line_no: Optional[int] = None,
                 line: Optional[str] = None):
        self.line_no = line_no
        self.line = line
        location = f" (line {line_no}: {line!r})" if line_no is not None else ""
        super().__init__(message + location)


def _parse_int(token: str) -> int:
    token = token.strip().replace("_", "")
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError(f"invalid integer {token!r}") from None


def _split_operands(rest: str) -> list[str]:
    rest = rest.strip()
    if not rest:
        return []
    return [part.strip() for part in rest.split(",")]


class _DataSegment:
    """Accumulates the .data image byte-by-byte, emitting 32-bit words."""

    def __init__(self, base: int):
        self.base = base
        self._bytes = bytearray()

    @property
    def cursor(self) -> int:
        return self.base + len(self._bytes)

    def align(self, alignment: int) -> None:
        while len(self._bytes) % alignment:
            self._bytes.append(0)

    def add_word(self, value: int) -> None:
        if len(self._bytes) % 4:
            # Silently aligning here would leave any label recorded just
            # before this directive pointing at the padding, not the word.
            raise AssemblerError(
                ".word at unaligned offset; insert .align 2 after .byte "
                "data")
        value &= 0xFFFF_FFFF
        self._bytes.extend(value.to_bytes(4, "little"))

    def add_byte(self, value: int) -> None:
        self._bytes.append(value & 0xFF)

    def add_space(self, count: int) -> None:
        self._bytes.extend(b"\x00" * count)

    def words(self) -> list[int]:
        self.align(4)
        return [int.from_bytes(self._bytes[i:i + 4], "little")
                for i in range(0, len(self._bytes), 4)]


class Assembler:
    """Two-pass assembler producing a linked :class:`Program`."""

    def __init__(self, text_base: int = TEXT_BASE, data_base: int = DATA_BASE):
        self.text_base = text_base
        self.data_base = data_base

    def assemble(self, source: str) -> Program:
        text, data, symbols = self._pass1(source)
        self._pass2(text, symbols)
        return Program(text=text, data=data.words(), symbols=symbols,
                       text_base=self.text_base, data_base=self.data_base,
                       entry=self.text_base, source=source)

    # ------------------------------------------------------------------
    # Pass 1: layout + pseudo expansion
    # ------------------------------------------------------------------

    def _pass1(self, source: str):
        text: list[Instruction] = []
        data = _DataSegment(self.data_base)
        symbols: dict[str, int] = {}
        in_text = True
        #: Pending (source_line, sliced) debug state set by ``.loc``.
        loc: Optional[tuple[int, bool]] = None

        for line_no, raw in enumerate(source.splitlines(), start=1):
            line = raw.split("#", 1)[0].split(";", 1)[0].strip()
            while line:
                match = _LABEL_RE.match(line)
                if match and not self._looks_like_mem_operand(line):
                    label, line = match.group(1), match.group(2).strip()
                    address = (self.text_base + 4 * len(text)) if in_text \
                        else data.cursor
                    if label in symbols:
                        raise AssemblerError(f"duplicate label {label!r}",
                                             line_no, raw)
                    symbols[label] = address
                    continue
                break
            if not line:
                continue
            if line.startswith("."):
                if line.split(None, 1)[0].lower() == ".loc":
                    loc = self._parse_loc(line, line_no, raw)
                    continue
                in_text = self._directive(line, data, in_text, line_no, raw)
                continue
            if not in_text:
                raise AssemblerError("instruction in .data segment",
                                     line_no, raw)
            for ins in self._parse_instruction(line, line_no, raw):
                ins.line = line_no
                if loc is not None:
                    ins.source_line, ins.sliced = loc
                text.append(ins)
        return text, data, symbols

    @staticmethod
    def _parse_loc(line: str, line_no: int,
                   raw: str) -> Optional[tuple[int, bool]]:
        """Parse ``.loc line [sliced]``; line 0 clears the debug state."""
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise AssemblerError(".loc expects 'line [sliced]'",
                                 line_no, raw)
        source_line = _parse_int(tokens[1])
        sliced = bool(_parse_int(tokens[2])) if len(tokens) == 3 else False
        if source_line <= 0:
            return None
        return (source_line, sliced)

    @staticmethod
    def _looks_like_mem_operand(line: str) -> bool:
        # Avoid treating "lw $t0, tbl:..." oddities; labels never contain
        # spaces before ':' here, and instruction lines always contain a
        # space between mnemonic and operands before any ':' can appear.
        head = line.split(":", 1)[0]
        return " " in head or "\t" in head

    def _directive(self, line: str, data: _DataSegment, in_text: bool,
                   line_no: int, raw: str) -> bool:
        parts = line.split(None, 1)
        name = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        if name == ".text":
            return True
        if name == ".data":
            return False
        if name == ".globl" or name == ".global":
            return in_text
        if in_text:
            raise AssemblerError(f"directive {name} outside .data",
                                 line_no, raw)
        if name == ".word":
            for token in _split_operands(rest):
                data.add_word(_parse_int(token))
        elif name == ".byte":
            for token in _split_operands(rest):
                data.add_byte(_parse_int(token))
        elif name == ".space":
            data.add_space(_parse_int(rest))
        elif name == ".align":
            data.align(1 << _parse_int(rest))
        else:
            raise AssemblerError(f"unknown directive {name}", line_no, raw)
        return in_text

    # ------------------------------------------------------------------
    # Instruction parsing
    # ------------------------------------------------------------------

    def _parse_instruction(self, line: str, line_no: int,
                           raw: str) -> list[Instruction]:
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        operands = _split_operands(rest)

        secure = False
        if mnemonic in SECURE_ALIASES:
            mnemonic = SECURE_ALIASES[mnemonic]
            secure = True
        elif mnemonic.startswith("s.") and mnemonic[2:] in OPCODES:
            mnemonic = mnemonic[2:]
            secure = True
        elif mnemonic.startswith("s.") and is_pseudo(mnemonic[2:]):
            mnemonic = mnemonic[2:]
            secure = True

        try:
            if is_pseudo(mnemonic) or mnemonic == "smove":
                return self._parse_pseudo(mnemonic, operands, secure)
            return self._parse_real(mnemonic, operands, secure)
        except (InstructionError, RegisterError, AssemblerError, ValueError) as exc:
            raise AssemblerError(str(exc), line_no, raw) from exc

    def _parse_pseudo(self, name: str, operands: list[str],
                      secure: bool) -> list[Instruction]:
        shape = PSEUDO_SHAPES.get("move" if name == "smove" else name)
        parsed: list[Union[int, str, tuple]] = []
        if shape == "rr":
            parsed = [parse_register(operands[0]), parse_register(operands[1])]
        elif shape == "ri":
            parsed = [parse_register(operands[0]), _parse_int(operands[1])]
        elif shape == "rl":
            parsed = [parse_register(operands[0]),
                      self._parse_label_ref(operands[1])]
        elif shape == "l":
            parsed = [operands[0]]
        elif shape == "rl2":
            parsed = [parse_register(operands[0]), operands[1]]
        elif shape == "rrl":
            parsed = [parse_register(operands[0]), parse_register(operands[1]),
                      operands[2]]
        return expand(name, parsed, secure=secure)

    @staticmethod
    def _parse_label_ref(token: str):
        match = _LABEL_OFF_RE.match(token.strip())
        if not match:
            raise AssemblerError(f"invalid label reference {token!r}")
        label = match.group(1)
        offset = int(match.group(2).replace(" ", "")) if match.group(2) else 0
        return (label, offset) if offset else label

    def _parse_real(self, name: str, operands: list[str],
                    secure: bool) -> list[Instruction]:
        spec = OPCODES.get(name)
        if spec is None:
            raise AssemblerError(f"unknown mnemonic {name!r}")
        fmt = spec.fmt
        if fmt == Format.R3:
            rd, rs, rt = (parse_register(op) for op in operands)
            return [Instruction(name, rd=rd, rs=rs, rt=rt, secure=secure)]
        if fmt == Format.SHIFT:
            rd = parse_register(operands[0])
            rt = parse_register(operands[1])
            shamt = _parse_int(operands[2])
            return [Instruction(name, rd=rd, rt=rt, shamt=shamt,
                                secure=secure)]
        if fmt == Format.SHIFT_V:
            rd = parse_register(operands[0])
            rt = parse_register(operands[1])
            rs = parse_register(operands[2])
            return [Instruction(name, rd=rd, rt=rt, rs=rs, secure=secure)]
        if fmt == Format.ARITH_I:
            rt = parse_register(operands[0])
            rs = parse_register(operands[1])
            imm = _parse_int(operands[2])
            return [Instruction(name, rt=rt, rs=rs, imm=imm, secure=secure)]
        if fmt in (Format.LOAD, Format.STORE):
            rt = parse_register(operands[0])
            return self._parse_memory(name, rt, operands[1], secure)
        if fmt == Format.BRANCH2:
            rs = parse_register(operands[0])
            rt = parse_register(operands[1])
            return [Instruction(name, rs=rs, rt=rt, target=operands[2],
                                secure=secure)]
        if fmt == Format.BRANCH1:
            rs = parse_register(operands[0])
            return [Instruction(name, rs=rs, target=operands[1],
                                secure=secure)]
        if fmt == Format.JUMP:
            return [Instruction(name, target=operands[0], secure=secure)]
        if fmt == Format.JR:
            return [Instruction(name, rs=parse_register(operands[0]),
                                secure=secure)]
        if fmt == Format.JALR:
            if len(operands) == 1:
                rd, rs = 31, parse_register(operands[0])
            else:
                rd = parse_register(operands[0])
                rs = parse_register(operands[1])
            return [Instruction(name, rd=rd, rs=rs, secure=secure)]
        if fmt == Format.LUI:
            rt = parse_register(operands[0])
            return [Instruction(name, rt=rt, imm=_parse_int(operands[1]),
                                secure=secure)]
        return [Instruction(name, secure=secure)]

    def _parse_memory(self, name: str, rt: int, operand: str,
                      secure: bool) -> list[Instruction]:
        operand = operand.strip()
        match = _MEM_RE.match(operand)
        if match:
            offset_token, reg_token = match.groups()
            offset = _parse_int(offset_token) if offset_token else 0
            rs = parse_register(reg_token)
            return [Instruction(name, rt=rt, rs=rs, imm=offset,
                                secure=secure)]
        ref = self._parse_label_ref(operand)
        label, offset = ref if isinstance(ref, tuple) else (ref, 0)
        return expand_load_label(name, rt, label, offset, secure=secure)

    # ------------------------------------------------------------------
    # Pass 2: symbol resolution
    # ------------------------------------------------------------------

    def _pass2(self, text: list[Instruction],
               symbols: dict[str, int]) -> None:
        def resolve(label: str) -> int:
            if label not in symbols:
                raise AssemblerError(f"undefined label {label!r}")
            return symbols[label]

        for ins in text:
            if isinstance(ins.target, str):
                ins.target = resolve(ins.target)
            if isinstance(ins.imm, HiRef):
                address = resolve(ins.imm.label) + ins.imm.offset
                # GNU-style adjusted %hi: the paired %lo is sign-extended.
                ins.imm = ((address + 0x8000) >> 16) & 0xFFFF
            elif isinstance(ins.imm, LoRef):
                address = resolve(ins.imm.label) + ins.imm.offset
                low = address & 0xFFFF
                ins.imm = low - 0x10000 if low >= 0x8000 else low


def assemble(source: str, text_base: int = TEXT_BASE,
             data_base: int = DATA_BASE) -> Program:
    """Assemble ``source`` into a linked :class:`Program`."""
    return Assembler(text_base=text_base, data_base=data_base).assemble(source)
