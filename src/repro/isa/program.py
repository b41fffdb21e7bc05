"""Linked program image: text, data, and symbols.

Memory layout (matching a small embedded part, all addresses byte-granular):

* text at :data:`TEXT_BASE`
* data at :data:`DATA_BASE`
* stack grows down from :data:`STACK_TOP`
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .instructions import Instruction

TEXT_BASE = 0x0000_0000
DATA_BASE = 0x0001_0000
STACK_TOP = 0x0007_FFFC


class SymbolError(KeyError):
    """Raised when a symbol is missing or redefined."""


@dataclass
class Program:
    """An assembled and linked program image."""

    text: list[Instruction] = field(default_factory=list)
    #: Initialized data image as a list of 32-bit words starting at data_base.
    data: list[int] = field(default_factory=list)
    symbols: dict[str, int] = field(default_factory=dict)
    text_base: int = TEXT_BASE
    data_base: int = DATA_BASE
    entry: int = TEXT_BASE
    #: Original source, kept for diagnostics.
    source: Optional[str] = None

    def __len__(self) -> int:
        return len(self.text)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.text)

    def address_of(self, symbol: str) -> int:
        try:
            return self.symbols[symbol]
        except KeyError:
            raise SymbolError(f"undefined symbol {symbol!r}") from None

    def address_of_index(self, index: int) -> int:
        return self.text_base + (index << 2)

    def secure_fraction(self) -> float:
        """Static fraction of instructions carrying the secure bit."""
        if not self.text:
            return 0.0
        return sum(1 for ins in self.text if ins.secure) / len(self.text)

    def source_map(self) -> dict[int, tuple[Optional[int], bool]]:
        """Debug info per text address: ``{pc: (source_line, sliced)}``.

        The pairs come from ``.loc`` directives (see
        :mod:`repro.isa.assembler`); addresses of instructions without
        debug info map to ``(None, False)``.  Energy attribution uses
        this to roll per-PC totals up to source lines and the secured
        program slice.
        """
        return {self.address_of_index(index): (ins.source_line,
                                               bool(ins.sliced))
                for index, ins in enumerate(self.text)}

    def listing(self) -> str:
        """Human-readable disassembly listing with addresses."""
        lines = []
        addr_to_label: dict[int, list[str]] = {}
        for name, addr in self.symbols.items():
            addr_to_label.setdefault(addr, []).append(name)
        for index, ins in enumerate(self.text):
            addr = self.address_of_index(index)
            for label in addr_to_label.get(addr, ()):
                lines.append(f"{label}:")
            lines.append(f"  0x{addr:08x}  {ins}")
        return "\n".join(lines)

    def replace_text(self, new_text: Iterable[Instruction]) -> "Program":
        """Return a copy of this program with different text (same layout).

        Used by assembly-level masking policies, which rewrite instructions
        in place without changing addresses.
        """
        new_list = list(new_text)
        if len(new_list) != len(self.text):
            raise ValueError(
                "replace_text must preserve instruction count "
                f"({len(new_list)} != {len(self.text)})")
        return Program(text=new_list, data=list(self.data),
                       symbols=dict(self.symbols), text_base=self.text_base,
                       data_base=self.data_base, entry=self.entry,
                       source=self.source)
