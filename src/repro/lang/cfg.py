"""Control-flow graph over the three-address IR.

The forward-slicing pass is formulated as a monotone dataflow problem whose
complexity is bounded by the number of CFG edges (as the paper notes, citing
Horwitz/Reps/Binkley interprocedural slicing).  The CFG is also used to
detect secret-dependent control flow, which the architecture cannot mask and
the compiler must therefore report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import BranchZero, Instr, Jump, Label


@dataclass
class BasicBlock:
    """Half-open range [start, end) of IR instructions."""

    index: int
    start: int
    end: int
    label: str | None = None
    successors: list[int] = field(default_factory=list)
    predecessors: list[int] = field(default_factory=list)

    def instructions(self, code: list[Instr]) -> list[Instr]:
        return code[self.start:self.end]


class CFG:
    """Basic blocks plus edges for one IR listing."""

    def __init__(self, code: list[Instr]):
        self.code = code
        self.blocks: list[BasicBlock] = []
        self._label_to_block: dict[str, int] = {}
        self._build()

    def _build(self) -> None:
        code = self.code
        # Block leaders: instruction 0, every label, every instruction
        # following a jump/branch.
        leaders = {0}
        for position, instr in enumerate(code):
            if isinstance(instr, Label):
                leaders.add(position)
            elif isinstance(instr, (Jump, BranchZero)):
                leaders.add(position + 1)
        leaders.discard(len(code))
        ordered = sorted(leaders)
        for block_index, start in enumerate(ordered):
            end = ordered[block_index + 1] if block_index + 1 < len(ordered) \
                else len(code)
            label = None
            if start < len(code) and isinstance(code[start], Label):
                label = code[start].name
            block = BasicBlock(index=block_index, start=start, end=end,
                               label=label)
            self.blocks.append(block)
            if label is not None:
                self._label_to_block[label] = block_index

        for block in self.blocks:
            if block.start == block.end:
                continue
            last = code[block.end - 1]
            if isinstance(last, Jump):
                self._edge(block.index, self._target_block(last.target))
            elif isinstance(last, BranchZero):
                self._edge(block.index, self._target_block(last.target))
                if block.index + 1 < len(self.blocks):
                    self._edge(block.index, block.index + 1)
            else:
                if block.index + 1 < len(self.blocks):
                    self._edge(block.index, block.index + 1)

    def _target_block(self, label: str) -> int:
        try:
            return self._label_to_block[label]
        except KeyError:
            raise ValueError(f"jump to unknown label {label!r}") from None

    def _edge(self, src: int, dst: int) -> None:
        self.blocks[src].successors.append(dst)
        self.blocks[dst].predecessors.append(src)

    @property
    def edge_count(self) -> int:
        return sum(len(block.successors) for block in self.blocks)
