"""Control-flow graph construction."""

import pytest

from repro.lang.cfg import CFG
from repro.lang.lowering import lower
from repro.lang.parser import parse
from repro.lang.semantics import analyze


def build(source):
    ast = parse(source)
    table = analyze(ast)
    code = lower(ast, table)
    return code, CFG(code)


def test_straightline_single_block():
    code, cfg = build("int x; x = 1; x = 2;")
    assert len(cfg.blocks) == 1
    assert cfg.blocks[0].start == 0
    assert cfg.blocks[0].end == len(code)
    assert cfg.edge_count == 0


def test_if_produces_diamondish_shape():
    _, cfg = build("int x; if (x) { x = 1; }")
    # entry (cond+branch), then-body, join label.
    assert len(cfg.blocks) == 3
    entry = cfg.blocks[0]
    assert sorted(entry.successors) == [1, 2]


def test_if_else_shape():
    _, cfg = build("int x; if (x) { x = 1; } else { x = 2; }")
    # entry, then, else, join.
    assert len(cfg.blocks) == 4
    join = cfg.blocks[-1]
    assert len(join.predecessors) == 2


def test_loop_back_edge():
    _, cfg = build("int i; while (i) { i = 0; }")
    labels = {block.label: block.index for block in cfg.blocks
              if block.label}
    head_index = min(index for label, index in labels.items()
                     if label.startswith("$Lloop"))
    # Some block jumps back to the loop head.
    assert any(head_index in block.successors
               for block in cfg.blocks if block.index != head_index - 1)


def test_edge_count_positive_for_branches():
    _, cfg = build("int i; for (i = 0; i < 3; i = i + 1) { }")
    assert cfg.edge_count >= 3


def test_jump_to_unknown_label_raises():
    from repro.lang.ir import Jump

    with pytest.raises(ValueError):
        CFG([Jump(target="nowhere")])


def test_instructions_accessor():
    code, cfg = build("int x; x = 1;")
    assert cfg.blocks[0].instructions(code) == code
