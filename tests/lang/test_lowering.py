"""AST -> IR lowering: shapes and operator expansion."""

from repro.lang.ir import (Bin, BinOp, BranchZero, Const, Jump, Label,
                           LoadArr, LoadVar, MarkerOp, StoreArr, StoreVar)
from repro.lang.lowering import lower
from repro.lang.parser import parse
from repro.lang.semantics import analyze


def lower_source(source):
    ast = parse(source)
    table = analyze(ast)
    return lower(ast, table)


def ops(code):
    return [type(instr).__name__ for instr in code]


def test_simple_assignment():
    code = lower_source("int x; x = 5;")
    assert ops(code) == ["Const", "StoreVar"]


def test_var_to_var_assignment():
    code = lower_source("int x; int y; y = x;")
    assert ops(code) == ["LoadVar", "StoreVar"]


def test_array_load_store():
    code = lower_source("int a[4]; int i; a[i] = a[i];")
    kinds = ops(code)
    assert kinds.count("LoadArr") == 1
    assert kinds.count("StoreArr") == 1


def test_binary_add():
    code = lower_source("int x; x = 1 + 2;")
    bins = [i for i in code if isinstance(i, Bin)]
    assert bins[0].op is BinOp.ADD


def test_comparison_lt_gt():
    code = lower_source("int x; x = 1 < 2;")
    assert [i.op for i in code if isinstance(i, Bin)] == [BinOp.SLT]
    code = lower_source("int x; x = 1 > 2;")
    assert [i.op for i in code if isinstance(i, Bin)] == [BinOp.SLT]


def test_le_ge_use_slt_xor():
    code = lower_source("int x; x = 1 <= 2;")
    assert [i.op for i in code if isinstance(i, Bin)] == [BinOp.SLT,
                                                          BinOp.XOR]


def test_eq_ne():
    code = lower_source("int x; x = 1 == 2;")
    assert [i.op for i in code if isinstance(i, Bin)] == [BinOp.XOR,
                                                          BinOp.SLTU]
    code = lower_source("int x; x = 1 != 2;")
    assert [i.op for i in code if isinstance(i, Bin)] == [BinOp.XOR,
                                                          BinOp.SLTU]


def test_unary_lowering():
    code = lower_source("int x; x = -1;")
    assert [i.op for i in code if isinstance(i, Bin)] == [BinOp.SUB]
    code = lower_source("int x; x = ~1;")
    assert [i.op for i in code if isinstance(i, Bin)] == [BinOp.NOR]
    code = lower_source("int x; x = !1;")
    assert [i.op for i in code if isinstance(i, Bin)] == [BinOp.SLTU]


def test_if_produces_branch_and_label():
    code = lower_source("int x; if (x) { x = 1; }")
    kinds = ops(code)
    assert "BranchZero" in kinds
    assert "Label" in kinds
    assert "Jump" not in kinds  # no else -> single label


def test_if_else_produces_jump():
    code = lower_source("int x; if (x) { x = 1; } else { x = 2; }")
    kinds = ops(code)
    assert kinds.count("Label") == 2
    assert kinds.count("Jump") == 1


def test_while_shape():
    code = lower_source("int i; while (i) { i = 0; }")
    kinds = ops(code)
    assert kinds.count("Label") == 2
    assert kinds.count("Jump") == 1
    assert kinds.count("BranchZero") == 1


def test_for_shape():
    code = lower_source("int i; for (i = 0; i < 4; i = i + 1) { }")
    kinds = ops(code)
    assert kinds[0] == "Const"     # init value
    assert kinds[1] == "StoreVar"  # init store
    assert "BranchZero" in kinds
    assert "Jump" in kinds


def test_marker_lowering():
    code = lower_source("__marker(3);")
    assert ops(code) == ["Const", "MarkerOp"]


def test_insecure_block_flags_instructions():
    code = lower_source("""
    int x;
    x = 1;
    __insecure { x = 2; }
    x = 3;
    """)
    flags = [instr.declassified for instr in code]
    # Exactly the middle statement's two instructions are declassified.
    assert flags == [False, False, True, True, False, False]


def test_temps_single_assignment():
    code = lower_source("int x; x = (1 + 2) + (3 + 4);")
    defined = [i.dest for i in code if isinstance(i, (Const, Bin))]
    assert len(defined) == len(set(defined))


def test_logical_and_or():
    code = lower_source("int x; x = 1 && 2;")
    bin_ops = [i.op for i in code if isinstance(i, Bin)]
    assert BinOp.AND in bin_ops
    assert bin_ops.count(BinOp.SLTU) == 2  # two normalizations
    code = lower_source("int x; x = 1 || 2;")
    bin_ops = [i.op for i in code if isinstance(i, Bin)]
    assert BinOp.OR in bin_ops
