"""Assembler: syntax, directives, labels, pseudo expansion, secure forms."""

import pytest

from repro.isa.assembler import AssemblerError, assemble
from repro.isa.instructions import Instruction
from repro.isa.program import DATA_BASE


def test_empty_program():
    program = assemble(".text\n")
    assert len(program.text) == 0


def test_basic_r3():
    program = assemble("addu $t0, $t1, $t2\n")
    ins = program.text[0]
    assert (ins.op, ins.rd, ins.rs, ins.rt) == ("addu", 8, 9, 10)


def test_comments_are_stripped():
    program = assemble("""
    addu $t0, $t1, $t2   # a comment
    ; a full-line comment
    xor $t3, $t4, $t5    ; trailing
    """)
    assert [i.op for i in program.text] == ["addu", "xor"]


def test_memory_operand_offsets():
    program = assemble("""
    lw $t0, 8($sp)
    sw $t1, -4($fp)
    lw $t2, ($gp)
    """)
    assert program.text[0].imm == 8
    assert program.text[1].imm == -4
    assert program.text[2].imm == 0


def test_label_resolution_branch():
    program = assemble("""
    top:
        addiu $t0, $t0, 1
        bne $t0, $t1, top
        halt
    """)
    branch = program.text[1]
    assert branch.target == program.symbols["top"]


def test_forward_reference():
    program = assemble("""
        j end
        nop
    end:
        halt
    """)
    assert program.text[0].target == program.symbols["end"]


def test_undefined_label_raises():
    with pytest.raises(AssemblerError):
        assemble("j nowhere\n")


def test_duplicate_label_raises():
    with pytest.raises(AssemblerError):
        assemble("x: nop\nx: nop\n")


def test_data_word_directive():
    program = assemble("""
    .data
    values: .word 1, 2, 0x10, -1
    .text
    halt
    """)
    assert program.data[:4] == [1, 2, 16, 0xFFFF_FFFF]
    assert program.symbols["values"] == DATA_BASE


def test_data_space_and_align():
    program = assemble("""
    .data
    a: .byte 1
    .align 2
    b: .word 7
    c: .space 8
    d: .word 9
    .text
    halt
    """)
    assert program.symbols["b"] == DATA_BASE + 4
    assert program.symbols["c"] == DATA_BASE + 8
    assert program.symbols["d"] == DATA_BASE + 16
    assert program.data[4] == 9


def test_byte_packing_little_endian():
    program = assemble("""
    .data
    b: .byte 0x11, 0x22, 0x33, 0x44
    .text
    halt
    """)
    assert program.data[0] == 0x44332211


def test_la_expands_to_lui_addiu():
    program = assemble("""
    .data
    x: .word 0
    .text
    la $t0, x
    halt
    """)
    assert [i.op for i in program.text[:2]] == ["lui", "addiu"]
    # reconstructed address
    hi = program.text[0].imm
    lo = program.text[1].imm
    assert ((hi << 16) + lo) & 0xFFFF_FFFF == program.symbols["x"]


def test_label_load_expands():
    program = assemble("""
    .data
    x: .word 42
    .text
    lw $t0, x
    halt
    """)
    assert [i.op for i in program.text[:2]] == ["lui", "lw"]


def test_label_with_offset():
    program = assemble("""
    .data
    arr: .word 1, 2, 3
    .text
    lw $t0, arr+8
    halt
    """)
    hi = program.text[0].imm
    lo = program.text[1].imm
    assert ((hi << 16) + lo) & 0xFFFF_FFFF == program.symbols["arr"] + 8


def test_li_small_and_large():
    program = assemble("""
    li $t0, 5
    li $t1, 0x12345678
    li $t2, -3
    halt
    """)
    ops = [i.op for i in program.text]
    assert ops[0] == "ori"            # small positive
    assert ops[1:3] == ["lui", "ori"]  # 32-bit constant
    assert ops[3] == "addiu"           # small negative


def test_move_not_neg_pseudo():
    program = assemble("""
    move $t0, $t1
    not $t2, $t3
    neg $t4, $t5
    halt
    """)
    assert program.text[0].op == "addu" and program.text[0].rt == 0
    assert program.text[1].op == "nor"
    assert program.text[2].op == "subu" and program.text[2].rs == 0


def test_branch_pseudos():
    program = assemble("""
    top:
    blt $t0, $t1, top
    bgt $t0, $t1, top
    ble $t0, $t1, top
    bge $t0, $t1, top
    beqz $t0, top
    bnez $t0, top
    b top
    halt
    """)
    ops = [i.op for i in program.text]
    assert ops == ["slt", "bne", "slt", "bne", "slt", "beq", "slt", "beq",
                   "beq", "bne", "beq", "halt"]


def test_secure_mnemonics():
    program = assemble("""
    .data
    x: .word 0
    .text
    la $t1, x
    slw $t0, 0($t1)
    sxor $t2, $t0, $t0
    ssll $t3, $t0, 2
    ssllv $t4, $t0, $t2
    silw $t5, 0($t1)
    ssw $t5, 0($t1)
    halt
    """)
    secure_ops = [(i.op, i.secure) for i in program.text if i.secure]
    assert ("lw", True) in secure_ops
    assert ("xor", True) in secure_ops
    assert ("sll", True) in secure_ops
    assert ("sllv", True) in secure_ops
    assert ("lwx", True) in secure_ops
    assert ("sw", True) in secure_ops


def test_generic_secure_prefix():
    program = assemble("s.addu $t0, $t1, $t2\nhalt\n")
    assert program.text[0].op == "addu"
    assert program.text[0].secure


def test_instruction_in_data_raises():
    with pytest.raises(AssemblerError):
        assemble(".data\naddu $t0, $t1, $t2\n")


def test_unknown_mnemonic_raises():
    with pytest.raises(AssemblerError):
        assemble("blorp $t0, $t1, $t2\n")


def test_error_carries_line_number():
    with pytest.raises(AssemblerError) as info:
        assemble("nop\nblorp $t0\n")
    assert "line 2" in str(info.value)


def test_label_and_instruction_same_line():
    program = assemble("start: addu $t0, $t1, $t2\nhalt\n")
    assert program.symbols["start"] == program.text_base


def test_listing_roundtrip_reassembles():
    source = """
    .data
    x: .word 3
    .text
    main:
        lw $t0, x
        addiu $t0, $t0, 1
        slw $t1, 0($t0)
        halt
    """
    program = assemble(source)
    listing = program.listing()
    assert "slw" in listing
    assert "0x" in listing


def test_jalr_single_and_double_operand():
    program = assemble("jalr $t0\njalr $v0, $t1\nhalt\n")
    assert program.text[0].rd == 31
    assert program.text[1].rd == 2


def test_secure_fraction():
    program = assemble("slw $t0, 0($t1)\nnop\nnop\nhalt\n")
    assert program.secure_fraction() == 0.25


def test_unaligned_word_directive_rejected():
    """A label recorded before a silently-aligned .word would point at
    padding; the assembler demands explicit alignment instead."""
    with pytest.raises(AssemblerError, match="unaligned"):
        assemble("""
        .data
        b: .byte 1
        w: .word 2
        .text
        halt
        """)


def test_byte_then_align_then_word_label_correct():
    program = assemble("""
    .data
    b: .byte 1, 2
    .align 2
    w: .word 42
    .text
    lw $t0, w
    halt
    """)
    assert program.symbols["w"] == program.data_base + 4
    from repro.machine.cpu import run_to_halt
    cpu = run_to_halt(program)
    assert cpu.regs.read(8) == 42


def test_loc_directive_threads_debug_info():
    program = assemble("""
    .text
    .loc 7 0
    li $t0, 1
    .loc 9 1
    xor $t1, $t0, $t0
    li $t2, 2
    .loc 0 0
    halt
    """)
    first, second, third, last = program.text
    assert (first.source_line, first.sliced) == (7, False)
    assert (second.source_line, second.sliced) == (9, True)
    # Debug state is sticky until the next .loc.
    assert (third.source_line, third.sliced) == (9, True)
    # .loc 0 0 clears it.
    assert (last.source_line, last.sliced) == (None, False)
    assert program.source_map() == {program.text_base: (7, False),
                                    program.text_base + 4: (9, True),
                                    program.text_base + 8: (9, True),
                                    program.text_base + 12: (None, False)}
    assert [index for index, ins in enumerate(program.text)
            if ins.sliced] == [1, 2]


def test_loc_directive_does_not_change_encoding_or_equality():
    from dataclasses import replace

    with_loc = assemble(".text\n.loc 3 1\nxor $t0, $t0, $t0\nhalt\n")
    without = assemble(".text\nxor $t0, $t0, $t0\nhalt\n")
    # Debug fields are compare=False: equal once the assembly-line shift
    # introduced by the .loc directive itself is normalized away.
    assert [replace(ins, line=0) for ins in with_loc.text] \
        == [replace(ins, line=0) for ins in without.text]
    from repro.isa.encoding import encode

    assert [encode(ins) for ins in with_loc.text] \
        == [encode(ins) for ins in without.text]


def test_loc_directive_validates_operands():
    with pytest.raises(AssemblerError):
        assemble(".text\n.loc\nhalt\n")
    with pytest.raises(AssemblerError):
        assemble(".text\n.loc 1 2 3 4\nhalt\n")
