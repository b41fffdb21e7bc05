"""Masking policies: rewriters and policy semantics."""

import pytest

from repro.isa.assembler import assemble
from repro.machine.cpu import run_to_halt
from repro.masking.policy import (MaskingPolicy, apply_policy, secure_all,
                                  secure_all_loads_stores)

SOURCE = """
.data
x: .word 3
y: .word 0
.text
lw $t0, x
xor $t1, $t0, $t0
addu $t2, $t1, $t0
sw $t2, y
halt
"""


def test_all_loads_stores_rewrite():
    program = assemble(SOURCE)
    rewritten = secure_all_loads_stores(program)
    for ins in rewritten.text:
        if ins.spec.is_load or ins.spec.is_store:
            assert ins.secure
        else:
            assert not ins.secure


def test_secure_all_rewrite():
    program = assemble(SOURCE)
    rewritten = secure_all(program)
    assert all(ins.secure for ins in rewritten.text)


def test_rewrites_preserve_results():
    program = assemble(SOURCE)
    expected = run_to_halt(program).read_symbol_words("y", 1)
    for policy in (MaskingPolicy.ALL_LOADS_STORES, MaskingPolicy.ALL):
        rewritten = apply_policy(assemble(SOURCE), policy)
        assert run_to_halt(rewritten).read_symbol_words("y", 1) == expected


def test_rewrites_preserve_cycle_count():
    program = assemble(SOURCE)
    base_cycles = run_to_halt(program).cycles
    for policy in (MaskingPolicy.ALL_LOADS_STORES, MaskingPolicy.ALL):
        rewritten = apply_policy(assemble(SOURCE), policy)
        assert run_to_halt(rewritten).cycles == base_cycles


def test_apply_policy_none_is_identity():
    program = assemble(SOURCE)
    assert apply_policy(program, MaskingPolicy.NONE) is program


def test_compiler_policies_rejected():
    program = assemble(SOURCE)
    with pytest.raises(ValueError):
        apply_policy(program, MaskingPolicy.SELECTIVE)
    with pytest.raises(ValueError):
        apply_policy(program, MaskingPolicy.ANNOTATE_ONLY)


def test_original_program_untouched_by_rewrites():
    program = assemble(SOURCE)
    secure_all(program)
    assert not any(ins.secure for ins in program.text)
