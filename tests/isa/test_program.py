"""Program container: symbols, addressing, replace_text."""

import pytest

from repro.isa.assembler import assemble
from repro.isa.program import Program, SymbolError


@pytest.fixture
def program():
    return assemble("""
    .data
    x: .word 1
    .text
    main:
        nop
        addu $t0, $t1, $t2
        halt
    """)


def test_len_and_iter(program):
    assert len(program) == 3
    assert [i.op for i in program] == ["nop", "addu", "halt"]


def test_address_of(program):
    assert program.address_of("main") == program.text_base
    with pytest.raises(SymbolError):
        program.address_of("missing")


def test_address_of_index(program):
    assert program.address_of_index(2) == program.text_base + 8


def test_replace_text_preserves_layout(program):
    rewritten = program.replace_text(ins.with_secure(True)
                                     for ins in program.text)
    assert len(rewritten) == len(program)
    assert rewritten.symbols == program.symbols
    assert all(ins.secure for ins in rewritten.text)
    # Original untouched.
    assert not any(ins.secure for ins in program.text)


def test_replace_text_wrong_length_raises(program):
    with pytest.raises(ValueError):
        program.replace_text(program.text[:-1])
