"""The generated DES program: correctness against the reference cipher."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.des.reference import encrypt_block
from repro.programs.des_source import (DesProgramSpec, FULL_DES,
                                       KEYPERM_ONLY, ROUND1_DES, des_source)
from repro.programs.markers import (M_FP_END, M_FP_START, M_IP_END,
                                    M_IP_START, M_KEYPERM_END,
                                    M_KEYPERM_START, M_ROUND_BASE)
from repro.programs.workloads import (ciphertext_of, compile_des, key_words,
                                      plaintext_words, run_des)

KEY = 0x133457799BBCDFF1
PT = 0x0123456789ABCDEF

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


def test_spec_validation():
    with pytest.raises(ValueError):
        DesProgramSpec(rounds=17)
    with pytest.raises(ValueError):
        DesProgramSpec(rounds=1, include_keyschedule=False)


def test_source_contains_annotation_and_insecure_block():
    source = des_source(FULL_DES)
    assert "secure int key[64];" in source
    assert "__insecure" in source
    assert "SBOX_T[512]" in source


def test_round1_matches_reference():
    compiled = compile_des(ROUND1_DES, masking="none")
    cpu = run_des(compiled, KEY, PT)
    assert ciphertext_of(cpu) == encrypt_block(PT, KEY, rounds=1)


def test_two_rounds_match_reference():
    compiled = compile_des(DesProgramSpec(rounds=2), masking="selective")
    cpu = run_des(compiled, KEY, PT)
    assert ciphertext_of(cpu) == encrypt_block(PT, KEY, rounds=2)


@pytest.mark.slow
def test_full_des_matches_reference_unmasked():
    compiled = compile_des(FULL_DES, masking="none")
    cpu = run_des(compiled, KEY, PT)
    assert ciphertext_of(cpu) == 0x85E813540F0AB405


@pytest.mark.slow
def test_full_des_matches_reference_masked():
    compiled = compile_des(FULL_DES, masking="selective")
    cpu = run_des(compiled, KEY, PT)
    assert ciphertext_of(cpu) == 0x85E813540F0AB405


@settings(max_examples=5, deadline=None)
@given(key=U64, plaintext=U64)
def test_round1_random_inputs_property(key, plaintext):
    compiled = compile_des(ROUND1_DES, masking="selective")
    cpu = run_des(compiled, key, plaintext)
    assert ciphertext_of(cpu) == encrypt_block(plaintext, key, rounds=1)


def test_markers_emitted_in_order():
    compiled = compile_des(DesProgramSpec(rounds=2), masking="none")
    cpu = run_des(compiled, KEY, PT)
    values = [v for _, v in cpu.pipeline.markers]
    assert values == [M_IP_START, M_IP_END, M_KEYPERM_START, M_KEYPERM_END,
                      M_ROUND_BASE, M_ROUND_BASE + 1, M_FP_START, M_FP_END]


def test_marker_cycles_strictly_increasing():
    compiled = compile_des(DesProgramSpec(rounds=2), masking="none")
    cpu = run_des(compiled, KEY, PT)
    cycles = [c for c, _ in cpu.pipeline.markers]
    assert cycles == sorted(cycles)
    assert len(set(cycles)) == len(cycles)


def test_keyperm_only_variant():
    compiled = compile_des(KEYPERM_ONLY, masking="none")
    cpu = run_des(compiled, KEY, PT)
    values = [v for _, v in cpu.pipeline.markers]
    assert values == [M_KEYPERM_START, M_KEYPERM_END]
    # C/D registers hold the PC-1 output.
    from repro.des.bitops import int_to_bits, permute
    from repro.des.tables import PC1
    cd = permute(int_to_bits(KEY, 64), PC1)
    assert cpu.read_symbol_words("C", 28) == cd[:28]
    assert cpu.read_symbol_words("D", 28) == cd[28:]


def test_no_markers_variant():
    spec = DesProgramSpec(rounds=1, emit_markers=False)
    compiled = compile_des(spec, masking="none")
    cpu = run_des(compiled, KEY, PT)
    assert cpu.pipeline.markers == []
    assert ciphertext_of(cpu) == encrypt_block(PT, KEY, rounds=1)


def test_compile_des_memoizes():
    a = compile_des(ROUND1_DES, masking="none")
    b = compile_des(ROUND1_DES, masking="none")
    assert a is b


def test_key_and_plaintext_word_builders():
    assert key_words(1)[-1] == 1
    assert key_words(1 << 63)[0] == 1
    assert sum(plaintext_words(0)) == 0
    assert len(key_words(0)) == 64


def test_no_secret_dependent_control_flow():
    """The compiled DES must have no secret-dependent branches (the
    masking scheme cannot hide control flow)."""
    compiled = compile_des(ROUND1_DES, masking="selective")
    branch_diags = [d for d in compiled.diagnostics
                    if d.kind == "secret-branch"]
    assert branch_diags == []


def test_program_is_cycle_deterministic():
    compiled = compile_des(ROUND1_DES, masking="selective")
    c1 = run_des(compiled, KEY, PT).cycles
    c2 = run_des(compiled, 0xFFFFFFFFFFFFFFFF, 0).cycles
    assert c1 == c2
