"""DPA machinery on synthetic and (small) simulated traces."""

import numpy as np
import pytest

from repro.attacks.dpa import (DpaResult, GuessScore, TraceSet,
                               dpa_attack, dpa_attack_multibit,
                               random_plaintexts)
from repro.attacks.selection import (predict_sbox_output_bit,
                                     true_round1_subkey_chunk)

KEY = 0x133457799BBCDFF1


def synthetic_trace_set(n=200, box=0, leak_scale=2.0, cycles=40,
                        leak_cycle=25, seed=5):
    """Traces whose energy at leak_cycle depends on the true S-box output
    bit — an idealized leaky device."""
    rng = np.random.default_rng(seed)
    plaintexts = random_plaintexts(n, seed=seed)
    true_guess = true_round1_subkey_chunk(KEY, box)
    traces = rng.normal(100.0, 1.0, size=(n, cycles))
    for row, plaintext in enumerate(plaintexts):
        bit = predict_sbox_output_bit(plaintext, true_guess, box, 0)
        traces[row, leak_cycle] += leak_scale * bit
    return TraceSet(plaintexts=plaintexts, traces=traces,
                    window=(0, cycles))


def test_dpa_recovers_true_subkey_from_synthetic_leak():
    trace_set = synthetic_trace_set()
    result = dpa_attack(trace_set, box=0, target_bit=0, key=KEY)
    assert result.succeeded()
    assert result.scores[0].peak_cycle == 25
    assert result.margin > 1.2


def test_dpa_fails_on_flat_traces():
    trace_set = synthetic_trace_set(leak_scale=0.0)
    result = dpa_attack(trace_set, box=0, target_bit=0, key=KEY)
    # No leak: margins collapse toward 1 and ranking is arbitrary.
    assert result.margin < 1.5


def test_dpa_fails_on_constant_traces():
    trace_set = synthetic_trace_set()
    trace_set.traces[:] = 42.0
    result = dpa_attack(trace_set, box=0, target_bit=0, key=KEY)
    assert result.scores[0].peak == 0.0


def test_multibit_also_recovers():
    trace_set = synthetic_trace_set(n=300, leak_scale=2.0)
    result = dpa_attack_multibit(trace_set, box=0, key=KEY)
    assert result.rank_of_true <= 3


def test_guess_subset():
    trace_set = synthetic_trace_set(n=100)
    true_guess = true_round1_subkey_chunk(KEY, 0)
    result = dpa_attack(trace_set, box=0, key=KEY,
                        guesses=[true_guess, (true_guess + 1) % 64])
    assert len(result.scores) == 2
    assert result.best_guess == true_guess


def test_result_properties():
    scores = [GuessScore(guess=5, peak=10.0, peak_cycle=1),
              GuessScore(guess=7, peak=5.0, peak_cycle=2)]
    result = DpaResult(box=0, target_bit=0, scores=scores, true_subkey=5)
    assert result.best_guess == 5
    assert result.rank_of_true == 0
    assert result.margin == 2.0
    assert result.succeeded()


def test_margin_with_zero_runner_up():
    scores = [GuessScore(guess=5, peak=10.0, peak_cycle=1),
              GuessScore(guess=7, peak=0.0, peak_cycle=2)]
    result = DpaResult(box=0, target_bit=0, scores=scores)
    assert result.margin == float("inf")


def test_margin_all_zero():
    scores = [GuessScore(guess=5, peak=0.0, peak_cycle=0),
              GuessScore(guess=7, peak=0.0, peak_cycle=0)]
    result = DpaResult(box=0, target_bit=0, scores=scores)
    assert result.margin == 1.0


def test_random_plaintexts_deterministic_and_64bit():
    a = random_plaintexts(10, seed=1)
    b = random_plaintexts(10, seed=1)
    c = random_plaintexts(10, seed=2)
    assert a == b != c
    assert all(0 <= p < (1 << 64) for p in a)
    assert any(p >= (1 << 32) for p in a)  # high halves populated


def test_collect_traces_window_and_alignment(round1_masked):
    from repro.attacks.dpa import collect_traces

    plaintexts = random_plaintexts(3)
    traces = collect_traces(round1_masked.program, KEY, plaintexts,
                            window=(100, 200))
    assert traces.traces.shape == (3, 100)
    assert traces.n == 3
    assert traces.window == (100, 200)
