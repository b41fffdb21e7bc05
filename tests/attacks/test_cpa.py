"""CPA machinery on synthetic traces plus small simulator checks."""

import numpy as np
import pytest

from repro.attacks.cpa import (correlation_trace, cpa_attack,
                               predicted_hamming_weights)
from repro.attacks.dpa import TraceSet, random_plaintexts
from repro.attacks.selection import true_round1_subkey_chunk

KEY = 0x133457799BBCDFF1


def hw_leaky_traces(n=150, box=0, scale=1.0, cycles=30, leak_cycle=12,
                    noise=0.3, seed=9):
    rng = np.random.default_rng(seed)
    plaintexts = random_plaintexts(n, seed=seed)
    true_guess = true_round1_subkey_chunk(KEY, box)
    weights = predicted_hamming_weights(plaintexts, true_guess, box)
    traces = rng.normal(100.0, noise, size=(n, cycles))
    traces[:, leak_cycle] += scale * weights
    return TraceSet(plaintexts=plaintexts, traces=traces,
                    window=(0, cycles))


def test_correlation_trace_perfect_signal():
    predictions = np.array([0.0, 1.0, 2.0, 3.0])
    traces = np.stack([predictions * 2 + 5, np.ones(4)], axis=1)
    rho = correlation_trace(traces, predictions)
    assert rho[0] == pytest.approx(1.0)
    assert rho[1] == 0.0  # zero-variance cycle -> 0, not NaN


def test_correlation_trace_anticorrelation():
    predictions = np.array([0.0, 1.0, 2.0, 3.0])
    traces = (-predictions).reshape(-1, 1)
    rho = correlation_trace(traces, predictions)
    assert rho[0] == pytest.approx(-1.0)


def test_correlation_length_mismatch():
    with pytest.raises(ValueError):
        correlation_trace(np.ones((4, 2)), np.ones(3))


def test_constant_predictions_give_zero():
    rho = correlation_trace(np.random.default_rng(0).normal(size=(8, 3)),
                            np.ones(8))
    assert np.all(rho == 0.0)


def test_predicted_hamming_weights_range():
    plaintexts = random_plaintexts(20)
    weights = predicted_hamming_weights(plaintexts, 0, 0)
    assert weights.min() >= 0
    assert weights.max() <= 4


def test_cpa_recovers_subkey_from_hw_leak():
    result = cpa_attack(hw_leaky_traces(), box=0, key=KEY)
    assert result.succeeded()
    assert result.scores[0].peak_cycle == 12
    assert result.margin > 1.1


def test_cpa_fails_without_leak():
    result = cpa_attack(hw_leaky_traces(scale=0.0), box=0, key=KEY)
    assert result.margin < 1.5


def test_cpa_fails_on_constant_traces():
    trace_set = hw_leaky_traces()
    trace_set.traces[:] = 7.0
    result = cpa_attack(trace_set, box=0, key=KEY)
    assert result.scores[0].peak == 0.0
    assert not result.succeeded()


def test_cpa_guess_subset():
    trace_set = hw_leaky_traces()
    true_guess = true_round1_subkey_chunk(KEY, 0)
    result = cpa_attack(trace_set, box=0, key=KEY,
                        guesses=[true_guess, (true_guess + 7) % 64])
    assert result.best_guess == true_guess


def test_cpa_margin_semantics():
    from repro.attacks.dpa import GuessScore
    from repro.attacks.cpa import CpaResult

    result = CpaResult(box=0, scores=[
        GuessScore(guess=1, peak=0.8, peak_cycle=0),
        GuessScore(guess=2, peak=0.4, peak_cycle=0)], true_subkey=1)
    assert result.margin == pytest.approx(2.0)
    assert result.succeeded()
