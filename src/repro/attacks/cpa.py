"""Correlation power analysis (CPA) against the simulated implementation.

CPA (Brier/Clavier/Olivier) generalizes DPA: instead of partitioning
traces on one predicted bit, it correlates the trace at each cycle with a
*leakage model* of a predicted intermediate — here the Hamming weight of a
round-1 DES S-box output (the transition-sensitive energy model makes
switching energy roughly proportional to toggled bits, so Hamming-style
models fit this simulator the same way they fit CMOS hardware).

The correct subkey guess predicts the device's real intermediate, so its
correlation trace shows a peak; wrong guesses decorrelate.  Against the
masked device the secured cycles are constants across traces, their
variance is zero, and every correlation is identically zero: CPA, like
DPA, has nothing to work with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dpa import GuessScore, TraceSet
from .selection import predict_sbox_output_bit, true_round1_subkey_chunk


@dataclass
class CpaResult:
    box: int
    scores: list[GuessScore]       # sorted by |correlation| peak, descending
    true_subkey: Optional[int] = None

    @property
    def best_guess(self) -> int:
        return self.scores[0].guess

    @property
    def rank_of_true(self) -> Optional[int]:
        if self.true_subkey is None:
            return None
        for rank, score in enumerate(self.scores):
            if score.guess == self.true_subkey:
                return rank
        return None  # pragma: no cover

    @property
    def margin(self) -> float:
        best = self.scores[0].peak
        runner_up = self.scores[1].peak if len(self.scores) > 1 else 0.0
        if runner_up <= 0:
            return float("inf") if best > 0 else 1.0
        return best / runner_up

    def succeeded(self, noise_floor: float = 1e-6) -> bool:
        return self.rank_of_true == 0 and self.scores[0].peak > noise_floor


def predicted_hamming_weights(plaintexts: list[int], guess: int,
                              box: int) -> np.ndarray:
    """Hamming weight of the predicted round-1 S-box output, per trace."""
    weights = np.zeros(len(plaintexts), dtype=np.float64)
    for row, plaintext in enumerate(plaintexts):
        weights[row] = sum(
            predict_sbox_output_bit(plaintext, guess, box, bit)
            for bit in range(4))
    return weights


def correlation_trace(traces: np.ndarray,
                      predictions: np.ndarray) -> np.ndarray:
    """Pearson correlation between the prediction vector and every cycle.

    Cycles (or predictions) with zero variance yield correlation 0 rather
    than NaN — a constant signal carries no information.
    """
    traces = np.asarray(traces, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    n = traces.shape[0]
    if predictions.shape[0] != n:
        raise ValueError("prediction vector length must match trace count")
    h_centered = predictions - predictions.mean()
    h_norm = np.sqrt((h_centered ** 2).sum())
    t_centered = traces - traces.mean(axis=0)
    t_norm = np.sqrt((t_centered ** 2).sum(axis=0))
    numerator = h_centered @ t_centered
    denominator = h_norm * t_norm
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(denominator > 1e-12, numerator / denominator, 0.0)
    return rho


def cpa_attack(trace_set: TraceSet, box: int, key: Optional[int] = None,
               guesses: Optional[list[int]] = None) -> CpaResult:
    """Rank all subkey guesses by peak |correlation|."""
    if guesses is None:
        guesses = list(range(64))
    scores = []
    for guess in guesses:
        predictions = predicted_hamming_weights(trace_set.plaintexts, guess,
                                                box)
        rho = np.abs(correlation_trace(trace_set.traces, predictions))
        peak_cycle = int(rho.argmax()) if rho.size else 0
        scores.append(GuessScore(guess=guess,
                                 peak=float(rho.max()) if rho.size else 0.0,
                                 peak_cycle=peak_cycle))
    scores.sort(key=lambda s: s.peak, reverse=True)
    true_subkey = true_round1_subkey_chunk(key, box) if key is not None \
        else None
    return CpaResult(box=box, scores=scores, true_subkey=true_subkey)
