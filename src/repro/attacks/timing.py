"""Timing attacks against early-exit comparisons.

The paper's introduction motivates masking with exactly this scenario:
"power analysis can be used to identify the specific portions of the
program being executed to induce timing glitches that may in turn help to
bypass key checking."  An early-exit comparison (PIN check, MAC check)
runs longer the more leading digits match, so an attacker who can measure
execution time extracts the secret digit by digit: at most
``positions x alphabet`` guesses instead of ``alphabet ^ positions``.

:func:`extract_secret_by_timing` automates the attack against any compiled
program exposing a guess symbol; the device model is simply "run the
program, observe the cycle count".  Against a constant-time (masked,
branch-free) implementation the oracle is flat and the attack returns no
information — which is how the tests use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..isa.program import Program
from ..machine.cpu import run_to_halt


@dataclass
class TimingAttackResult:
    """Outcome of a digit-by-digit timing extraction."""

    recovered: list[Optional[int]]
    #: cycle counts observed per (position, guess) — the attack transcript.
    measurements: int = 0
    #: True when every position produced a unique timing maximum.
    conclusive: bool = False
    notes: list[str] = field(default_factory=list)


def measure_cycles(program: Program, guess_symbol: str, guess: list[int],
                   fixed_inputs: Optional[dict[str, list[int]]] = None,
                   max_cycles: int = 10_000_000) -> int:
    """The attacker's oracle: total cycles for one guess."""
    inputs = dict(fixed_inputs or {})
    inputs[guess_symbol] = guess
    return run_to_halt(program, inputs=inputs, max_cycles=max_cycles).cycles


def extract_secret_by_timing(program: Program, guess_symbol: str,
                             positions: int, alphabet: int = 10,
                             fixed_inputs: Optional[dict[str,
                                                         list[int]]] = None,
                             filler: int = 0) -> TimingAttackResult:
    """Recover an early-exit-compared secret one position at a time.

    For each position, tries every symbol of the alphabet (holding the
    already-recovered prefix) and locks in the guess whose run takes
    strictly the longest — with an early-exit comparison, the guess that
    survives one more digit runs one more loop iteration.  If no guess
    stands out (a constant-time target), the position is left as None and
    the attack is marked inconclusive.
    """
    recovered: list[Optional[int]] = [None] * positions
    measurements = 0
    conclusive = True
    notes: list[str] = []
    prefix: list[int] = []
    for position in range(positions):
        timings: dict[int, int] = {}
        for symbol in range(alphabet):
            guess = prefix + [symbol] \
                + [filler] * (positions - position - 1)
            timings[symbol] = measure_cycles(program, guess_symbol, guess,
                                             fixed_inputs)
            measurements += 1
        longest = max(timings.values())
        winners = [symbol for symbol, cycles in timings.items()
                   if cycles == longest]
        if len(winners) == 1:
            recovered[position] = winners[0]
            prefix.append(winners[0])
        else:
            conclusive = False
            notes.append(
                f"position {position}: {len(winners)} guesses tie at "
                f"{longest} cycles — no timing signal")
            break
    return TimingAttackResult(recovered=recovered,
                              measurements=measurements,
                              conclusive=conclusive, notes=notes)
