"""Differential power analysis against the simulated DES implementation.

Implements the Kocher/Goubin attack the paper defends against (its Section
1 describes exactly this procedure): collect N traces with random known
plaintexts and a fixed secret key, guess a 6-bit round-1 subkey chunk,
partition the traces by a predicted intermediate bit, and look for a
difference-of-means peak.  The correct guess produces a peak because the
predicted bit matches the device's real data; wrong guesses decorrelate.

Against the masked program the secured region is energy-constant, so no
partition produces a peak and the correct subkey is not distinguished.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..energy.params import DEFAULT_PARAMS, EnergyParams
from ..isa.program import Program
from .selection import predict_sbox_output_bit, true_round1_subkey_chunk
from .stats import difference_of_means


@dataclass
class TraceSet:
    """Traces collected from the device under attack."""

    plaintexts: list[int]
    traces: np.ndarray            # (n, cycles)
    #: Cycle window the analysis runs over (attacker-chosen via SPA).
    window: tuple[int, int]

    @property
    def n(self) -> int:
        return len(self.plaintexts)


@dataclass
class GuessScore:
    guess: int
    peak: float
    peak_cycle: int


@dataclass
class DpaResult:
    box: int
    target_bit: int
    scores: list[GuessScore]       # sorted by peak, descending
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
        """Peak of the best guess over the best *other* guess (>1 means the
        winner is distinguished; ~1 means the attack found nothing)."""
        best = self.scores[0].peak
        runner_up = self.scores[1].peak if len(self.scores) > 1 else 0.0
        if runner_up <= 0:
            return float("inf") if best > 0 else 1.0
        return best / runner_up

    def succeeded(self) -> bool:
        """True if the true subkey ranks first."""
        return self.rank_of_true == 0


def collect_traces(program: Program, key: int, plaintexts: list[int],
                   params: EnergyParams = DEFAULT_PARAMS,
                   window: Optional[tuple[int, int]] = None,
                   progress: Optional[Callable[[int, int], None]] = None,
                   noise_sigma: float = 0.0, jobs: int = 1,
                   retries: int = 0, job_timeout: Optional[float] = None,
                   checkpoint: Optional[str] = None,
                   engine: Optional[str] = None) -> TraceSet:
    """Run the device once per plaintext and stack the energy traces.

    ``window`` restricts the stored cycles (an attacker applies SPA first to
    find the round-1 region); default keeps the whole trace.
    ``noise_sigma`` adds the randomized-power countermeasure (fresh noise
    per acquisition, as a real device would produce).
    ``jobs`` fans the acquisitions across worker processes; each trace
    keeps its serial noise seed (``index + 1``), so the stacked matrix is
    bit-identical to a ``jobs=1`` collection.

    Long collections can be made fault-tolerant: ``retries`` re-runs a
    crashed/timed-out acquisition (retried traces are bit-identical —
    the noise seed is per-job), ``job_timeout`` bounds each acquisition
    in wall-clock seconds, and ``checkpoint`` journals completed traces
    so an interrupted collection resumes where it stopped.  DPA needs
    every trace, so a job that still fails after its retry budget raises
    :class:`~repro.harness.resilience.BatchError`.

    ``engine`` picks the execution engine per acquisition (default: the
    ambient ``$REPRO_ENGINE``, else the schedule-replay fast path, which
    is bit-identical).  Under a schedule-replaying engine, ``run_jobs``
    records the program's cycle schedule **once in the parent** before
    the batch is dispatched to the pool, so workers inherit it (fork) or
    load it from the shared disk cache instead of each re-recording it.
    """
    # Imported here to avoid a package-level cycle (harness.experiments
    # imports this module).
    from ..harness.engine import SimJob, run_jobs
    from ..harness.resilience import require_results

    batch = [SimJob(program=program, des_pair=(key, plaintext),
                    params=params, noise_sigma=noise_sigma,
                    noise_seed=index + 1, label=f"trace[{index}]",
                    engine=engine)
             for index, plaintext in enumerate(plaintexts)]
    results = run_jobs(batch, jobs=jobs, progress=progress,
                       failure_policy="retry" if retries else "raise",
                       retries=retries, job_timeout=job_timeout,
                       checkpoint=checkpoint)
    rows = []
    for result in require_results(results):
        energy = result.energy
        if window is not None:
            energy = energy[window[0]:window[1]]
        rows.append(energy)
    lengths = {row.shape[0] for row in rows}
    if len(lengths) != 1:
        raise RuntimeError("traces are not cycle-aligned; DPA needs "
                           "identical control flow across plaintexts")
    traces = np.vstack(rows)
    if window is None:
        window = (0, traces.shape[1])
    return TraceSet(plaintexts=list(plaintexts), traces=traces, window=window)


def dpa_attack(trace_set: TraceSet, box: int, target_bit: int = 0,
               key: Optional[int] = None,
               guesses: Optional[list[int]] = None) -> DpaResult:
    """Rank all subkey guesses for one S-box by difference-of-means peak."""
    if guesses is None:
        guesses = list(range(64))
    scores = []
    for guess in guesses:
        partition = np.fromiter(
            (predict_sbox_output_bit(pt, guess, box, target_bit)
             for pt in trace_set.plaintexts),
            dtype=np.int8, count=trace_set.n)
        delta = difference_of_means(trace_set.traces, partition)
        abs_delta = np.abs(delta)
        peak_cycle = int(abs_delta.argmax()) if abs_delta.size else 0
        scores.append(GuessScore(guess=guess,
                                 peak=float(abs_delta.max()) if abs_delta.size
                                 else 0.0,
                                 peak_cycle=peak_cycle))
    scores.sort(key=lambda s: s.peak, reverse=True)
    true_subkey = true_round1_subkey_chunk(key, box) if key is not None \
        else None
    return DpaResult(box=box, target_bit=target_bit, scores=scores,
                     true_subkey=true_subkey)


def dpa_attack_multibit(trace_set: TraceSet, box: int,
                        key: Optional[int] = None,
                        guesses: Optional[list[int]] = None) -> DpaResult:
    """Multi-bit DPA: sum the per-bit difference-of-means peaks over all
    four S-box output bits.  Sharper than single-bit DPA at equal trace
    counts (Messerges-style d-of-m generalization)."""
    if guesses is None:
        guesses = list(range(64))
    scores = []
    for guess in guesses:
        total = 0.0
        peak_cycle = 0
        best_bit_peak = -1.0
        for bit in range(4):
            partition = np.fromiter(
                (predict_sbox_output_bit(pt, guess, box, bit)
                 for pt in trace_set.plaintexts),
                dtype=np.int8, count=trace_set.n)
            delta = np.abs(difference_of_means(trace_set.traces, partition))
            if delta.size:
                peak = float(delta.max())
                total += peak
                if peak > best_bit_peak:
                    best_bit_peak = peak
                    peak_cycle = int(delta.argmax())
        scores.append(GuessScore(guess=guess, peak=total,
                                 peak_cycle=peak_cycle))
    scores.sort(key=lambda s: s.peak, reverse=True)
    true_subkey = true_round1_subkey_chunk(key, box) if key is not None \
        else None
    return DpaResult(box=box, target_bit=-1, scores=scores,
                     true_subkey=true_subkey)


def random_plaintexts(count: int, seed: int = 2003) -> list[int]:
    """Deterministic random 64-bit plaintexts for reproducible attacks."""
    rng = np.random.default_rng(seed)
    high = rng.integers(0, 1 << 32, size=count, dtype=np.uint64)
    low = rng.integers(0, 1 << 32, size=count, dtype=np.uint64)
    return [int((h << np.uint64(32)) | l) for h, l in zip(high, low)]
