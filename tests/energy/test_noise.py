"""Noise injection in the tracker (randomized-power countermeasure)."""

import numpy as np
import pytest

from repro.energy.tracker import EnergyTracker
from repro.harness.runner import run_with_trace
from repro.isa.assembler import assemble

SOURCE = """
.data
x: .word 5
.text
lw $t0, x
addiu $t0, $t0, 1
sw $t0, x
nop
nop
halt
"""


def trace_with_noise(sigma, seed):
    return run_with_trace(assemble(SOURCE), noise_sigma=sigma,
                          noise_seed=seed).trace.energy


def test_no_noise_is_deterministic():
    assert np.array_equal(trace_with_noise(0.0, 1), trace_with_noise(0.0, 2))


def test_noise_changes_trace():
    clean = trace_with_noise(0.0, 0)
    noisy = trace_with_noise(5.0, 1)
    assert not np.array_equal(clean, noisy)


def test_noise_reproducible_per_seed():
    assert np.array_equal(trace_with_noise(5.0, 7), trace_with_noise(5.0, 7))
    assert not np.array_equal(trace_with_noise(5.0, 7),
                              trace_with_noise(5.0, 8))


def test_noise_is_zero_mean():
    clean = trace_with_noise(0.0, 0)
    deltas = [trace_with_noise(3.0, seed) - clean for seed in range(30)]
    mean_offset = float(np.mean(deltas))
    assert abs(mean_offset) < 1.0  # zero-mean within sampling error


def test_noise_sigma_scales():
    clean = trace_with_noise(0.0, 0)
    small = np.std(trace_with_noise(1.0, 3) - clean)
    large = np.std(trace_with_noise(10.0, 3) - clean)
    assert large > 5 * small


def test_noise_counted_in_totals():
    """Injected noise must not desynchronize the tracker's running totals
    from the per-cycle trace (it is booked under the "noise" key)."""
    result = run_with_trace(assemble(SOURCE), noise_sigma=5.0, noise_seed=3)
    tracker = result.tracker
    assert tracker.totals["noise"] != 0.0
    assert tracker.total_energy_pj == pytest.approx(result.trace.total_pj)
    assert sum(tracker.totals.values()) == pytest.approx(
        sum(tracker.cycle_energy))
    assert result.total_uj == pytest.approx(result.trace.total_uj)


def test_noiseless_run_has_zero_noise_total():
    result = run_with_trace(assemble(SOURCE))
    assert result.tracker.totals["noise"] == 0.0


def test_noise_buffer_refills_for_long_runs():
    """Runs longer than the 4096-sample buffer must keep injecting."""
    tracker = EnergyTracker(noise_sigma=2.0, noise_seed=5)
    for _ in range(5000):
        tracker.begin_cycle()
        tracker.end_cycle()
    energy = np.asarray(tracker.cycle_energy)
    tail = energy[4096:] - tracker.params.e_clock_cycle
    assert np.std(tail) > 0.5  # still noisy after the refill


@pytest.mark.parametrize("lead", [0, 100, 4096])
def test_noise_draws_match_single_draws(lead):
    """``noise_draws(count)`` returns exactly the values ``count`` calls
    of ``_next_noise()`` return, across the 4096-sample chunk edges."""
    batched = EnergyTracker(noise_sigma=2.0, noise_seed=11)
    single = EnergyTracker(noise_sigma=2.0, noise_seed=11)
    for _ in range(lead):
        assert batched._next_noise() == single._next_noise()
    for count in (1, 3000, 5000, 0, 9000):
        draws = batched.noise_draws(count)
        assert draws.shape == (count,)
        assert draws.tolist() == [single._next_noise()
                                  for _ in range(count)]
    assert batched._next_noise() == single._next_noise()
