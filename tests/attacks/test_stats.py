"""Attack statistics primitives."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.attacks.stats import (cycle_blocks, difference_of_means,
                                 moving_average, partition_statistics,
                                 signal_to_noise, welch_t_statistic)
from repro.obs.streaming import WelchTAccumulator


def test_difference_of_means_basic():
    traces = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    partition = np.array([0, 0, 1, 1])
    delta = difference_of_means(traces, partition)
    assert list(delta) == [4.0, 4.0]


def test_difference_of_means_empty_group():
    traces = np.ones((3, 4))
    assert list(difference_of_means(traces, np.zeros(3, dtype=int))) == \
        [0.0] * 4


def test_difference_of_means_length_mismatch():
    with pytest.raises(ValueError):
        difference_of_means(np.ones((3, 4)), np.array([0, 1]))


def test_welch_t_needs_two_per_group():
    traces = np.ones((3, 2))
    assert list(welch_t_statistic(traces, np.array([1, 0, 0]))) == [0.0, 0.0]


def test_welch_t_length_mismatch():
    with pytest.raises(ValueError):
        welch_t_statistic(np.ones((4, 2)), np.array([0, 1]))


def test_signal_to_noise_length_mismatch():
    with pytest.raises(ValueError):
        signal_to_noise(np.ones((4, 2)), np.array([0, 1, 0, 1, 0]))


def test_welch_t_detects_difference():
    rng = np.random.default_rng(1)
    group0 = rng.normal(0.0, 0.1, size=(50, 3))
    group1 = rng.normal(0.0, 0.1, size=(50, 3))
    group1[:, 1] += 5.0  # big effect at cycle 1
    traces = np.vstack([group0, group1])
    partition = np.array([0] * 50 + [1] * 50)
    t = welch_t_statistic(traces, partition)
    assert abs(t[1]) > 10
    assert abs(t[0]) < 4


def test_welch_t_zero_variance_is_zero_not_nan():
    traces = np.ones((6, 2))
    t = welch_t_statistic(traces, np.array([0, 0, 0, 1, 1, 1]))
    assert not np.isnan(t).any()
    assert list(t) == [0.0, 0.0]


def test_signal_to_noise_single_class():
    traces = np.ones((4, 2))
    assert list(signal_to_noise(traces, np.zeros(4, dtype=int))) == [0.0, 0.0]


def test_signal_to_noise_detects_leaky_cycle():
    rng = np.random.default_rng(2)
    labels = np.array([0, 1] * 40)
    traces = rng.normal(0, 0.1, size=(80, 4))
    traces[:, 2] += labels * 3.0
    snr = signal_to_noise(traces, labels)
    assert snr[2] > snr[0]
    assert snr[2] > 10


def test_moving_average_window_one_is_identity():
    signal = np.array([1.0, 5.0, 3.0])
    assert list(moving_average(signal, 1)) == [1.0, 5.0, 3.0]


def test_moving_average_smooths():
    signal = np.array([0.0, 10.0, 0.0, 10.0, 0.0, 10.0])
    smooth = moving_average(signal, 2)
    assert smooth.var() < signal.var()


# -- regressions against brute-force references -------------------------

def test_signal_to_noise_matches_brute_force_sample_variance():
    """The noise floor is the mean *sample* variance (ddof=1), matching
    welch_t_statistic — not the population variance (ddof=0) the first
    implementation used, which biased the SNR upward."""
    rng = np.random.default_rng(3)
    traces = rng.normal(0.0, 1.0, size=(30, 5))
    labels = np.array([0, 1, 2] * 10)
    snr = signal_to_noise(traces, labels)
    classes = np.unique(labels)
    means = np.stack([traces[labels == c].mean(axis=0) for c in classes])
    noise = np.stack([traces[labels == c].var(axis=0, ddof=1)
                      for c in classes]).mean(axis=0)
    expected = means.var(axis=0) / noise
    assert np.allclose(snr, expected)
    # ddof=0 would deflate the noise floor by (n-1)/n per class: make sure
    # the fix is actually observable on this data.
    noise0 = np.stack([traces[labels == c].var(axis=0, ddof=0)
                       for c in classes]).mean(axis=0)
    assert not np.allclose(expected, means.var(axis=0) / noise0)


def test_signal_to_noise_excludes_singleton_classes_from_noise():
    """A class with one trace has no variance estimate; counting it as
    zero-variance deflated the denominator and inflated the SNR."""
    traces = np.array([[1.0], [3.0], [1.0], [3.0], [100.0]])
    labels = np.array([0, 0, 1, 1, 2])
    snr = signal_to_noise(traces, labels)
    means = np.array([2.0, 2.0, 100.0])
    noise = 2.0  # mean of the two ddof=1 class variances; class 2 excluded
    assert np.allclose(snr, means.var() / noise)


def test_signal_to_noise_all_singletons_returns_zeros():
    traces = np.arange(6.0).reshape(3, 2)
    snr = signal_to_noise(traces, np.array([0, 1, 2]))
    assert list(snr) == [0.0, 0.0]


def test_moving_average_matches_brute_force_window_means():
    """Each output sample averages the samples actually inside the
    window — no implicit zero padding dragging the edges toward zero."""
    signal = np.array([4.0, 8.0, 6.0, 2.0, 10.0])
    for window in (2, 3, 4, 5):
        smooth = moving_average(signal, window)
        for i in range(signal.size):
            # The window 'same'-mode convolution places around sample i.
            lo = max(0, i - window // 2)
            hi = min(signal.size, i + (window - 1) // 2 + 1)
            assert smooth[i] == pytest.approx(signal[lo:hi].mean()), \
                (window, i)


def test_moving_average_edges_not_dragged_to_zero():
    signal = np.full(8, 5.0)
    smooth = moving_average(signal, 4)
    assert np.allclose(smooth, 5.0)  # zero padding would dip the edges


def test_moving_average_window_larger_than_signal_is_clamped():
    signal = np.array([2.0, 4.0, 6.0])
    smooth = moving_average(signal, 10)
    assert smooth.shape == signal.shape
    assert np.isfinite(smooth).all()
    assert smooth[1] == pytest.approx(4.0)


def test_moving_average_empty_signal():
    assert moving_average(np.array([]), 5).size == 0


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=4,
                max_size=32))
def test_difference_of_means_antisymmetric(values):
    traces = np.array(values, dtype=np.float64).reshape(-1, 1)
    n = traces.shape[0]
    partition = np.array([0, 1] * (n // 2) + [0] * (n % 2))
    if partition.sum() == 0 or partition.sum() == n:
        return
    d1 = difference_of_means(traces, partition)
    d2 = difference_of_means(traces, 1 - partition)
    assert np.allclose(d1, -d2)


# -- streaming path ---------------------------------------------------------


def _streamed(traces, partition) -> WelchTAccumulator:
    """Fold the rows one at a time, as a streaming campaign does."""
    accumulator = WelchTAccumulator()
    for row, group in zip(traces, partition):
        accumulator.update(row, int(group))
    return accumulator


def test_difference_of_means_streaming_matches_batch():
    rng = np.random.default_rng(31)
    traces = rng.normal(100, 2, size=(25, 12))
    partition = (rng.random(25) > 0.5).astype(int)
    np.testing.assert_allclose(
        _streamed(traces, partition).mean_difference(),
        difference_of_means(traces, partition), rtol=1e-10)


def test_welch_t_streaming_matches_batch():
    rng = np.random.default_rng(37)
    traces = rng.normal(100, 2, size=(30, 10))
    partition = (np.arange(30) % 2).astype(int)
    np.testing.assert_allclose(
        _streamed(traces, partition).t_statistic(),
        welch_t_statistic(traces, partition), rtol=1e-9)


def test_streaming_path_keeps_edge_case_semantics():
    traces = np.ones((3, 4))
    one_sided = np.zeros(3, dtype=int)
    streamed = _streamed(traces, one_sided)
    for statistic in (difference_of_means(traces, one_sided),
                      welch_t_statistic(traces, one_sided),
                      streamed.mean_difference(), streamed.t_statistic()):
        assert list(statistic) == [0.0] * 4


# -- blocked partition statistics -------------------------------------------


def _assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype == np.float64
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("partition", [
    [0, 0, 0, 0, 0],               # an empty group
    [1, 0, 0, 0, 0],               # a 1-trace group
    [0, 1, 1, 0, 0, 1],            # a 2-trace group (and a 3-trace one)
    [1, 0, 1, 0],                  # two 2-trace groups
    [0, 1] * 10,                   # 10-trace groups: summed row by row
    [1] * 9 + [0] * 2,
], ids=["empty", "single", "two-three", "two-two", "ten-ten", "nine-two"])
@pytest.mark.parametrize("cycles", [1, 2, 7, 8, 9, 13, 17])
def test_partition_statistics_equal_the_unblocked_functions(
        monkeypatch, partition, cycles):
    """One pass per 4-cycle block gives the three public statistics bit
    for bit, for every group shape and for cycle counts that leave a
    partial last block — including a 1-cycle tail (9, 13, 17)."""
    from repro.machine import scoring

    monkeypatch.setattr(scoring, "SCORE_BLOCK", 4)
    rng = np.random.default_rng(cycles)
    partition = np.array(partition)
    traces = rng.normal(100.0, 3.0, size=(partition.size, cycles)) \
        * rng.choice([1e-6, 1.0, 1e6], size=cycles)
    traces[:, ::5] = 7.0  # zero-variance cycles: t and SNR are 0 there
    diff, t, snr = partition_statistics(traces, partition)
    _assert_same_bits(diff, difference_of_means(traces, partition))
    _assert_same_bits(t, welch_t_statistic(traces, partition))
    _assert_same_bits(snr, signal_to_noise(traces, partition))


def test_a_one_cycle_tail_joins_the_block_before_it():
    """NumPy sums a one-column group pairwise, not row by row, so a lone
    last cycle could round differently; the tail joins the last block."""
    assert list(cycle_blocks(9, 4)) == [(0, 4), (4, 9)]
    assert list(cycle_blocks(10, 4)) == [(0, 4), (4, 8), (8, 10)]
    assert list(cycle_blocks(1, 4)) == [(0, 1)]
    assert list(cycle_blocks(0, 4)) == []
    with pytest.raises(ValueError):
        list(cycle_blocks(9, 1))


def test_partition_statistics_default_block_covers_long_traces():
    from repro.machine.scoring import SCORE_BLOCK

    rng = np.random.default_rng(2)
    partition = np.array([0, 1, 1, 0, 1, 0, 0, 1])
    traces = rng.normal(50.0, 2.0, size=(8, 2 * SCORE_BLOCK + 1))
    diff, t, snr = partition_statistics(traces, partition)
    _assert_same_bits(diff, difference_of_means(traces, partition))
    _assert_same_bits(t, welch_t_statistic(traces, partition))
    _assert_same_bits(snr, signal_to_noise(traces, partition))


def test_partition_statistics_wants_a_0_1_partition():
    with pytest.raises(ValueError, match="0/1"):
        partition_statistics(np.ones((3, 4)), np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="length"):
        partition_statistics(np.ones((3, 4)), np.array([0, 1]))
