"""Streaming accumulators: batch equivalence and disclosure-curve
semantics."""

import numpy as np
import pytest

from repro.attacks.stats import difference_of_means, welch_t_statistic
from repro.obs.streaming import (DisclosureCurve, WelchTAccumulator,
                                 WelfordAccumulator)


def _traces(n, cycles, seed=7):
    return np.random.default_rng(seed).normal(10.0, 3.0, size=(n, cycles))


def _fold(traces, accumulator, groups=None):
    """Update ``accumulator`` with each row in order (and its group)."""
    for index, row in enumerate(traces):
        if groups is None:
            accumulator.update(row)
        else:
            accumulator.update(row, int(groups[index]))
    return accumulator


# -- batch equivalence ------------------------------------------------------


def test_welford_matches_numpy_mean_and_variance():
    traces = _traces(23, 32, seed=11)
    accumulator = _fold(traces, WelfordAccumulator())
    np.testing.assert_allclose(accumulator.mean, traces.mean(axis=0),
                               rtol=1e-12)
    np.testing.assert_allclose(accumulator.variance(ddof=1),
                               traces.var(axis=0, ddof=1), rtol=1e-10)
    np.testing.assert_allclose(accumulator.variance(ddof=0),
                               traces.var(axis=0), rtol=1e-10)


def test_welford_variance_is_zero_below_ddof():
    accumulator = WelfordAccumulator()
    accumulator.update([1.0, 2.0])
    assert np.all(accumulator.variance(ddof=1) == 0.0)


def test_welch_t_matches_batch_statistic():
    traces = _traces(30, 24, seed=3)
    partition = (np.arange(30) % 2 == 0).astype(int)
    accumulator = _fold(traces, WelchTAccumulator(), groups=partition)
    batch = welch_t_statistic(traces, partition)
    np.testing.assert_allclose(accumulator.t_statistic(), batch, rtol=1e-9)


def test_mean_difference_matches_difference_of_means():
    traces = _traces(20, 16, seed=5)
    partition = (np.arange(20) >= 10).astype(int)
    accumulator = _fold(traces, WelchTAccumulator(), groups=partition)
    batch = difference_of_means(traces, partition)
    np.testing.assert_allclose(accumulator.mean_difference(), batch,
                               rtol=1e-10)


def test_welch_t_definite_leak_reports_signed_inf():
    accumulator = WelchTAccumulator()
    for _ in range(3):
        accumulator.update([1.0, 5.0, 2.0], 0)
        accumulator.update([1.0, 3.0, 4.0], 1)
    t = accumulator.t_statistic(definite_leaks=True)
    assert t[0] == 0.0                       # identical constants: no leak
    assert t[1] == float("-inf")             # group1 below group0
    assert t[2] == float("inf")
    assert accumulator.t_statistic(definite_leaks=False)[1] == 0.0
    assert accumulator.max_abs_t() == float("inf")


def test_welch_t_zeros_until_both_groups_have_two():
    accumulator = WelchTAccumulator()
    accumulator.update([1.0, 2.0], 0)
    accumulator.update([3.0, 4.0], 0)
    accumulator.update([5.0, 6.0], 1)
    assert np.all(accumulator.t_statistic(definite_leaks=True) == 0.0)


def _plain_t_statistic(accumulator, definite_leaks):
    """The t-statistic as one temporary per operation (the reference the
    buffered :meth:`WelchTAccumulator.t_statistic` must match exactly)."""
    g0, g1 = accumulator.groups
    if g0.count < 2 or g1.count < 2:
        return np.zeros_like(accumulator.mean_difference())
    diff = g1.mean - g0.mean
    denom = np.sqrt(g1.variance(ddof=1) / g1.count
                    + g0.variance(ddof=1) / g0.count)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom > 0, diff / denom, 0.0)
    if definite_leaks:
        definite = (g0.m2 == 0) & (g1.m2 == 0) & (diff != 0)
        t = np.where(definite, np.copysign(np.inf, diff), t)
    return t


def test_buffered_t_statistic_is_bit_identical_to_plain_formula():
    rng = np.random.default_rng(29)
    cycles = 400
    # Cycles 0-99 are constant per group (definite leaks, both signs,
    # plus ties), 100-149 constant in both groups with equal means.
    constant0 = rng.integers(0, 4, size=100).astype(float)
    constant1 = rng.integers(0, 4, size=100).astype(float)
    tie = rng.normal(size=50)
    accumulator = WelchTAccumulator()
    for trace in range(16):
        for group, constant in ((0, constant0), (1, constant1)):
            row = rng.normal(10.0 + group, 2.0, size=cycles)
            row[:100] = constant
            row[100:150] = tie
            accumulator.update(row, group)
            for definite_leaks in (False, True):
                buffered = accumulator.t_statistic(definite_leaks)
                plain = _plain_t_statistic(accumulator, definite_leaks)
                assert buffered.dtype == plain.dtype
                assert buffered.tobytes() == plain.tobytes()
            if accumulator.groups[1].count < 2:
                assert not buffered.any()   # < 2 traces in a group
    assert np.isposinf(buffered).any() and np.isneginf(buffered).any()
    assert np.count_nonzero(np.isinf(buffered)) == \
        np.count_nonzero(constant0 != constant1)
    assert not buffered[100:150].any()


@pytest.mark.parametrize("definite_leaks", [False, True])
def test_blocked_t_statistic_equals_the_whole_row_expression(
        definite_leaks):
    """Across block boundaries (two blocks and a 3-cycle tail) the
    blocked statistic is the plain formula byte for byte; constant
    cycles in both groups straddle a boundary and give the ±inf
    definite-leak corner and the 0 where the means agree."""
    from repro.machine.scoring import SCORE_BLOCK

    cycles = 2 * SCORE_BLOCK + 3
    traces = _traces(7, cycles, seed=13)
    partition = np.array([0, 1, 0, 1, 1, 0, 1])
    traces[:, SCORE_BLOCK - 2:SCORE_BLOCK + 2] = 4.0
    traces[partition == 1, SCORE_BLOCK] = 6.0       # +inf
    traces[partition == 1, SCORE_BLOCK + 1] = 1.0   # -inf
    accumulator = _fold(traces, WelchTAccumulator(), groups=partition)
    t = accumulator.t_statistic(definite_leaks=definite_leaks)
    expected = _plain_t_statistic(accumulator, definite_leaks)
    assert t.tobytes() == expected.tobytes()
    if definite_leaks:
        assert list(t[SCORE_BLOCK - 2:SCORE_BLOCK + 2]) == \
            [0.0, 0.0, float("inf"), float("-inf")]


def _plain_welford(rows):
    """Welford over whole rows (the reference the blocked
    :meth:`WelfordAccumulator.update` must match exactly)."""
    count, mean, m2 = 1, rows[0].copy(), np.zeros_like(rows[0])
    for row in rows[1:]:
        count += 1
        delta = row - mean
        mean += delta / count
        m2 += delta * (row - mean)
    return mean, m2


@pytest.mark.parametrize("tail", [1, 3], ids=["1-cycle-tail", "3-cycle-tail"])
def test_blocked_update_and_max_abs_t_equal_the_whole_row_expressions(tail):
    """Two blocks plus a tail (a 1-cycle tail joins the block before
    it): the blocked Welford state is the whole-row state byte for byte,
    and ``max_abs_t`` is the largest |t| of the plain statistic,
    including the ±inf definite-leak corner in the tail."""
    from repro.machine.scoring import SCORE_BLOCK

    cycles = 2 * SCORE_BLOCK + tail
    traces = _traces(9, cycles, seed=17)
    partition = np.array([0, 1, 0, 1, 1, 0, 1, 0, 0])
    traces[:, -1] = 4.0
    traces[partition == 1, -1] = 1.0                # -inf, in the tail
    accumulator = _fold(traces, WelchTAccumulator(), groups=partition)
    for group, state in enumerate(accumulator.groups):
        mean, m2 = _plain_welford(traces[partition == group])
        assert state.mean.tobytes() == mean.tobytes()
        assert state.m2.tobytes() == m2.tobytes()
    finite = np.abs(_plain_t_statistic(accumulator, False)).max()
    assert accumulator.max_abs_t(definite_leaks=False) == finite
    assert np.isfinite(finite)
    assert accumulator.t_statistic(definite_leaks=True)[-1] == -np.inf
    assert accumulator.max_abs_t(definite_leaks=True) == np.inf


def test_max_abs_t_is_zero_until_both_groups_have_two():
    accumulator = WelchTAccumulator()
    assert accumulator.max_abs_t() == 0.0
    accumulator.update([1.0, 2.0], 0)
    accumulator.update([3.0, 4.0], 0)
    accumulator.update([5.0, 9.0], 1)
    assert accumulator.max_abs_t() == 0.0


def test_update_rejects_misaligned_and_matrix_rows():
    accumulator = WelfordAccumulator()
    accumulator.update([1.0, 2.0])
    with pytest.raises(ValueError):
        accumulator.update([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        accumulator.update(np.ones((2, 2)))


# -- disclosure curve -------------------------------------------------------


def test_disclosure_requires_sustained_crossing():
    curve = DisclosureCurve(threshold=4.5, mode="t")
    for traces, value in ((8, 4.9), (16, 4.2), (24, 5.0), (32, 6.0)):
        curve.record(traces, value)
    # The 8-trace blip does not count: only the crossing that holds
    # through the end of the budget does.
    assert curve.disclosure_traces == 24
    assert curve.final_value == 6.0


def test_disclosure_never_within_budget_is_none():
    curve = DisclosureCurve(threshold=4.5)
    curve.record(8, 1.0)
    curve.record(16, 4.4)
    assert curve.disclosure_traces is None


def test_disclosure_curve_validates_inputs():
    with pytest.raises(ValueError):
        DisclosureCurve(threshold=4.5, mode="sideways")
    with pytest.raises(ValueError):
        DisclosureCurve(threshold=0, mode="rank")
    curve = DisclosureCurve(threshold=4.5)
    curve.record(8, 1.0)
    with pytest.raises(ValueError):
        curve.record(8, 2.0)
