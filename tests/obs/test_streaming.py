"""Streaming accumulators: batch equivalence, merge associativity,
disclosure-curve semantics."""

import numpy as np
import pytest

from repro.attacks.stats import difference_of_means, welch_t_statistic
from repro.obs.streaming import (MERGE_RTOL, CorrelationAccumulator,
                                 DisclosureCurve, MeanAccumulator,
                                 WelchTAccumulator, WelfordAccumulator,
                                 merged)


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


def test_mean_accumulator_matches_numpy():
    traces = _traces(17, 40)
    accumulator = _fold(traces, MeanAccumulator())
    assert accumulator.count == 17
    np.testing.assert_allclose(accumulator.mean, traces.mean(axis=0),
                               rtol=1e-12)


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


def test_correlation_matches_corrcoef():
    rng = np.random.default_rng(13)
    predictions = rng.integers(0, 5, size=40).astype(float)
    traces = np.outer(predictions, np.ones(8)) * rng.normal(
        1.0, 0.1, size=(40, 8)) + rng.normal(0, 0.5, size=(40, 8))
    accumulator = CorrelationAccumulator()
    for row, h in zip(traces, predictions):
        accumulator.update(row, h)
    rho = accumulator.correlation()
    for cycle in range(8):
        expected = np.corrcoef(predictions, traces[:, cycle])[0, 1]
        assert rho[cycle] == pytest.approx(expected, rel=1e-9)


def test_correlation_zero_for_constant_sides():
    accumulator = CorrelationAccumulator()
    for h in (1.0, 2.0, 3.0):
        accumulator.update([5.0, h], h)      # cycle 0 constant trace
    rho = accumulator.correlation()
    assert rho[0] == 0.0
    assert rho[1] == pytest.approx(1.0)
    constant = CorrelationAccumulator()
    for value in (1.0, 2.0, 3.0):
        constant.update([value], 7.0)        # constant prediction
    assert constant.correlation()[0] == 0.0


# -- merge: associativity, commutativity, shard equivalence -----------------


@pytest.mark.parametrize("factory,feed", [
    (MeanAccumulator, lambda acc, row, i: acc.update(row)),
    (WelfordAccumulator, lambda acc, row, i: acc.update(row)),
    (WelchTAccumulator, lambda acc, row, i: acc.update(row, i % 2)),
])
def test_merge_commutes_and_associates(factory, feed):
    traces = _traces(24, 12, seed=17)
    shards = []
    for start in (0, 8, 16):
        shard = factory()
        for i, row in enumerate(traces[start:start + 8], start=start):
            feed(shard, row, i)
        shards.append(shard)
    a, b, c = shards
    ab_c = merged(merged(a, b), c)
    a_bc = merged(a, merged(b, c))
    ba_c = merged(merged(b, a), c)

    def state(acc):
        if isinstance(acc, WelchTAccumulator):
            return acc.t_statistic()
        if isinstance(acc, WelfordAccumulator):
            return np.concatenate([acc.mean, acc.variance()])
        return acc.mean

    np.testing.assert_allclose(state(ab_c), state(a_bc), rtol=MERGE_RTOL)
    np.testing.assert_allclose(state(ab_c), state(ba_c), rtol=MERGE_RTOL)


def test_sharded_merge_matches_single_pass_within_tolerance():
    traces = _traces(40, 20, seed=23)
    partition = (np.arange(40) % 2).astype(int)
    single = _fold(traces, WelchTAccumulator(), groups=partition)
    combined = WelchTAccumulator()
    for start in range(0, 40, 10):
        shard = _fold(traces[start:start + 10], WelchTAccumulator(),
                      groups=partition[start:start + 10])
        combined.merge(shard)
    np.testing.assert_allclose(combined.t_statistic(), single.t_statistic(),
                               rtol=MERGE_RTOL)
    assert combined.count == single.count == 40


def test_merge_into_empty_copies_state():
    source = _fold(_traces(5, 6), WelfordAccumulator())
    empty = WelfordAccumulator()
    empty.merge(source)
    np.testing.assert_array_equal(empty.mean, source.mean)
    source.update(np.ones(6))                # no aliasing
    assert empty.count == 5


def test_merge_misaligned_raises():
    a = _fold(_traces(3, 4), WelfordAccumulator())
    b = _fold(_traces(3, 5), WelfordAccumulator())
    with pytest.raises(ValueError):
        a.merge(b)


def test_update_rejects_misaligned_and_matrix_rows():
    accumulator = MeanAccumulator()
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


def test_disclosure_rank_mode_uses_lower_is_disclosed():
    curve = DisclosureCurve(threshold=0, mode="rank")
    for traces, rank in ((4, 12), (8, 0), (12, 3), (16, 0), (20, 0)):
        curve.record(traces, rank)
    assert curve.disclosure_traces == 16


def test_disclosure_curve_validates_inputs():
    with pytest.raises(ValueError):
        DisclosureCurve(threshold=4.5, mode="sideways")
    curve = DisclosureCurve(threshold=4.5)
    curve.record(8, 1.0)
    with pytest.raises(ValueError):
        curve.record(8, 2.0)


def test_disclosure_curve_to_dict_stringifies_inf():
    curve = DisclosureCurve(threshold=4.5)
    curve.record(2, float("inf"))
    curve.record(4, float("inf"))
    document = curve.to_dict()
    assert document["values"] == ["inf", "inf"]
    assert document["disclosure_traces"] == 2
