"""Statistical primitives for power-analysis attacks.

All functions operate on trace matrices: numpy arrays of shape
``(n_traces, n_cycles)`` with per-cycle energy in pJ.  The bounded-memory
accumulators of :mod:`repro.obs.streaming` compute the same partition
statistics one row at a time (same estimator, float summation order
aside).
"""

from __future__ import annotations

import numpy as np


def difference_of_means(traces: np.ndarray,
                        partition: np.ndarray) -> np.ndarray:
    """Kocher's DPA statistic: mean(group 1) - mean(group 0) per cycle.

    ``partition`` is a 0/1 vector of length n_traces (the predicted value of
    the selection function for each trace).  Returns a vector of per-cycle
    mean differences; an all-zero vector if either group is empty.
    """
    traces = np.asarray(traces, dtype=np.float64)
    partition = np.asarray(partition)
    if partition.shape[0] != traces.shape[0]:
        raise ValueError("partition length must equal number of traces")
    ones = partition == 1
    zeros = ~ones
    if not ones.any() or not zeros.any():
        return np.zeros(traces.shape[1])
    return traces[ones].mean(axis=0) - traces[zeros].mean(axis=0)


def welch_t_statistic(traces: np.ndarray,
                      partition: np.ndarray) -> np.ndarray:
    """Per-cycle Welch t-statistic between the two partitions.

    A standard leakage-assessment statistic (TVLA-style); more robust than
    the raw mean difference when group sizes are unbalanced.
    """
    traces = np.asarray(traces, dtype=np.float64)
    partition = np.asarray(partition)
    if partition.shape[0] != traces.shape[0]:
        raise ValueError("partition length must equal number of traces")
    ones = partition == 1
    zeros = ~ones
    n1, n0 = int(ones.sum()), int(zeros.sum())
    if n1 < 2 or n0 < 2:
        return np.zeros(traces.shape[1])
    m1 = traces[ones].mean(axis=0)
    m0 = traces[zeros].mean(axis=0)
    return _welch_t(m1 - m0, traces[ones].var(axis=0, ddof=1), n1,
                    traces[zeros].var(axis=0, ddof=1), n0)


def signal_to_noise(traces: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-cycle SNR: Var_over_classes(mean) / mean_over_classes(var).

    The noise floor is the mean *sample* variance (``ddof=1``, matching
    :func:`welch_t_statistic`) over classes with at least two traces;
    singleton classes have no within-class variance estimate at all, so
    counting them as zero-variance would deflate the denominator and
    inflate the SNR.  Their means still contribute to the signal term.
    """
    traces = np.asarray(traces, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.shape[0] != traces.shape[0]:
        raise ValueError("labels length must equal number of traces")
    classes = np.unique(labels)
    if classes.size < 2:
        return np.zeros(traces.shape[1])
    means = np.stack([traces[labels == c].mean(axis=0) for c in classes])
    variances = [traces[labels == c].var(axis=0, ddof=1)
                 for c in classes if (labels == c).sum() >= 2]
    if not variances:
        return np.zeros(traces.shape[1])
    return _snr(means, variances)


def _welch_t(diff: np.ndarray, v1: np.ndarray, n1: int, v0: np.ndarray,
             n0: int) -> np.ndarray:
    """Welch t from a mean difference and both groups' ddof=1 variances
    (0 where the pooled standard error is not positive)."""
    denom = np.sqrt(v1 / n1 + v0 / n0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0, diff / denom, 0.0)


def _snr(means: np.ndarray, variances: list) -> np.ndarray:
    """SNR from the stacked class means and the ddof=1 variances of the
    classes with at least two traces."""
    noise = np.stack(variances).mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(noise > 0, means.var(axis=0) / noise, 0.0)


def cycle_blocks(cycles: int, block: int):
    """``(start, stop)`` windows of at most ``block`` cycles covering
    ``[0, cycles)``, except that a 1-cycle tail joins the window before
    it: NumPy sums a one-column reduction pairwise rather than row by
    row, so a lone last column could round differently from the same
    column reduced inside a wider matrix."""
    if block < 2:
        raise ValueError(f"block must be >= 2 cycles, got {block}")
    start = 0
    while start < cycles:
        stop = start + block
        if stop >= cycles - 1:
            stop = cycles
        yield start, stop
        start = stop


def _moments(rows: np.ndarray):
    """Mean and ddof=1 variance (``None`` for one row) of a group's
    rows, by the operations ``rows.mean(axis=0)`` and
    ``rows.var(axis=0, ddof=1)`` perform, the variance reusing the mean.
    ``rows`` is a scratch copy; it is overwritten."""
    count = rows.shape[0]
    mean = np.add.reduce(rows, axis=0)
    mean /= count
    if count < 2:
        return mean, None
    rows -= mean
    rows *= rows
    variance = np.add.reduce(rows, axis=0)
    variance /= count - 1
    return mean, variance


def partition_statistics(traces: np.ndarray, partition: np.ndarray) \
        -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`difference_of_means`, :func:`welch_t_statistic` and
    :func:`signal_to_noise` of one 0/1 partition, in one pass.

    Each window of :data:`repro.machine.scoring.SCORE_BLOCK` cycles (see
    :func:`cycle_blocks`) copies each group's rows once and computes the
    group's mean and ddof=1 variance once; all three statistics come
    from those values.
    Every cycle gets the float operations of the three functions in the
    same order, so the results are equal bit for bit, while the working
    set is the three per-cycle outputs plus a few blocks, whatever the
    trace length.
    """
    traces = np.asarray(traces, dtype=np.float64)
    partition = np.asarray(partition)
    if partition.shape[0] != traces.shape[0]:
        raise ValueError("partition length must equal number of traces")
    if not np.isin(partition, (0, 1)).all():
        raise ValueError("partition must be a 0/1 vector")
    from ..machine import scoring

    ones = partition == 1
    groups = (np.flatnonzero(~ones), np.flatnonzero(ones))
    n0, n1 = groups[0].size, groups[1].size
    cycles = traces.shape[1]
    diff, t, snr = np.zeros(cycles), np.zeros(cycles), np.zeros(cycles)
    if not n0 or not n1:
        return diff, t, snr
    for start, stop in cycle_blocks(cycles, scoring.SCORE_BLOCK):
        window = traces[:, start:stop]
        (m0, v0), (m1, v1) = (_moments(window[rows]) for rows in groups)
        np.subtract(m1, m0, out=diff[start:stop])
        if v0 is not None and v1 is not None:
            t[start:stop] = _welch_t(diff[start:stop], v1, n1, v0, n0)
        variances = [v for v in (v0, v1) if v is not None]
        if variances:
            snr[start:stop] = _snr(np.stack((m0, m1)), variances)
    return diff, t, snr


def moving_average(signal: np.ndarray, window: int) -> np.ndarray:
    """Boxcar smoothing (used by SPA round detection).

    Each output sample is the mean of the input samples actually inside
    the window, so the first/last half-window average over fewer samples
    instead of being dragged toward zero by implicit zero padding (which
    skewed round-boundary detection at the trace edges).  ``window`` is
    clamped to the signal length, so oversized windows are well defined.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if window <= 1 or signal.size == 0:
        return signal
    window = min(window, signal.size)
    kernel = np.ones(window)
    sums = np.convolve(signal, kernel, mode="same")
    counts = np.convolve(np.ones(signal.size), kernel, mode="same")
    return sums / counts
