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
    v1 = traces[ones].var(axis=0, ddof=1)
    v0 = traces[zeros].var(axis=0, ddof=1)
    denom = np.sqrt(v1 / n1 + v0 / n0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom > 0, (m1 - m0) / denom, 0.0)
    return t


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
    noise = np.stack(variances).mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = np.where(noise > 0, means.var(axis=0) / noise, 0.0)
    return snr


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
