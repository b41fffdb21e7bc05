"""Working set of the per-cycle statistics: output plus a few blocks.

The verdict statistics run one pass per :data:`SCORE_BLOCK`-cycle block,
so their peak allocation is their per-cycle output plus a number of
block-sized rows that does not grow with the trace; a campaign's
Welford update and its ``max |t|`` have no per-cycle output, so they
stay below one row.  Each gate measures the traced peak
(:mod:`tracemalloc`, which sees NumPy's buffers) above the memory in use
before the call, and states its bound as a formula of the trace shape.
Whole-row evaluation (the previous implementation) exceeds each bound by
more than 1.5 MB.
"""

import tracemalloc

import numpy as np

from repro.machine.scoring import SCORE_BLOCK
from repro.obs.leakage import assess_population
from repro.obs.streaming import WelchTAccumulator, WelfordAccumulator
from repro.programs import markers as mk

#: Bytes of one float64 row of one block.
BLOCK_ROW = 8 * SCORE_BLOCK


def _traced_peak(call) -> int:
    """Peak bytes allocated by ``call()`` above those in use before it."""
    call()  # warm: lazy imports and first-use caches are not the gate
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_assess_population_peak_is_its_output_plus_blocks():
    """A 2-round DES population request's matrix, ``(8, 29723)``: the
    three per-cycle statistics (``3 * 8 * cycles``), a region's leak mask
    (``cycles`` bytes) and ``n_traces + 8`` block rows — one group's
    block of rows and the block's means, variances and temporaries."""
    n_traces, cycles = 8, 29723
    rng = np.random.default_rng(5)
    traces = rng.normal(100.0, 1.0, size=(n_traces, cycles))
    partition = np.array([0, 1, 1, 0, 1, 0, 0, 1])
    markers = [(0, mk.M_KEYPERM_START), (cycles // 2, mk.M_KEYPERM_END)]
    peak = _traced_peak(lambda: assess_population(traces, partition,
                                                  markers))
    bound = 3 * 8 * cycles + cycles + (n_traces + 8) * BLOCK_ROW
    assert peak <= bound, (peak, bound)


def test_t_statistic_peak_is_its_output_plus_blocks():
    """A 16-round DES campaign's accumulator, 187,845 cycles: the t row
    (``8 * cycles``) plus 8 block rows of temporaries and masks."""
    cycles = 187_845
    rng = np.random.default_rng(6)
    accumulator = WelchTAccumulator()
    for group in (0, 1, 0, 1, 1, 0):
        accumulator.update(rng.normal(100.0, 1.0, size=cycles), group)
    peak = _traced_peak(
        lambda: accumulator.t_statistic(definite_leaks=True))
    bound = 8 * cycles + 8 * BLOCK_ROW
    assert peak <= bound, (peak, bound)


def test_welford_update_peak_is_below_one_row():
    """Folding one 187,845-cycle trace into a campaign's state allocates
    block-sized temporaries only: less than one row (``8 * cycles``)."""
    cycles = 187_845
    rng = np.random.default_rng(7)
    accumulator = WelfordAccumulator()
    accumulator.update(rng.normal(100.0, 1.0, size=cycles))
    row = rng.normal(100.0, 1.0, size=cycles)
    peak = _traced_peak(lambda: accumulator.update(row))
    assert peak < 8 * cycles, (peak, 8 * cycles)


def test_max_abs_t_peak_is_below_one_row():
    """A campaign checkpoint's ``max |t|`` builds no t row: its peak is
    a few block rows, less than one row (``8 * cycles``)."""
    cycles = 187_845
    rng = np.random.default_rng(8)
    accumulator = WelchTAccumulator()
    for group in (0, 1, 0, 1, 1, 0):
        accumulator.update(rng.normal(100.0, 1.0, size=cycles), group)
    peak = _traced_peak(lambda: accumulator.max_abs_t())
    assert peak < 8 * cycles, (peak, 8 * cycles)
