"""EnergyTrace: windows, markers, decimation, differentials."""

import numpy as np
import pytest

from repro.energy.trace import EnergyTrace


def make_trace(values, markers=()):
    return EnergyTrace(energy=np.asarray(values, dtype=np.float64),
                       markers=tuple(markers))


def test_len_and_totals():
    trace = make_trace([1.0, 2.0, 3.0])
    assert len(trace) == 3
    assert trace.total_pj == 6.0
    assert trace.total_uj == pytest.approx(6e-6)


def test_marker_cycles():
    trace = make_trace([0] * 10, markers=[(2, 5), (7, 5), (4, 9)])
    assert trace.marker_cycles(5) == [2, 7]
    assert trace.marker_cycles(9) == [4]
    assert trace.marker_cycles(1) == []


def test_phase_bounds():
    trace = make_trace([0] * 10, markers=[(2, 1), (8, 2)])
    assert trace.phase_bounds(1, 2) == (2, 8)


def test_phase_bounds_missing_marker():
    trace = make_trace([0] * 10, markers=[(2, 1)])
    with pytest.raises(ValueError):
        trace.phase_bounds(1, 2)
    with pytest.raises(ValueError):
        trace.phase_bounds(9, 1)


def test_window_slices_and_shifts_markers():
    trace = make_trace(range(10), markers=[(3, 7), (8, 8)])
    window = trace.window(3, 8)
    assert list(window.energy) == [3, 4, 5, 6, 7]
    assert window.markers == ((0, 7),)


def test_phase_convenience():
    trace = make_trace(range(10), markers=[(2, 1), (6, 2)])
    phase = trace.phase(1, 2)
    assert list(phase.energy) == [2, 3, 4, 5]


def test_decimate_averages_blocks():
    trace = make_trace([1, 1, 3, 3, 5, 5, 9])
    decimated = trace.decimate(2)
    assert list(decimated) == [1, 3, 5]  # trailing partial block dropped


def test_decimate_short_trace():
    assert make_trace([1]).decimate(10).size == 0


def test_diff_requires_alignment():
    a = make_trace([1, 2, 3])
    b = make_trace([1, 2])
    with pytest.raises(ValueError):
        a.diff(b)


def test_diff_values():
    a = make_trace([5, 5, 5])
    b = make_trace([1, 2, 3])
    assert list(a.diff(b)) == [4, 3, 2]


def test_from_tracker():
    class FakeTracker:
        cycle_energy = [1.0, 2.0]
        component_energy = [(0.5, 0.5), (1.0, 1.0)]

    trace = EnergyTrace.from_tracker(FakeTracker(), markers=[(1, 3)],
                                     label="x")
    assert len(trace) == 2
    assert trace.components.shape == (2, 2)
    assert trace.label == "x"
    assert trace.markers == ((1, 3),)


def test_window_slices_components():
    trace = EnergyTrace(energy=np.arange(4, dtype=np.float64),
                        components=np.arange(8, dtype=np.float64)
                        .reshape(4, 2))
    window = trace.window(1, 3)
    assert window.components.shape == (2, 2)
    assert window.components[0, 0] == 2
