"""Energy profiling utilities."""

import numpy as np
import pytest

from repro.energy.trace import EnergyTrace
from repro.harness.profiling import (component_breakdown, des_phase_labels,
                                     phase_energy)


def test_phase_energy_basic():
    trace = EnergyTrace(energy=np.array([1.0, 1.0, 2.0, 2.0, 3.0]),
                        markers=((2, 7), (4, 8)))
    phases = phase_energy(trace)
    assert [(p.label, p.energy_pj) for p in phases] == [
        ("start", 2.0), ("marker=7", 4.0), ("marker=8", 3.0)]
    assert phases[0].cycles == 2
    assert phases[1].average_pj == 2.0


def test_phase_energy_labels():
    trace = EnergyTrace(energy=np.ones(4), markers=((1, 5),))
    phases = phase_energy(trace, labels={5: "round 1"})
    assert phases[1].label == "round 1"


def test_phase_energy_no_markers():
    trace = EnergyTrace(energy=np.ones(3), markers=())
    phases = phase_energy(trace)
    assert len(phases) == 1
    assert phases[0].energy_pj == 3.0


def test_phase_energy_marker_at_zero():
    trace = EnergyTrace(energy=np.ones(3), markers=((0, 1),))
    phases = phase_energy(trace)
    # Empty leading span dropped.
    assert phases[0].label == "marker=1"


def test_phase_energy_zero_length_marker_span_kept():
    # Two markers on the same cycle: the earlier one compiled to zero
    # instructions but must still appear (with zero energy), and the
    # phase energies must still sum to the trace total.
    trace = EnergyTrace(energy=np.ones(4), markers=((2, 7), (2, 8)))
    phases = phase_energy(trace, labels={7: "empty phase"})
    assert [(p.label, p.cycles, p.energy_pj) for p in phases] == [
        ("start", 2, 2.0), ("empty phase", 0, 0.0), ("marker=8", 2, 2.0)]
    assert phases[1].average_pj == 0.0  # no division by zero
    assert sum(p.energy_pj for p in phases) == trace.total_pj


def test_des_phase_labels():
    labels = des_phase_labels(rounds=2)
    assert labels[1] == "initial permutation"
    assert labels[10] == "round 1"
    assert labels[11] == "round 2"
    assert 12 not in labels


def test_component_breakdown_sums_to_one(round1_unmasked):
    from repro.harness.runner import des_run

    run = des_run(round1_unmasked.program, 0x133457799BBCDFF1,
                  0x0123456789ABCDEF)
    rows = component_breakdown(run)
    assert sum(fraction for _, _, fraction in rows) == pytest.approx(1.0)
    totals = {name: total for name, total, _ in rows}
    assert totals["clock"] > 0
    assert totals["secure"] == 0.0  # unmasked build


def test_des_phase_energy_covers_run(round1_unmasked):
    from repro.harness.runner import des_run

    run = des_run(round1_unmasked.program, 0x133457799BBCDFF1,
                  0x0123456789ABCDEF)
    phases = phase_energy(run.trace, des_phase_labels(rounds=1))
    total = sum(p.energy_pj for p in phases)
    assert total == pytest.approx(run.trace.total_pj)
    labels = [p.label for p in phases]
    assert "initial permutation" in labels
    assert "round 1" in labels
    # Round 1 dominates the energy of the 1-round program.
    round1 = next(p for p in phases if p.label == "round 1")
    assert round1.energy_pj > 0.5 * total
