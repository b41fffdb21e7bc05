"""Switch-level pre-charged dual-rail XOR cell (paper Fig. 5)."""

import pytest
from hypothesis import given, strategies as st

from repro.energy.circuits import PrechargedXorCell

BIT = st.integers(min_value=0, max_value=1)


def test_secure_steady_state_is_one_event_per_cycle():
    cell = PrechargedXorCell()
    cell.step(0, 0, secure=True)  # first cycle charges both nodes
    for a, b in [(0, 1), (1, 1), (1, 0), (0, 0)]:
        assert cell.step(a, b, secure=True).charging_events == 1


def test_secure_exactly_one_discharge_per_cycle():
    cell = PrechargedXorCell()
    for a, b in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert cell.step(a, b, secure=True).discharge_events == 1


def test_secure_rails_complementary():
    cell = PrechargedXorCell()
    for a, b in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        cell.step(a, b, secure=True)
        assert cell.q ^ cell.qbar == 1
        assert cell.q == (a ^ b)


def test_normal_mode_energy_depends_on_data():
    cell = PrechargedXorCell()
    cell.step(0, 0, secure=False)   # q ends low
    # Result 1: precharge (1 event), stays high.
    e_one = cell.step(0, 1, secure=False).charging_events
    # Result 1 again from high q: no precharge event needed.
    e_one_again = cell.step(1, 0, secure=False).charging_events
    assert e_one != e_one_again


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        PrechargedXorCell().step(2, 0, secure=True)


@given(st.lists(st.tuples(BIT, BIT), min_size=2, max_size=64))
def test_secure_energy_constant_property(samples):
    """After the first cycle, every secure cycle costs the same number of
    charging events whatever the input pair sequence."""
    cell = PrechargedXorCell()
    energies = [cell.step(a, b, secure=True).charging_events
                for a, b in samples]
    assert len(set(energies[1:])) <= 1


@given(st.lists(st.tuples(BIT, BIT), min_size=4, max_size=64))
def test_secure_energy_equals_across_sequences(samples):
    """Two different input sequences of equal length consume identical
    total energy after the first (initialization) cycle."""
    cell_a = PrechargedXorCell()
    cell_b = PrechargedXorCell()
    inverted = [(1 - a, 1 - b) for a, b in samples]
    ea = sum(cell_a.step(a, b, secure=True).charging_events
             for a, b in samples[1:])
    eb = sum(cell_b.step(a, b, secure=True).charging_events
             for a, b in inverted[1:])
    assert ea == eb
