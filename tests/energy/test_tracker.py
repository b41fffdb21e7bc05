"""EnergyTracker accounting: totals, components, secure-mode rules."""

import pytest

from repro.energy.params import EnergyParams
from repro.energy.tracker import COMPONENTS, EnergyTracker
from repro.isa.assembler import assemble
from repro.isa.instructions import Instruction
from repro.machine.cpu import run_to_halt


def tracked_run(source, inputs=None, params=None):
    tracker = EnergyTracker(params or EnergyParams(),
                            collect_components=True)
    cpu = run_to_halt(assemble(source), tracker=tracker, inputs=inputs)
    return cpu, tracker


def test_cycle_count_matches_cpu():
    cpu, tracker = tracked_run("nop\nnop\nhalt\n")
    assert tracker.cycles == cpu.cycles


def test_every_cycle_has_clock_energy():
    params = EnergyParams()
    _, tracker = tracked_run("nop\nnop\nnop\nhalt\n", params=params)
    assert all(energy >= params.e_clock_cycle
               for energy in tracker.cycle_energy)


def test_totals_sum_to_cycle_energy():
    _, tracker = tracked_run("""
    .data
    x: .word 3
    .text
    lw $t0, x
    xor $t1, $t0, $t0
    sw $t1, x
    halt
    """)
    assert sum(tracker.totals.values()) == pytest.approx(
        sum(tracker.cycle_energy))


def test_component_matrix_rows_sum_to_total():
    _, tracker = tracked_run("""
    .data
    x: .word 3
    .text
    lw $t0, x
    sll $t0, $t0, 2
    sw $t0, x
    halt
    """)
    for row, total in zip(tracker.component_energy, tracker.cycle_energy):
        assert sum(row) == pytest.approx(total)
    assert len(tracker.component_energy[0]) == len(COMPONENTS)


def test_memory_access_energy_counted():
    params = EnergyParams()
    _, with_mem = tracked_run("""
    .data
    x: .word 3
    .text
    lw $t0, x
    halt
    """, params=params)
    _, without_mem = tracked_run("""
    li $t0, 3
    li $t1, 3
    halt
    """, params=params)
    assert with_mem.totals["memport"] > 0
    assert without_mem.totals["memport"] == 0


def test_secure_instruction_adds_dummy_load():
    params = EnergyParams()
    _, plain = tracked_run("""
    .data
    x: .word 3
    .text
    lw $t0, x
    halt
    """, params=params)
    _, secure = tracked_run("""
    .data
    x: .word 3
    .text
    slw $t0, x
    halt
    """, params=params)
    assert secure.totals["secure"] > plain.totals["secure"] == 0.0


def test_secure_costs_more_overall():
    plain_src = """
    .data
    x: .word 0xDEADBEEF
    y: .word 0
    .text
    lw $t0, x
    xor $t1, $t0, $t0
    sw $t1, y
    halt
    """
    secure_src = plain_src.replace("lw ", "slw ").replace("xor ", "sxor ") \
                          .replace("sw $t1", "ssw $t1")
    _, plain = tracked_run(plain_src)
    _, secure = tracked_run(secure_src)
    assert secure.total_energy_pj > plain.total_energy_pj


def test_average_energy():
    _, tracker = tracked_run("nop\nhalt\n")
    assert tracker.average_energy_pj == pytest.approx(
        tracker.total_energy_pj / tracker.cycles)


def test_total_uj_conversion():
    _, tracker = tracked_run("nop\nhalt\n")
    assert tracker.total_energy_uj == pytest.approx(
        tracker.total_energy_pj * 1e-6)


def test_address_calc_not_masked_for_secure_load():
    """The paper: secure loads do NOT mask the address-generation energy.

    Two secure loads at different offsets must show different funits energy,
    while two secure loads of different *data* at the same offset must not
    differ anywhere in the secured path.
    """
    def funits(offset, value):
        source = f"""
        .data
        pad: .space 64
        x: .word {value}
        .text
        la $t1, pad
        slw $t0, {offset}($t1)
        halt
        """
        _, tracker = tracked_run(source)
        return tracker.totals["funits"]

    # Different offsets -> different address-adder switching.
    assert funits(0, 1) != funits(60, 1)


def test_secure_indexed_load_masks_address_calc():
    def funits(offset):
        source = f"""
        .data
        pad: .space 64
        .text
        la $t1, pad
        silw $t0, {offset}($t1)
        halt
        """
        _, tracker = tracked_run(source)
        return tracker.totals["funits"]

    assert funits(0) == funits(60)


def test_xor_unit_separate_from_alu():
    params = EnergyParams()
    tracker = EnergyTracker(params)
    ins_xor = Instruction("xor", rd=1, rs=2, rt=3)
    tracker.begin_cycle()
    tracker.ex_stage(ins_xor, 0xFFFF, 0xFFFF, 0)
    xor_prev = tracker.xor_unit.prev_a
    assert xor_prev == 0xFFFF
    assert tracker.alu.prev_a == 0


def test_counts_track_events_per_component():
    _, tracker = tracked_run("""
    .data
    x: .word 3
    .text
    lw $t0, x
    xor $t1, $t0, $t0
    sw $t1, x
    halt
    """)
    assert tracker.counts["clock"] == tracker.cycles
    assert tracker.counts["memport"] == 2  # one load + one store
    assert tracker.counts["dbus"] == 2
    assert tracker.counts["regfile"] > 0
    assert all(isinstance(count, int) for count in tracker.counts.values())


def test_publish_metrics_counts_and_cycles():
    from repro.obs.registry import MetricsRegistry, snapshot_totals

    _, tracker = tracked_run("nop\nnop\nhalt\n")
    registry = MetricsRegistry()
    tracker.publish_metrics(registry)
    totals = snapshot_totals(registry.snapshot())
    assert totals["cycles"] == tracker.cycles
    assert totals["cycles_simulated"] == tracker.cycles
    assert totals["energy_component_events{component=clock}"] \
        == tracker.cycles
    # Counter merges add: two runs' snapshots aggregate associatively.
    other = MetricsRegistry()
    tracker.publish_metrics(other)
    registry.merge_snapshot(other.snapshot())
    merged = snapshot_totals(registry.snapshot())
    assert merged["cycles"] == 2 * tracker.cycles
    assert merged["energy_component_events{component=clock}"] \
        == 2 * tracker.cycles

