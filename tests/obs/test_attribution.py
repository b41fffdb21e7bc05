"""Energy attribution: conservation, determinism, and the debug chain.

The two load-bearing guarantees:

* **conservation** — with attribution on, the sum of attributed pJ equals
  the tracker's ``total_energy_pj`` (nothing double-booked, nothing
  dropped);
* **non-interference** — with attribution off, traces are bit-identical
  to the seed (golden digests below); with it on, the energy numbers are
  unchanged because booking never touches the arithmetic.
"""

import hashlib

import pytest

from repro import obs
from repro.harness.engine import SimJob, run_jobs
from repro.harness.runner import des_run
from repro.obs.attribution import (CLASS_BY_OP, OVERHEAD_PC, AttributionSink,
                                   render_attribution, rollup_classes,
                                   rollup_lines, rollup_regions, rollup_units,
                                   summarize_attribution, top_hotspots)
from repro.programs.des_source import DesProgramSpec
from repro.programs.workloads import compile_des, key_words, plaintext_words

KEY_A = 0x133457799BBCDFF1
KEY_C = 0x0E329232EA6D0D73
PT_A = 0x0123456789ABCDEF

#: sha256 of ``run.trace.energy.tobytes()`` for the round-1 DES workload
#: on the seed simulator — the attribution layer must never move these.
GOLDEN_DIGESTS = {
    "none":
        "a63e8b8e0cd6cd22c0cbbc20008443d4ca47533378988a03106778e3b071d8b4",
    "selective":
        "5d1a41d858d421defc6f4dc3650af5951f026157ea5baca802c971d1c83ce954",
}


@pytest.fixture
def attribution_on():
    """Attribution (and the sink it implies) enabled in a fresh scope."""
    was_obs = obs.enabled()
    was_attr = obs.attribution_enabled()
    with obs.scope() as scoped:
        obs.enable_attribution()
        try:
            yield scoped
        finally:
            if not was_attr:
                obs.disable_attribution()
            if not was_obs:
                obs.disable()


def _digest(run):
    return hashlib.sha256(run.trace.energy.tobytes()).hexdigest()


@pytest.mark.parametrize("masking", ["none", "selective"])
def test_traces_match_seed_golden_digests(masking):
    program = compile_des(DesProgramSpec(rounds=1), masking=masking).program
    run = des_run(program, KEY_A, PT_A)
    assert run.cycles == 18432
    assert _digest(run) == GOLDEN_DIGESTS[masking]


@pytest.mark.parametrize("masking", ["none", "selective"])
def test_attribution_does_not_change_the_trace(attribution_on, masking):
    program = compile_des(DesProgramSpec(rounds=1), masking=masking).program
    run = des_run(program, KEY_A, PT_A)
    assert _digest(run) == GOLDEN_DIGESTS[masking]


@pytest.mark.parametrize("masking", ["none", "selective"])
def test_attributed_energy_equals_total(attribution_on, masking):
    program = compile_des(DesProgramSpec(rounds=1), masking=masking).program
    run = des_run(program, KEY_A, PT_A)
    assert run.attribution is not None
    assert run.attribution.total_pj() == pytest.approx(
        run.tracker.total_energy_pj, rel=1e-9)


def test_unit_rollup_matches_tracker_components(attribution_on):
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program
    run = des_run(program, KEY_A, PT_A)
    by_unit = rollup_units(run.attribution.snapshot())
    for component, total in run.tracker.totals.items():
        if component == "noise":
            continue
        assert by_unit[component]["pj"] == pytest.approx(total, rel=1e-9)
    for component, count in run.tracker.counts.items():
        if component == "noise":
            continue
        assert by_unit[component]["events"] == count


def test_attribution_off_collects_nothing():
    program = compile_des(DesProgramSpec(rounds=1), masking="none").program
    with obs.scope():
        assert not obs.attribution_enabled()
        run = des_run(program, KEY_A, PT_A)
        assert run.attribution is None
        assert not obs.attribution()


def test_parallel_merge_matches_serial(attribution_on):
    program = compile_des(DesProgramSpec(rounds=1), masking="none").program
    jobs = [SimJob(program=program,
                   inputs={"key": key_words(key),
                           "plaintext": plaintext_words(PT_A)},
                   label=f"k{index}")
            for index, key in enumerate((KEY_A, KEY_C, KEY_A ^ 1, KEY_C ^ 1))]
    run_jobs(jobs, jobs=1)
    serial = obs.attribution().snapshot()
    obs.attribution().reset()
    run_jobs(jobs, jobs=2)
    parallel = obs.attribution().snapshot()
    assert parallel == serial  # merge is associative + order-independent


def test_snapshot_merge_round_trip(attribution_on):
    program = compile_des(DesProgramSpec(rounds=1), masking="none").program
    run = des_run(program, KEY_A, PT_A)
    snapshot = run.attribution.snapshot()
    rebuilt = AttributionSink()
    rebuilt.merge_snapshot(snapshot)
    rebuilt.merge_snapshot(snapshot)
    assert rebuilt.total_pj() == pytest.approx(
        2 * run.attribution.total_pj(), rel=1e-9)


def test_merge_snapshot_rejects_foreign_schema():
    sink = AttributionSink()
    with pytest.raises(ValueError):
        sink.merge_snapshot({"schema": "something/else", "cells": []})


def test_overhead_books_to_sentinel_pc():
    sink = AttributionSink()
    sink.book_overhead("clock", 148.0)
    ((pc, unit, iclass, secure), (pj, events)), = sink.cells.items()
    assert (pc, unit, iclass, secure) == (OVERHEAD_PC, "clock",
                                          "overhead", False)
    assert (pj, events) == (148.0, 1)


def test_classifier_buckets():
    assert CLASS_BY_OP["xor"] == "xor"
    assert CLASS_BY_OP["xori"] == "xor"
    assert CLASS_BY_OP["lw"] == "load"
    assert CLASS_BY_OP["sw"] == "store"
    assert CLASS_BY_OP["beq"] == "branch"
    assert CLASS_BY_OP["sll"] == "shift"
    assert CLASS_BY_OP["add"] == "alu"


def test_source_lines_and_slice_reach_the_rollups(attribution_on):
    program = compile_des(DesProgramSpec(rounds=1),
                          masking="selective").program
    run = des_run(program, KEY_A, PT_A)
    snapshot = run.attribution.snapshot()
    by_line = {line: slot for line, slot in rollup_lines(snapshot).items()
               if line is not None}
    assert by_line, "codegen .loc directives must reach attribution"
    assert any(slot["sliced"] for slot in by_line.values())
    regions = rollup_regions(snapshot)
    assert regions["secured"]["pj"] > 0
    assert regions["unsecured"]["pj"] > 0
    assert regions["overhead"]["pj"] > 0


def test_summary_and_render(attribution_on):
    program = compile_des(DesProgramSpec(rounds=1), masking="none").program
    run = des_run(program, KEY_A, PT_A)
    snapshot = run.attribution.snapshot()
    summary = summarize_attribution(snapshot, top=5)
    assert summary["total_pj"] == pytest.approx(snapshot["total_pj"])
    assert summary["cells"] == len(snapshot["cells"])
    assert len(summary["top_hotspots"]) == 5
    assert summary["top_hotspots"] == top_hotspots(snapshot, n=5)
    # by_class totals also conserve energy.
    assert sum(slot["pj"] for slot in rollup_classes(snapshot).values()) \
        == pytest.approx(snapshot["total_pj"], rel=1e-9)
    text = render_attribution(snapshot, top=3)
    assert "by unit:" in text
    assert "clock" in text
    assert "hotspots" in text
    assert "by source line:" in text
