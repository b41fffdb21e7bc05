"""Trace and experiment persistence."""

import numpy as np

from repro.energy.trace import EnergyTrace
from repro.harness.experiments import ExperimentResult
from repro.harness.io import (experiment_to_dict, export_trace, load_trace,
                              save_experiment_json, save_summary_csv,
                              save_trace)


def make_trace(with_components=False):
    components = np.arange(8, dtype=np.float64).reshape(4, 2) \
        if with_components else None
    return EnergyTrace(energy=np.array([1.5, 2.5, 3.5, 4.5]),
                       markers=((1, 10), (3, 20)),
                       components=components, label="test-trace")


def test_trace_roundtrip(tmp_path):
    path = tmp_path / "trace.npz"
    original = make_trace()
    save_trace(original, path)
    loaded = load_trace(path)
    assert np.array_equal(loaded.energy, original.energy)
    assert loaded.markers == original.markers
    assert loaded.label == original.label
    assert loaded.components is None


def test_trace_roundtrip_with_components(tmp_path):
    path = tmp_path / "trace.npz"
    original = make_trace(with_components=True)
    save_trace(original, path)
    loaded = load_trace(path)
    assert np.array_equal(loaded.components, original.components)


def test_trace_roundtrip_empty_markers(tmp_path):
    path = tmp_path / "t.npz"
    trace = EnergyTrace(energy=np.array([1.0]), markers=())
    save_trace(trace, path)
    assert load_trace(path).markers == ()


def load_json(path):
    import json

    return json.loads(path.read_text())


def make_result():
    return ExperimentResult(
        experiment_id="fig-test", title="A test",
        summary={"a": 1, "b": 2.5, "flag": True},
        series={"diff": np.array([0.0, 1.0])},
        rows=[("x", "1"), ("y", "2")],
        notes="note")


def test_experiment_json_roundtrip(tmp_path):
    path = tmp_path / "r.json"
    save_experiment_json(make_result(), path)
    loaded = load_json(path)
    assert loaded["experiment_id"] == "fig-test"
    assert loaded["summary"]["b"] == 2.5
    assert loaded["series"]["diff"] == [0.0, 1.0]
    assert loaded["rows"] == [["x", "1"], ["y", "2"]]


def test_experiment_json_roundtrip_list_series(tmp_path):
    """Streaming experiments store plain Python lists as series."""
    result = make_result()
    result.series["curve"] = [0.5, 1.25, 3.0]
    path = tmp_path / "r.json"
    save_experiment_json(result, path)
    loaded = load_json(path)
    assert loaded["series"]["curve"] == [0.5, 1.25, 3.0]
    assert loaded["series"]["diff"] == [0.0, 1.0]


def test_experiment_json_without_series(tmp_path):
    path = tmp_path / "r.json"
    save_experiment_json(make_result(), path, include_series=False)
    loaded = load_json(path)
    assert "omitted" in loaded["series"]["diff"]


def test_experiment_dict_handles_numpy_scalars():
    result = make_result()
    result.summary["np_value"] = np.float64(3.25)
    payload = experiment_to_dict(result)
    assert payload["summary"]["np_value"] == 3.25
    assert not isinstance(payload["summary"]["np_value"], np.generic)


def test_summary_csv(tmp_path):
    path = tmp_path / "summary.csv"
    save_summary_csv([make_result()], path)
    text = path.read_text()
    assert "experiment_id,key,value" in text
    assert "fig-test,a,1" in text


def test_real_trace_roundtrip(tmp_path, round1_masked):
    """A simulator-produced trace survives the save/load cycle intact."""
    from repro.harness.runner import des_run

    run = des_run(round1_masked.program, 0x133457799BBCDFF1,
                  0x0123456789ABCDEF)
    path = tmp_path / "real.npz"
    save_trace(run.trace, path)
    loaded = load_trace(path)
    assert np.array_equal(loaded.energy, run.trace.energy)
    assert loaded.markers == run.trace.markers


# -- per-cycle text export ---------------------------------------------


def test_streaming_ndjson_round_trips_floats(tmp_path):
    import json

    path = tmp_path / "trace.ndjson"
    trace = make_trace()
    assert export_trace(trace, path) == "ndjson"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    cycles = [r for r in records if "pj" in r]
    markers = [(r["cycle"], r["marker"]) for r in records if "marker" in r]
    assert [r["cycle"] for r in cycles] == [0, 1, 2, 3]
    # repr() round-trip: the exported floats are exact, not approximations.
    assert [r["pj"] for r in cycles] == list(trace.energy)
    assert markers == list(trace.markers)


def test_streaming_ndjson_components(tmp_path):
    import json

    path = tmp_path / "trace.ndjson"
    export_trace(make_trace(with_components=True), path)
    first = json.loads(path.read_text().splitlines()[0])
    assert first["components"] == {"clock": 0.0, "ibus": 1.0}


def test_streaming_csv_format_from_suffix(tmp_path):
    path = tmp_path / "trace.CSV"
    assert export_trace(make_trace(), path) == "csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "cycle,total_pj"
    assert lines[1] == "0,1.5"
    assert len(lines) == 5  # header + 4 cycles; markers skipped in CSV
    export_trace(make_trace(with_components=True), path)
    assert path.read_text().splitlines()[:2] == ["cycle,total_pj,clock,ibus",
                                                 "0,1.5,0.0,1.0"]


def test_export_writes_exact_bytes(tmp_path):
    """The byte layout ``repro run --trace-out`` has always written:
    compact separators, float ``repr`` (never ``numpy.float64``'s),
    markers after the cycles, a newline after every line."""
    trace = EnergyTrace(energy=np.array([0.1, 2.0 / 3.0]),
                        markers=((1, 7),))
    export_trace(trace, tmp_path / "t.ndjson")
    assert (tmp_path / "t.ndjson").read_bytes() == (
        b'{"cycle":0,"pj":0.1}\n'
        b'{"cycle":1,"pj":0.6666666666666666}\n'
        b'{"marker":7,"cycle":1}\n')
    export_trace(trace, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == (
        b"cycle,total_pj\n0,0.1\n1,0.6666666666666666\n")


def test_experiment_dict_includes_leakage():
    from repro.obs.leakage import LeakageReport, RegionAssessment

    result = make_result()
    result.leakage = LeakageReport(
        budget_pj=1e-6, label="unit",
        regions=[RegionAssessment(
            region="keyperm", start=0, end=10, protected=True, cycles=10,
            max_abs_diff_pj=0.0, mean_abs_diff_pj=0.0, leaking_cycles=0,
            passed=True)])
    payload = experiment_to_dict(result)
    assert payload["leakage"]["passed"] is True
    assert payload["leakage"]["regions"][0]["region"] == "keyperm"
    assert "leakage" not in experiment_to_dict(make_result())
