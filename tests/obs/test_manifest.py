"""Run manifests: round-trip, atomicity, aggregation, diff, rendering."""

import json

import pytest

from repro import obs


def _sample_manifest(obs_on) -> dict:
    obs_on.registry.counter("ops").inc(5, opcode="xor", secure=True)
    obs_on.registry.gauge("energy_component_pj").add(12.5, component="dbus")
    with obs.span("experiment", id="unit"):
        with obs.span("execute"):
            pass
    return obs.build_manifest(
        experiment_id="unit",
        config={"jobs_requested": 2, "jobs_effective": 2, "seed": 7},
        summary={"total_uj": 1.25})


def test_manifest_write_load_round_trip(tmp_path, obs_on):
    manifest = _sample_manifest(obs_on)
    path = obs.write_manifest(manifest, tmp_path / "run.json")
    loaded = obs.load_manifest(path)
    assert loaded == json.loads(json.dumps(manifest))  # JSON-exact
    assert loaded["schema"] == "repro.obs.manifest/v3"
    assert loaded["config"]["jobs_effective"] == 2
    assert loaded["spans"][0]["name"] == "experiment"
    assert loaded["spans"][0]["children"][0]["name"] == "execute"
    # Atomic write leaves no temp droppings next to the manifest.
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_manifest_gets_the_mode_of_a_plain_open(tmp_path, obs_on, umask):
    import os
    import stat

    previous = os.umask(umask)
    try:
        path = obs.write_manifest(_sample_manifest(obs_on),
                                  tmp_path / "run.json")
        plain = tmp_path / "result.json"
        plain.write_text("{}")
    finally:
        os.umask(previous)
    mode = stat.S_IMODE(path.stat().st_mode)
    assert mode == stat.S_IMODE(plain.stat().st_mode) == 0o666 & ~umask


def test_manifest_captures_current_context_by_default(obs_on):
    obs.counter("ops").inc(3)
    manifest = obs.build_manifest()
    assert obs.snapshot_totals(manifest["metrics"])["ops"] == 3
    assert manifest["package"]["name"] == "repro"
    assert len(manifest["toolchain_fingerprint"]) == 16
    assert "python" in manifest["platform"]


def test_load_manifest_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"schema": "something/else"}))
    with pytest.raises(ValueError):
        obs.load_manifest(path)


def test_load_manifest_rejects_older_schemas(tmp_path):
    # v3 changed the attribution section's shape (full cells, not a
    # rollup); older documents are refused by name, not misread.
    path = tmp_path / "old.json"
    for schema in ("repro.obs.manifest/v1", "repro.obs.manifest/v2"):
        path.write_text(json.dumps({"schema": schema,
                                    "metrics": {}, "spans": []}))
        with pytest.raises(ValueError, match=schema):
            obs.load_manifest(path)


def test_manifest_v2_sections_default_from_context(obs_on):
    # No attribution collected, no leakage passed: the optional sections
    # are absent, so the document has the exact v1 field set.
    plain = obs.build_manifest()
    assert "attribution" not in plain
    assert "leakage" not in plain

    obs_on.attribution.book(pc=0, unit="alu", iclass="xor",
                            secure=False, pj=2.5)
    leakage = {"budget_pj": 1e-6, "passed": True, "violations": 0,
               "regions": [], "label": "unit"}
    manifest = obs.build_manifest(leakage=leakage)
    # The whole snapshot, cells included; readers roll it up on read.
    assert manifest["attribution"] == obs_on.attribution.snapshot()
    assert manifest["attribution"]["cells"] == [[0, "alu", "xor", 0,
                                                 2.5, 1]]
    assert manifest["leakage"]["passed"] is True
    text = obs.summarize_manifest(manifest)
    assert "attribution: 2.500 pJ over 1 cells" in text
    assert "alu" in text
    assert "leakage:" in text and "PASS" in text


def test_aggregate_of_one_manifest_is_identity(obs_on):
    manifest = _sample_manifest(obs_on)
    aggregate = obs.aggregate_manifests([manifest])
    assert aggregate["manifests"] == 1
    assert aggregate["experiment_ids"] == ["unit"]
    assert aggregate["metrics"] == manifest["metrics"]


def test_aggregate_of_two_manifests_doubles_totals(obs_on):
    manifest = _sample_manifest(obs_on)
    aggregate = obs.aggregate_manifests([manifest, manifest])
    totals = obs.snapshot_totals(aggregate["metrics"])
    assert totals["ops{opcode=xor,secure=true}"] == 10
    assert totals["energy_component_pj{component=dbus}"] == 25.0


def test_diff_totals_reads_absent_series_as_zero(obs_on):
    manifest = _sample_manifest(obs_on)
    empty = obs.build_manifest(metrics={}, spans=[])
    rows = {name: (before, after)
            for name, before, after in obs.diff_totals(empty, manifest)}
    assert rows["ops{opcode=xor,secure=true}"] == (0.0, 5.0)
    same = obs.diff_totals(manifest, manifest)
    assert all(before == after for _, before, after in same)


def test_summarize_manifest_renders_all_sections(obs_on):
    text = obs.summarize_manifest(_sample_manifest(obs_on))
    assert "manifest: unit" in text
    assert "jobs_effective" in text
    assert "total_uj" in text
    assert "ops{opcode=xor,secure=true}" in text
    assert "experiment [id=unit]" in text  # rendered span tree
