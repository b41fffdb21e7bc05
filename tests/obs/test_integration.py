"""End-to-end observability: engine instrumentation, parallel merge
determinism, the no-op-sink bit-identicality guarantee, and the CLI
surface (``--manifest`` / ``obs summarize``)."""

import numpy as np

from repro import obs
from repro.harness.engine import (CompileRequest, SimJob, execute_job,
                                  run_jobs)
from repro.programs.des_source import DesProgramSpec
from repro.programs.workloads import compile_des

KEY = 0x133457799BBCDFF1
TINY_SPEC = DesProgramSpec(rounds=0, include_ip=False, include_fp=False)

#: Metrics whose values depend on scheduling/timing, not on the simulated
#: work: wall clocks vary per run, and compile-cache hit/miss splits
#: depend on how jobs land on worker processes.  Everything else must be
#: exactly equal between serial and parallel runs.
_NONDETERMINISTIC = ("job_wall_seconds", "compile_cache_lookups")


def _shape(tree):
    """Span tree minus the timing fields: (name, attributes, children)."""
    return [(node["name"],
             tuple(sorted((node.get("attributes") or {}).items())),
             _shape(node.get("children", [])))
            for node in tree]


def _batch():
    request = CompileRequest(spec=TINY_SPEC, masking="selective")
    return [SimJob(program=request, des_pair=(KEY, plaintext),
                   label=f"pt{plaintext}", noise_sigma=1.0,
                   noise_seed=plaintext)
            for plaintext in range(3)]


def test_disabled_sink_records_nothing(obs_scope):
    assert not obs.enabled()
    results = run_jobs(_batch())
    assert all(result.metrics is None and result.spans is None
               for result in results)
    assert obs_scope.registry.snapshot() == {}
    assert obs_scope.tracer.tree() == []


def test_enabled_sink_energy_bit_identical():
    """Instrumentation must not perturb the simulation (acceptance gate)."""
    program = compile_des(TINY_SPEC, masking="selective").program

    def job():
        return SimJob(program=program, des_pair=(KEY, 7), noise_sigma=1.5,
                      noise_seed=42, label="probe")

    obs.disable()
    baseline = execute_job(job())
    try:
        obs.enable()
        with obs.scope():
            observed = execute_job(job())
    finally:
        obs.disable()
    assert np.array_equal(baseline.energy, observed.energy)
    assert baseline.cycles == observed.cycles
    assert baseline.markers == observed.markers
    assert baseline.totals == observed.totals
    assert observed.metrics is not None  # but the sink did collect


def test_job_metrics_cover_instruction_mix_and_energy(obs_on):
    run_jobs(_batch())
    totals = obs.snapshot_totals(obs_on.registry.snapshot())
    secure_ops = [name for name in totals
                  if name.startswith("instructions_executed{")
                  and "secure=true" in name]
    normal_ops = [name for name in totals
                  if name.startswith("instructions_executed{")
                  and "secure=false" in name]
    assert secure_ops and normal_ops  # mix is split secure vs normal
    assert totals["instructions_retired{secure=true}"] > 0
    assert totals["energy_component_pj{component=secure}"] > 0
    assert totals["energy_component_pj{component=clock}"] > 0
    assert totals["cycles_simulated"] > 0
    assert totals["job_wall_seconds_count"] == 3
    # One compile request, three jobs: 1 miss + 2 hits, or 3 hits when an
    # earlier test already populated the process-wide cache.
    lookups = obs_on.registry.counter("compile_cache_lookups")
    assert lookups.total() == 3


def test_parallel_merge_is_deterministic():
    """jobs=1 and jobs=2 must aggregate to identical metrics and span
    shapes — merge happens in submission order, not completion order."""
    contexts = {}
    try:
        obs.enable()
        for workers in (1, 2):
            with obs.scope() as scoped:
                with obs.span("batch", workers=workers):
                    run_jobs(_batch(), jobs=workers)
                contexts[workers] = scoped
    finally:
        obs.disable()

    snapshots = {}
    for workers, scoped in contexts.items():
        snapshot = scoped.registry.snapshot()
        for name in _NONDETERMINISTIC:
            snapshot.pop(name, None)
        snapshots[workers] = snapshot
    assert snapshots[1] == snapshots[2]  # exact equality, floats included

    serial_tree = contexts[1].tracer.tree()
    parallel_tree = contexts[2].tracer.tree()
    (batch_root,) = _shape(serial_tree)
    name, attributes, children = batch_root
    assert name == "batch" and attributes == (("workers", 1),)
    assert [child[0] for child in children] == ["job", "job", "job"]
    assert [grand[0] for grand in children[0][2]] == ["compile", "execute"]
    # Same tree shape under the pool, modulo the workers attribute.
    (parallel_root,) = _shape(parallel_tree)
    assert parallel_root[2] == children


def test_prebuilt_jobs_count_separately(obs_on):
    program = compile_des(TINY_SPEC, masking="none").program
    run_jobs([SimJob(program=program, des_pair=(KEY, 0), label="pre")])
    assert obs_on.registry.counter("jobs_prebuilt").total() == 1
    assert obs_on.registry.counter("compile_cache_lookups").total() == 0


# -- CLI surface ------------------------------------------------------------


def _run_cli(argv):
    from repro.cli import main

    try:
        return main(argv)
    finally:
        obs.disable()
        obs.reset()


def test_cli_manifest(tmp_path, capsys):
    manifest_path = tmp_path / "fig12.json"
    assert _run_cli(["experiment", "fig12",
                     "--manifest", str(manifest_path)]) == 0
    output = capsys.readouterr().out
    assert f"saved manifest {manifest_path}" in output

    manifest = obs.load_manifest(manifest_path)
    assert manifest["experiment_id"] == "fig12"
    assert manifest["config"]["jobs_requested"] == 1
    assert manifest["config"]["jobs_effective"] == 1
    assert "energy_params" in manifest["config"]
    totals = obs.snapshot_totals(manifest["metrics"])
    assert any(name.startswith("instructions_executed{")
               and "secure=true" in name for name in totals)
    assert totals["energy_component_pj{component=secure}"] > 0
    assert manifest["spans"][0]["name"] == "experiment"


def test_cli_obs_summarize_aggregates_and_diffs(tmp_path, capsys):
    manifest_path = tmp_path / "fig12.json"
    assert _run_cli(["experiment", "fig12",
                     "--manifest", str(manifest_path)]) == 0
    capsys.readouterr()

    assert _run_cli(["obs", "summarize", str(manifest_path)]) == 0
    rendered = capsys.readouterr().out
    assert "manifest: fig12" in rendered
    assert "instructions_executed" in rendered
    assert "experiment [id=fig12]" in rendered

    # Two manifests: aggregate section; identical pair -> empty diff body.
    assert _run_cli(["obs", "summarize", str(manifest_path),
                     str(manifest_path)]) == 0
    rendered = capsys.readouterr().out
    assert "aggregate of 2 manifests (fig12, fig12):" in rendered
    assert "diff (first -> second):" in rendered


def test_cli_experiment_without_flags_keeps_sink_off(capsys):
    assert _run_cli(["experiment", "fig12"]) == 0
    output = capsys.readouterr().out
    assert "saved manifest" not in output
    assert not obs.enabled()
