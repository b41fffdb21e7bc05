"""Command-line interface."""

import pytest

from repro.cli import main

SC_SOURCE = """
secure int k;
int out;
out = k ^ 5;
"""

ASM_SOURCE = """
.data
out: .word 0
.text
li $t0, 7
sw $t0, out
halt
"""


@pytest.fixture
def sc_file(tmp_path):
    path = tmp_path / "toy.sc"
    path.write_text(SC_SOURCE)
    return str(path)


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "toy.s"
    path.write_text(ASM_SOURCE)
    return str(path)


def test_compile_to_stdout(sc_file, capsys):
    assert main(["compile", sc_file]) == 0
    out = capsys.readouterr()
    assert "sxori" in out.out or "sxor" in out.out
    assert "secure" in out.err


def test_compile_to_file(sc_file, tmp_path, capsys):
    output = str(tmp_path / "out.s")
    assert main(["compile", sc_file, "-o", output]) == 0
    text = open(output).read()
    assert ".text" in text


def test_compile_optimized(sc_file, capsys):
    assert main(["compile", sc_file, "-O", "1"]) == 0
    assert "sxori" in capsys.readouterr().out


def test_asm_listing(asm_file, capsys):
    assert main(["asm", asm_file]) == 0
    out = capsys.readouterr().out
    assert "0x00000000" in out
    assert "halt" in out


def test_run_assembly(asm_file, capsys):
    assert main(["run", asm_file, "--dump", "out"]) == 0
    out = capsys.readouterr().out
    assert "cycles:" in out
    assert "out = [7]" in out


def test_run_securec_with_inputs(sc_file, capsys):
    assert main(["run", sc_file, "--input", "k=3", "--dump", "out"]) == 0
    out = capsys.readouterr().out
    assert "out = [6]" in out  # 3 ^ 5
    assert "secure_retired" in out


def test_run_bad_input_spec(sc_file):
    with pytest.raises(SystemExit):
        main(["run", sc_file, "--input", "garbage"])


def test_experiments_listing(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    assert "fig6" in out
    assert "tab1" in out
    assert "ext-aes" in out


def test_experiment_runs_fast_one(capsys):
    assert main(["experiment", "xor-op"]) == 0
    out = capsys.readouterr().out
    assert "normal_mean_pj" in out


def test_experiment_engine_env_restored(capsys, monkeypatch):
    """--engine scopes REPRO_ENGINE to the experiment run: a previous
    value is restored afterwards, and an unset variable stays unset
    instead of leaking the last --engine into the rest of the process."""
    import os

    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert main(["experiment", "xor-op", "--engine", "reference"]) == 0
    assert "REPRO_ENGINE" not in os.environ
    monkeypatch.setenv("REPRO_ENGINE", "fast")
    assert main(["experiment", "xor-op", "--engine", "reference"]) == 0
    assert os.environ["REPRO_ENGINE"] == "fast"
    capsys.readouterr()


def test_experiment_engine_env_restored_on_failure(monkeypatch):
    """The scope restores the variable even when the experiment raises."""
    import os

    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    with pytest.raises(KeyError):
        main(["experiment", "no-such-experiment", "--engine", "reference"])
    assert "REPRO_ENGINE" not in os.environ


def test_vector_engine_is_rejected_as_unknown(asm_file, capsys):
    """The deleted vector engine is an unknown name on every surface:
    the registry, the CLI and the service request schema."""
    from repro.machine import engines
    from repro.service.errors import InvalidRequest
    from repro.service.protocol import AssessRequest

    with pytest.raises(ValueError, match="unknown engine 'vector'"):
        engines.resolve("vector")
    with pytest.raises(SystemExit) as excinfo:
        main(["run", asm_file, "--engine", "vector"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'vector'" in capsys.readouterr().err
    with pytest.raises(InvalidRequest, match="unknown engine 'vector'"):
        AssessRequest(engine="vector")


def test_experiment_jobs_flag_parses():
    from repro.cli import build_parser

    arguments = build_parser().parse_args(["experiment", "dpa",
                                           "--jobs", "4"])
    assert arguments.jobs == 4
    assert build_parser().parse_args(["experiment", "dpa"]).jobs == 1


def test_experiment_jobs_flag_on_serial_experiment(capsys):
    """--jobs on an experiment without batch loops warns but still runs."""
    assert main(["experiment", "xor-op", "--jobs", "2"]) == 0
    captured = capsys.readouterr()
    assert "normal_mean_pj" in captured.out
    assert "--jobs not applicable" in captured.err


def test_run_fast_mode(sc_file, capsys):
    assert main(["run", sc_file, "--functional", "--input", "k=3",
                 "--dump", "out"]) == 0
    out = capsys.readouterr().out
    assert "functional mode" in out
    assert "out = [6]" in out


def test_experiment_json_export(tmp_path, capsys):
    out = str(tmp_path / "xor.json")
    assert main(["experiment", "xor-op", "--json", out]) == 0
    import json
    data = json.loads(open(out).read())
    assert data["experiment_id"] == "xor-op"
    assert abs(data["summary"]["secure_mean_pj"] - 0.6) < 1e-9


def test_run_trace_out_streams_ndjson(asm_file, tmp_path, capsys):
    import json

    path = tmp_path / "trace.ndjson"
    assert main(["run", asm_file, "--trace-out", str(path)]) == 0
    out = capsys.readouterr().out
    assert "streamed" in out and "ndjson" in out
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert all("pj" in r or "marker" in r for r in records)
    assert sum("pj" in r for r in records) > 0


def test_run_trace_out_csv(asm_file, tmp_path, capsys):
    path = tmp_path / "trace.csv"
    assert main(["run", asm_file, "--trace-out", str(path)]) == 0
    assert path.read_text().splitlines()[0] == "cycle,total_pj"


def test_experiment_attribution_and_report(tmp_path, capsys):
    import json

    from repro import obs

    manifest_path = tmp_path / "m.json"
    attribution_path = tmp_path / "a.json"
    report_path = tmp_path / "r.html"
    result_path = tmp_path / "j.json"
    try:
        assert main(["experiment", "fig12",
                     "--manifest", str(manifest_path),
                     "--attribution", str(attribution_path),
                     "--report-html", str(report_path),
                     "--json", str(result_path), "--no-series"]) == 0
    finally:
        obs.disable_attribution()
        obs.disable()
        obs.reset()
    out = capsys.readouterr().out
    assert "saved attribution" in out and "saved report" in out

    snapshot = json.loads(attribution_path.read_text())
    assert snapshot["schema"] == "repro.obs.attribution/v1"
    assert snapshot["total_pj"] > 0
    manifest = json.loads(manifest_path.read_text())
    assert manifest["schema"] == "repro.obs.manifest/v2"
    assert manifest["attribution"]["cells"] == len(snapshot["cells"])
    html = report_path.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "Energy attribution" in html

    # The artifacts feed the obs subcommands.
    assert main(["obs", "attribution", str(attribution_path),
                 "--top", "3"]) == 0
    full = capsys.readouterr().out
    assert "attributed energy" in full and "by unit:" in full
    assert main(["obs", "attribution", str(manifest_path)]) == 0
    assert "summarized" in capsys.readouterr().out
    out_html = tmp_path / "out.html"
    assert main(["obs", "report", str(manifest_path),
                 "--json", str(result_path), "-o", str(out_html)]) == 0
    capsys.readouterr()
    assert "fig12" in out_html.read_text()


def test_obs_attribution_rejects_manifest_without_section(tmp_path,
                                                          capsys):
    import json

    import pytest

    from repro import obs

    manifest = obs.build_manifest(metrics={}, spans=[])
    path = tmp_path / "plain.json"
    obs.write_manifest(manifest, path)
    with pytest.raises(SystemExit):
        main(["obs", "attribution", str(path)])
    other = tmp_path / "foreign.json"
    other.write_text(json.dumps({"schema": "nope"}))
    with pytest.raises(SystemExit):
        main(["obs", "attribution", str(other)])


def test_experiment_streaming_and_progress_flags(tmp_path, capsys,
                                                 monkeypatch):
    import json
    import os

    monkeypatch.delenv("REPRO_PROGRESS", raising=False)
    progress_path = tmp_path / "progress.jsonl"
    assert main(["experiment", "ext-tvla", "--streaming",
                 "--progress", str(progress_path),
                 "--progress-interval", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "unmasked_disclosure_traces" in out
    assert "masked_disclosure_traces" in out
    # The env scope unwound: later library calls see no progress sink.
    assert "REPRO_PROGRESS" not in os.environ
    records = [json.loads(line) for line
               in progress_path.read_text().strip().splitlines()]
    assert records[-1]["event"] == "finished"
    assert any(r["event"] == "heartbeat" for r in records)
    assert any("max_abs_t" in r for r in records)


def test_experiment_streaming_flag_on_non_streaming_experiment(capsys):
    assert main(["experiment", "xor-op", "--streaming"]) == 0
    assert "--streaming" in capsys.readouterr().err


def test_obs_flamegraph_subcommand(tmp_path, capsys):
    manifest_path = tmp_path / "m.json"
    assert main(["experiment", "xor-op",
                 "--manifest", str(manifest_path)]) == 0
    from repro import obs

    obs.disable()
    capsys.readouterr()
    out_html = tmp_path / "flame.html"
    assert main(["obs", "flamegraph", str(manifest_path),
                 "-o", str(out_html), "--title", "xor spans"]) == 0
    assert "saved flamegraph" in capsys.readouterr().out
    page = out_html.read_text()
    assert page.startswith("<!DOCTYPE html>")
    assert "xor spans" in page
    assert "experiment=xor-op" in page
