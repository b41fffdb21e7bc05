"""Command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

SRC = Path(repro.__file__).resolve().parents[1]

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
    assert f"wrote 8 cycles to {path} (ndjson)" in out
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert all("pj" in r or "marker" in r for r in records)
    assert sum("pj" in r for r in records) > 0


def test_run_trace_out_csv(asm_file, tmp_path, capsys):
    path = tmp_path / "trace.csv"
    assert main(["run", asm_file, "--trace-out", str(path)]) == 0
    assert path.read_text().splitlines()[0] == "cycle,total_pj"


#: (cipher, masking) of the round-1 programs ``--trace-out`` is pinned on.
TRACE_PROGRAMS = {
    "des-r1-selective": ("des", "selective"),
    "des-r1-none": ("des", "none"),
    "aes-r1": ("aes", "selective"),
}


@pytest.mark.parametrize("case", sorted(TRACE_PROGRAMS))
def test_trace_out_is_engine_independent(case, tmp_path, capsys,
                                         monkeypatch):
    """``run --trace-out`` writes the same bytes on the default engine as
    on ``--engine reference``, and on a warm schedule the default engine
    takes no reference-pipeline step."""
    from repro.aes.reference import int_to_state
    from repro.machine.pipeline import Pipeline
    from repro.programs.aes_source import AesProgramSpec, aes_source
    from repro.programs.des_source import DesProgramSpec, des_source
    from repro.programs.workloads import key_words

    cipher, masking = TRACE_PROGRAMS[case]
    source = tmp_path / f"{case}.sc"
    if cipher == "des":
        source.write_text(des_source(DesProgramSpec(rounds=1)))
        words = key_words(0x133457799BBCDFF1), key_words(0x0123456789ABCDEF)
    else:
        source.write_text(aes_source(AesProgramSpec(rounds=1)))
        words = (int_to_state(0x000102030405060708090A0B0C0D0E0F),
                 int_to_state(0x00112233445566778899AABBCCDDEEFF))
    command = ["run", str(source), "--masking", masking]
    for symbol, values in zip(("key", "plaintext"), words):
        command += ["--input", f"{symbol}={','.join(map(str, values))}"]
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert main(command) == 0  # records the schedule
    steps = []
    step = Pipeline.step

    def counting(self):
        steps.append(1)
        return step(self)

    monkeypatch.setattr(Pipeline, "step", counting)
    capsys.readouterr()
    for suffix in ("ndjson", "csv"):
        assert main(command + ["--trace-out",
                               str(tmp_path / f"fast.{suffix}")]) == 0
        assert "engine:            fast\n" in capsys.readouterr().out
    assert len(steps) == 0
    for suffix in ("ndjson", "csv"):
        assert main(command + ["--engine", "reference", "--trace-out",
                               str(tmp_path / f"reference.{suffix}")]) == 0
        assert "engine:            reference\n" in capsys.readouterr().out
        fast = (tmp_path / f"fast.{suffix}").read_bytes()
        assert fast == (tmp_path / f"reference.{suffix}").read_bytes()
    assert len(steps) > 0


@pytest.mark.parametrize("flag", [["--trace-out", "t.ndjson"],
                                  ["--engine", "fast"]])
def test_functional_run_refuses_energy_flags(sc_file, tmp_path, capsys,
                                             monkeypatch, flag):
    """The functional interpreter simulates no energy: asking it for a
    trace or an engine is a usage error, not a silent no-op."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(["run", sc_file, "--functional", *flag])
    assert excinfo.value.code == 2
    assert "--functional simulates no energy" in capsys.readouterr().err
    assert not (tmp_path / "t.ndjson").exists()


@pytest.mark.parametrize("functional", [False, True])
def test_failed_run_is_one_line_and_writes_no_trace(sc_file, tmp_path,
                                                    functional):
    """A run that overruns its budget exits 1 with one line, and leaves
    no trace file behind."""
    path = tmp_path / "t.ndjson"
    command = ["run", sc_file, "--max-cycles", "3"]
    command += ["--functional"] if functional else ["--trace-out", str(path)]
    with pytest.raises(SystemExit) as excinfo:
        main(command)
    assert excinfo.value.code.startswith("repro: run failed: exceeded")
    assert "\n" not in excinfo.value.code
    assert not path.exists()


def test_unwritable_trace_out_is_one_line(asm_file, tmp_path):
    path = tmp_path / "missing" / "t.ndjson"
    with pytest.raises(SystemExit) as excinfo:
        main(["run", asm_file, "--trace-out", str(path)])
    assert excinfo.value.code.startswith("repro: cannot write trace: ")
    assert not path.exists()


def test_experiment_attribution_and_report(tmp_path, capsys, monkeypatch):
    """One artifact per run: the manifest carries the full attribution
    cells, and ``repro obs`` renders everything from it."""
    import json

    from repro import obs
    from repro.harness import experiments
    from repro.harness.io import experiment_to_dict
    from repro.obs.report import report_from_manifest

    # Keep the objects the command held in memory.
    held = {}
    run_experiment = experiments.run_experiment
    build_manifest = obs.build_manifest

    def holding_run(*args, **kwargs):
        held["result"] = run_experiment(*args, **kwargs)
        return held["result"]

    def holding_build(*args, **kwargs):
        held["manifest"] = build_manifest(*args, **kwargs)
        return held["manifest"]

    monkeypatch.setattr(experiments, "run_experiment", holding_run)
    monkeypatch.setattr(obs, "build_manifest", holding_build)
    manifest_path = tmp_path / "m.json"
    result_path = tmp_path / "r.json"
    try:
        assert main(["experiment", "fig12", "--manifest", str(manifest_path),
                     "--attribution", "--json", str(result_path)]) == 0
    finally:
        obs.disable_attribution()
        obs.disable()
        obs.reset()
    assert "saved manifest" in capsys.readouterr().out

    manifest = json.loads(manifest_path.read_text())
    assert manifest["schema"] == "repro.obs.manifest/v3"
    attribution = manifest["attribution"]
    assert attribution["schema"] == "repro.obs.attribution/v1"
    assert isinstance(attribution["cells"], list) and attribution["cells"]
    assert sum(cell[4] for cell in attribution["cells"]) \
        == pytest.approx(attribution["total_pj"], rel=1e-9)

    assert main(["obs", "attribution", str(manifest_path),
                 "--top", "3"]) == 0
    text = capsys.readouterr().out
    assert "attributed energy" in text and "by unit:" in text
    assert "by source line:" in text

    out_html = tmp_path / "out.html"
    assert main(["obs", "report", str(manifest_path),
                 "--json", str(result_path), "-o", str(out_html)]) == 0
    capsys.readouterr()
    html = out_html.read_text()
    assert "Energy attribution" in html
    assert "per pipeline unit, by instruction class" in html
    # Loaded back from disk, the manifest renders the same report as
    # the one the command held in memory.
    assert html == report_from_manifest(
        held["manifest"], experiment_to_dict(held["result"]))


def test_experiment_attribution_requires_manifest(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["experiment", "fig12", "--attribution"])
    assert excinfo.value.code == 2
    assert "--attribution requires --manifest" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", [["summarize"], ["attribution"],
                                     ["report"], ["flamegraph"]])
def test_obs_commands_refuse_foreign_manifest_in_one_line(tmp_path,
                                                          command):
    import json

    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps({"schema": "x"}))
    output = ["-o", str(tmp_path / "out.html")] \
        if command[0] in ("report", "flamegraph") else []
    with pytest.raises(SystemExit) as excinfo:
        main(["obs", *command, str(foreign), *output])
    message = str(excinfo.value.code)
    assert message == (f"{foreign}: not a repro.obs.manifest/v3 run "
                       "manifest (schema='x')")
    assert not (tmp_path / "out.html").exists()


def test_experiment_progress_flags(tmp_path, capsys, monkeypatch):
    import json
    import os

    monkeypatch.delenv("REPRO_PROGRESS", raising=False)
    progress_path = tmp_path / "progress.jsonl"
    assert main(["experiment", "ext-tvla",
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


def test_ext_tvla_jobs_2_equals_jobs_1(tmp_path, capsys):
    import json

    documents = []
    for jobs in ("1", "2"):
        path = tmp_path / f"tvla-{jobs}.json"
        assert main(["experiment", "ext-tvla", "--jobs", jobs,
                     "--json", str(path)]) == 0
        documents.append(json.loads(path.read_text()))
    capsys.readouterr()
    serial, pooled = documents
    assert pooled["summary"] == serial["summary"]
    assert pooled["series"] == serial["series"]
    assert serial["series"]["unmasked_disclosure_curve"]


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


@pytest.mark.parametrize("command", [["run"], ["compile"], ["experiments"]],
                         ids=lambda command: command[0])
def test_closed_stdout_exits_quietly(command, sc_file):
    """A reader that goes away before the output is written (``repro
    run ... | head -1``) ends the command with 128+SIGPIPE and nothing
    on stderr, not a ``BrokenPipeError`` traceback."""
    arguments = command + ([sc_file] if command[0] != "experiments" else [])
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *arguments],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(SRC),
                 PYTHONDONTWRITEBYTECODE="1"))
    process.stdout.close()  # the reader is gone before the first write
    stderr = process.stderr.read().decode()
    process.stderr.close()
    assert process.wait(timeout=120) == 141, stderr
    assert stderr == ""
