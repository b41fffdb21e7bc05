"""Smoke tests of the end-to-end benchmark and unit tests of its parts.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Each workload runs at ``--smoke`` size, traced and untraced, in a
fresh process, exactly as the benchmark is driven.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from measure import SpanRecorder, breakdown  # noqa: E402
from workloads import NAMES  # noqa: E402

DECLARED = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _run(arguments: list[str], cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *arguments], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run(workload, trace, tmp_path):
    completed = _run([str(HERE / "run.py"), "--workload", workload,
                      "--seed", "7", "--seconds", "1", "--trace", str(trace),
                      "--smoke", "--runs-dir", str(tmp_path)])
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1

    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if len(line.split()) >= 3}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert printed.get(metric["name"]) == metric["unit"], metric["name"]

    (run_dir,) = tmp_path.iterdir()
    report = json.loads((run_dir / "metrics.json").read_text())
    assert all(check["ok"] for check in report["checks"])
    assert {"conf.json", "stdout.log", "metrics.json"} <= {
        path.name for path in run_dir.iterdir()}
    assert not (run_dir / "compile-cache").exists()
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())
        return
    spans = json.loads((run_dir / "spans.json").read_text())
    found = breakdown(spans["spans"])
    assert sum(found["self_s"].values()) + found["residual_s"] \
        == pytest.approx(found["traced_wall_s"], rel=1e-9)
    assert result["metrics"]["traced_wall_s"]["value"] \
        == pytest.approx(found["traced_wall_s"])
    assert found["self_s"].get("machine.replay", 0) > 0


def test_bare_checkout_fails_without_a_result(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark has no
    program to measure: exit nonzero and print no result line."""
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(["benchmarks/e2e/run.py", "--workload", "campaign",
                      "--seed", "1", "--seconds", "1", "--trace", "0"],
                     cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_placed_spans_fill_gaps_and_self_times_add_up():
    spans = SpanRecorder("run", "unit")
    with spans.span("op") as root:
        with spans.span("harness.dispatch") as dispatch:
            with spans.span("stats.welch_update"):
                pass
    host = spans.spans[dispatch]
    host["start"], host["end"] = 0.0, 10.0
    spans.spans[root].update(start=0.0, end=10.5)
    child = next(span for span in spans.spans.values()
                 if span["name"] == "stats.welch_update")
    child.update(start=4.0, end=5.0)
    spans.place(dispatch, "machine.replay", 6.0)
    placed = sorted((span["start"], span["end"])
                    for span in spans.spans.values()
                    if span["name"] == "machine.replay")
    assert placed == [(0.0, 4.0), (5.0, 7.0)]
    found = breakdown(spans.records())
    assert found["self_s"] == pytest.approx(
        {"harness.dispatch": 3.0, "stats.welch_update": 1.0,
         "machine.replay": 6.0})
    assert found["residual_s"] == pytest.approx(0.5)
    assert found["traced_wall_s"] == pytest.approx(10.5)
    assert spans.unplaced_s == 0.0
    # Time that does not fit is dropped, never double-counted, and it
    # shows as unplaced.
    spans.place(dispatch, "machine.replay", 100.0)
    assert breakdown(spans.records())["self_s"]["harness.dispatch"] \
        == pytest.approx(0.0)
    assert spans.unplaced_s == pytest.approx(97.0)


def test_compare_flags_a_regression_beyond_the_bound():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    head = [1.20, 1.21, 1.19, 1.20, 1.22]
    assert compare.judge(base, head, "lower", 0.1)["verdict"] == "regressed"
    assert compare.judge(base, head, "higher", 0.1)["verdict"] == "ok"
    assert compare.judge(base, [1.05] * 5, "lower", 0.1)["verdict"] == "ok"


def test_compare_reports_unresolved_when_spread_exceeds_the_bound():
    base = [0.7, 1.0, 1.3, 0.8, 1.2]
    head = [0.75, 1.05, 1.25, 0.85, 1.15]
    assert compare.spread(base) > 0.1
    assert compare.judge(base, head, "lower", 0.1)["verdict"] == "unresolved"
    # ... unless every head run beats every base run.
    better = [0.5, 0.55, 0.6, 0.52, 0.58]
    assert compare.judge(base, better, "lower", 0.1)["verdict"] == "ok"


def test_compare_claim_needs_nine_in_ten_wins_and_a_gap_beyond_the_iqr():
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    faster = [value * 0.8 for value in base]
    assert compare.claim(base, faster, "lower")["met"]
    assert compare.claim(faster, base, "higher")["met"]
    assert compare.claim(base, faster, "higher")["wins"] == 0
    mixed = faster[:8] + [1.2, 1.3]
    result = compare.claim(base, mixed, "lower")
    assert result["wins"] == 8 and not result["met"]
    tiny = [value - 0.001 for value in base]
    result = compare.claim(base, tiny, "lower")
    assert result["wins"] == 10 and not result["met"]  # gap < base IQR


def _report(path: Path, seed: int, setup_s, correct: bool = True,
            failed: int = 0) -> str:
    path.write_text(json.dumps({
        "workload": "campaign", "seed": seed, "trace": 0,
        "correct": correct, "failed": failed,
        "metrics": {"setup_s": {"value": setup_s, "unit": "s"},
                    "peak_rss_mb": {"value": 80.0, "unit": "MiB"}},
        "reported": {"traces_per_s": 3.0 + seed / 100}}))
    return str(path)


def test_compare_pairs_runs_by_seed(tmp_path):
    base, _ = compare.load([_report(tmp_path / f"base-{seed}.json", seed,
                                    seed * 1.0) for seed in (3, 1, 2)])
    head, _ = compare.load([_report(tmp_path / f"head-{seed}.json", seed,
                                    seed * 0.5) for seed in (3, 1, 2)])
    assert compare.paired(base["campaign"], head["campaign"], "setup_s") \
        == ([1.0, 2.0, 3.0], [0.5, 1.0, 1.5])
    # Reported extras load too, so claims reach the demoted timings.
    assert compare.paired(base["campaign"], head["campaign"],
                          "traces_per_s")[0] == [3.01, 3.02, 3.03]


def test_compare_leaves_failed_runs_out_and_gates_on_them(tmp_path, capsys):
    base = [_report(tmp_path / f"base-{seed}.json", seed, 1.0 + seed / 100)
            for seed in (1, 2, 3)]
    head = [_report(tmp_path / f"head-{seed}.json", seed, 1.0 + seed / 100)
            for seed in (1, 2)]
    # A failed run: its unmeasured metric is null, and it must not read
    # as a perfect (zero) set-up time.
    head.append(_report(tmp_path / "head-3.json", 3, None, correct=False,
                        failed=1))
    runs, failed = compare.load(head)
    assert failed == {"campaign": 1}
    assert [run["seed"] for run in runs["campaign"]] == [1, 2]
    assert compare.main(["--base", *base, "--head", *head]) == 1
    assert "head fails more" in capsys.readouterr().out
    # The same failure on both sides is reported but does not gate.
    base[2] = _report(tmp_path / "base-3.json", 3, None, correct=False,
                      failed=1)
    assert compare.main(["--base", *base, "--head", *head]) == 0
