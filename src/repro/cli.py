"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile FILE.sc``   — compile SecureC to secure-tagged assembly
* ``asm FILE.s``        — assemble and print the program listing
* ``run FILE``          — run a .s or .sc file on the energy simulator
* ``experiment ID``     — run one registered paper experiment
  (``--manifest`` enables the observability sink and writes the run
  manifest, the one observability artifact of a run; ``--attribution``
  also books every picojoule to its (pc, unit, class) cell and records
  the cells in that manifest)
* ``experiments``       — list the experiment registry
* ``serve``             — long-lived leakage-assessment daemon (HTTP
  JSON API, bounded admission, deadlines, circuit breaker, graceful
  drain — see ``docs/SERVICE.md``)
* ``submit``            — submit one assessment request to a daemon
  (or ``--local`` to run it in-process on the batch engine)
* ``obs summarize``     — render, aggregate, and diff run manifests
  (``--format prom`` for the metrics snapshot)
* ``obs attribution``   — ASCII energy-attribution tables from a manifest
* ``obs report``        — HTML leakage report from a manifest
* ``obs flamegraph``    — standalone interactive flamegraph HTML from a
  manifest's span tree
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .machine.engines import ENGINES


def _read(path: str) -> str:
    return Path(path).read_text()


def _parse_inputs(pairs: list[str]) -> dict[str, list[int]]:
    """``sym=1,2,3`` pairs -> {symbol: [words]}."""
    inputs: dict[str, list[int]] = {}
    for pair in pairs:
        symbol, _, values = pair.partition("=")
        if not values:
            raise SystemExit(f"bad --input {pair!r}; expected sym=v1,v2,...")
        inputs[symbol] = [int(v, 0) for v in values.split(",")]
    return inputs


def cmd_compile(arguments: argparse.Namespace) -> int:
    from .lang.compiler import compile_source

    result = compile_source(_read(arguments.file),
                            masking=arguments.masking,
                            optimize=arguments.optimize)
    output = arguments.output
    if output:
        Path(output).write_text(result.assembly)
        print(f"wrote {output}")
    else:
        print(result.assembly, end="")
    print(f"# {len(result.program.text)} instructions, "
          f"{result.secure_static_fraction:.1%} secure",
          file=sys.stderr)
    for diagnostic in result.diagnostics:
        print(f"# diagnostic: {diagnostic.message}", file=sys.stderr)
    return 0


def cmd_asm(arguments: argparse.Namespace) -> int:
    from .isa.assembler import assemble

    program = assemble(_read(arguments.file))
    print(program.listing())
    print(f"# {len(program.text)} instructions, "
          f"{len(program.data)} data words", file=sys.stderr)
    return 0


def cmd_run(arguments: argparse.Namespace) -> int:
    from .harness.runner import run_with_trace
    from .isa.assembler import assemble
    from .lang.compiler import compile_source
    from .machine.exceptions import SimulationError
    from .machine.interpreter import run_functional

    if arguments.functional and (arguments.trace_out or arguments.engine):
        arguments.usage_error("--functional simulates no energy: it takes "
                              "neither --trace-out nor --engine")
    source = _read(arguments.file)
    if arguments.file.endswith(".sc"):
        program = compile_source(source, masking=arguments.masking,
                                 optimize=arguments.optimize).program
    else:
        program = assemble(source)
    inputs = _parse_inputs(arguments.input or [])

    try:
        if arguments.functional:
            machine = run_functional(program, inputs=inputs,
                                     max_instructions=arguments.max_cycles)
        else:
            result = run_with_trace(program, inputs=inputs,
                                    max_cycles=arguments.max_cycles,
                                    engine=arguments.engine)
            machine = result.cpu
    except SimulationError as error:
        raise SystemExit(f"repro: run failed: {error}")
    if arguments.functional:
        print(f"instructions:      {machine.executed} "
              "(functional mode: no timing/energy)")
    else:
        if arguments.trace_out:
            from .harness.io import export_trace

            try:
                fmt = export_trace(result.trace, arguments.trace_out)
            except OSError as error:
                raise SystemExit(f"repro: cannot write trace: {error}")
            print(f"wrote {len(result.trace)} cycles "
                  f"to {arguments.trace_out} ({fmt})")
        print(f"engine:            {result.engine}")
        print(f"cycles:            {result.cycles}")
        print(f"total energy:      {result.total_uj:.3f} uJ")
        print(f"average power:     {result.average_pj:.1f} pJ/cycle")
        for key, value in machine.pipeline.stats.items():
            if key in ("cycles",):
                continue
            formatted = f"{value:.3f}" if isinstance(value, float) else value
            print(f"{key + ':':<18} {formatted}")
    for symbol_count in arguments.dump or ():
        symbol, _, count = symbol_count.partition(":")
        words = machine.memory.read_words(program.address_of(symbol),
                                          int(count) if count else 1)
        print(f"{symbol} = {words}")
    return 0


def cmd_experiment(arguments: argparse.Namespace) -> int:
    import contextlib
    import inspect
    import os

    from .harness.experiments import EXPERIMENTS, run_experiment
    from .machine.engines import resolve as resolve_engine

    @contextlib.contextmanager
    def env_scope(name: str, value):
        """Export an env var for the duration of the command only.

        The experiment's own runs and any pool workers it forks/spawns
        read the variable, but the mutation must not leak into later
        library calls in the same process (tests, REPLs, embedding apps).
        ``None`` leaves the environment untouched.
        """
        if value is None:
            yield
            return
        previous = os.environ.get(name)
        os.environ[name] = value
        try:
            yield
        finally:
            if previous is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = previous

    if arguments.attribution and not arguments.manifest:
        arguments.usage_error("--attribution requires --manifest (the "
                              "cells are recorded in the manifest)")
    if arguments.checkpoint and Path(arguments.checkpoint).exists() \
            and not Path(arguments.checkpoint).is_dir():
        print(f"repro experiment: error: --checkpoint "
              f"{arguments.checkpoint} is a file; it takes a directory "
              "(journal files of older versions are not read)",
              file=sys.stderr)
        return 2
    engine_effective = resolve_engine(arguments.engine)
    arguments.engine_effective = engine_effective
    kwargs = {}
    jobs_effective = 1
    function = EXPERIMENTS.get(arguments.id)
    signature = inspect.signature(function) if function is not None else None
    if signature is not None and "jobs" in signature.parameters:
        kwargs["jobs"] = arguments.jobs
        jobs_effective = arguments.jobs
    elif function is not None and arguments.jobs != 1:
        print(f"note: experiment {arguments.id!r} runs serially "
              f"(--jobs not applicable; requested {arguments.jobs}, "
              "effective jobs=1)", file=sys.stderr)
    # Fault-tolerance trio: forwarded to experiments whose batches are
    # engine-backed (see repro.harness.resilience); a no-op elsewhere.
    for option, default in (("retries", 0), ("job_timeout", None),
                            ("checkpoint", None)):
        value = getattr(arguments, option)
        if signature is not None and option in signature.parameters:
            kwargs[option] = value
        elif function is not None and value != default:
            flag = "--" + option.replace("_", "-")
            print(f"note: experiment {arguments.id!r} does not take "
                  f"{flag} (requested {value}; ignored)", file=sys.stderr)
    if arguments.manifest:
        from . import obs

        obs.enable()
        if arguments.attribution:
            obs.enable_attribution()
    with env_scope("REPRO_ENGINE", engine_effective), \
            env_scope("REPRO_PROGRESS", arguments.progress), \
            env_scope("REPRO_PROGRESS_INTERVAL",
                      str(arguments.progress_interval)
                      if arguments.progress_interval is not None else None):
        result = run_experiment(arguments.id, **kwargs)
    print(f"[{result.experiment_id}] {result.title}")
    for key, value in result.summary.items():
        formatted = f"{value:,.3f}" if isinstance(value, float) else value
        print(f"  {key:<40} {formatted}")
    if result.notes:
        print(f"  note: {result.notes}")
    if arguments.json:
        from .harness.io import save_experiment_json

        save_experiment_json(result, arguments.json,
                             include_series=not arguments.no_series)
        print(f"saved {arguments.json}")
    if arguments.manifest:
        _write_manifest(arguments, result, signature, jobs_effective)
    return 0


def _write_manifest(arguments: argparse.Namespace, result,
                    signature, jobs_effective: int) -> None:
    """Build and persist the run manifest."""
    import inspect
    from dataclasses import asdict

    from . import obs
    from .energy.params import DEFAULT_PARAMS

    config: dict = {
        "experiment": arguments.id,
        #: --jobs is recorded even when an experiment ignores it, so a
        #: manifest always attributes its numbers to the worker count
        #: that actually produced them.
        "jobs_requested": arguments.jobs,
        "jobs_effective": jobs_effective,
        "retries": arguments.retries,
        "job_timeout": arguments.job_timeout,
        "checkpoint": arguments.checkpoint,
        "progress": arguments.progress,
        #: Effective execution engine ("fast" or "reference")
        #: after resolving --engine against $REPRO_ENGINE and the default.
        "engine": getattr(arguments, "engine_effective", "reference"),
        "energy_params": asdict(DEFAULT_PARAMS),
    }
    if signature is not None:
        # Seeds, trace counts, rounds, ... — the experiment's resolved
        # defaults are part of what produced the numbers.
        config["experiment_defaults"] = {
            name: parameter.default
            for name, parameter in signature.parameters.items()
            if parameter.default is not inspect.Parameter.empty
            and name not in ("params", "jobs", "retries", "job_timeout",
                             "checkpoint")}
    manifest = obs.build_manifest(
        experiment_id=result.experiment_id, config=config,
        summary=result.summary,
        leakage=result.leakage.to_dict() if result.leakage is not None
        else None)
    path = obs.write_manifest(manifest, arguments.manifest)
    print(f"saved manifest {path}")


def _load_manifest(path) -> dict:
    """A run manifest, or a one-line usage error for a foreign file."""
    from . import obs

    try:
        return obs.load_manifest(path)
    except ValueError as error:
        raise SystemExit(str(error))


def cmd_obs_summarize(arguments: argparse.Namespace) -> int:
    """Render one manifest; aggregate and diff when given several."""
    from . import obs
    from .obs.registry import snapshot_totals

    manifests = [_load_manifest(path) for path in arguments.manifests]
    if getattr(arguments, "format", "text") == "prom":
        from .obs.prom import render_prometheus

        snapshot = obs.aggregate_manifests(manifests)["metrics"] \
            if len(manifests) >= 2 else manifests[0].get("metrics") or {}
        print(render_prometheus(snapshot), end="")
        return 0
    for manifest in manifests:
        print(obs.summarize_manifest(manifest))
        print()
    if len(manifests) >= 2:
        aggregate = obs.aggregate_manifests(manifests)
        print(f"aggregate of {aggregate['manifests']} manifests "
              f"({', '.join(aggregate['experiment_ids'])}):")
        for name, value in snapshot_totals(aggregate["metrics"]).items():
            formatted = f"{value:,.3f}" if isinstance(value, float) \
                and not float(value).is_integer() else f"{int(value):,}"
            print(f"  {name:<56} {formatted}")
    if len(manifests) == 2:
        print()
        print("diff (first -> second):")
        for name, before, after in obs.diff_totals(*manifests):
            if before == after:
                continue
            print(f"  {name:<56} {before:,.3f} -> {after:,.3f} "
                  f"({after - before:+,.3f})")
    return 0


def cmd_obs_attribution(arguments: argparse.Namespace) -> int:
    """ASCII attribution tables from a run manifest."""
    from .obs.attribution import render_attribution

    snapshot = _load_manifest(arguments.manifest).get("attribution")
    if not snapshot:
        raise SystemExit(f"{arguments.manifest}: manifest carries no "
                         "attribution section (run the experiment "
                         "with --attribution)")
    print(render_attribution(snapshot, top=arguments.top))
    return 0


def cmd_obs_report(arguments: argparse.Namespace) -> int:
    """Self-contained HTML leakage report from a run manifest."""
    import json

    from .obs.report import report_from_manifest, write_report

    manifest = _load_manifest(arguments.manifest)
    result = json.loads(Path(arguments.json).read_text()) \
        if arguments.json else None
    path = write_report(report_from_manifest(manifest, result),
                        arguments.output)
    print(f"saved report {path}")
    return 0


def cmd_obs_flamegraph(arguments: argparse.Namespace) -> int:
    """Standalone interactive flamegraph HTML from a manifest's spans."""
    from .obs.flamegraph import flamegraph_html

    manifest = _load_manifest(arguments.manifest)
    spans = manifest.get("spans") or []
    if not spans:
        print(f"note: {arguments.manifest} carries no spans (run the "
              "experiment with --manifest so the tracer is enabled); "
              "rendering an empty graph", file=sys.stderr)
    meta = {"experiment": manifest.get("experiment_id", "?"),
            "created": manifest.get("created", "?"),
            "spans": len(spans)}
    title = arguments.title or (
        f"{manifest.get('experiment_id', 'run')} — span flamegraph")
    Path(arguments.output).write_text(
        flamegraph_html(spans, title=title, meta=meta))
    print(f"saved flamegraph {arguments.output} ({len(spans)} root spans)")
    return 0


def cmd_serve(arguments: argparse.Namespace) -> int:
    """Run the leakage-assessment daemon until SIGTERM/SIGINT."""
    import json

    from .obs.events import DEFAULT_MAX_BYTES as EVENT_LOG_MAX_BYTES
    from .service.core import ServiceConfig
    from .service.server import serve

    config = ServiceConfig(
        jobs=arguments.jobs,
        queue_depth=arguments.queue_depth, retries=arguments.retries,
        job_timeout=arguments.job_timeout,
        chunk_size=arguments.chunk_size,
        default_deadline_s=arguments.default_deadline,
        breaker_threshold=arguments.breaker_threshold,
        breaker_cooldown_s=arguments.breaker_cooldown,
        drain_grace_s=arguments.drain_grace,
        journal=arguments.journal, manifest_out=arguments.manifest_out,
        event_log=arguments.event_log,
        event_log_max_bytes=(EVENT_LOG_MAX_BYTES
                             if arguments.event_log_max_bytes is None
                             else arguments.event_log_max_bytes),
        trace_requests=not arguments.no_request_tracing,
        quota_rps=arguments.quota_rps,
        quota_burst=arguments.quota_burst)

    def announce(event: dict) -> None:
        print(json.dumps(event, sort_keys=True), flush=True)

    serve(host=arguments.host, port=arguments.port, config=config,
          announce=announce)
    return 0


def cmd_submit(arguments: argparse.Namespace) -> int:
    """Submit one assessment request (to a daemon, or run it locally)."""
    import json

    from .service.errors import ServiceError
    from .service.protocol import AssessRequest

    payload = {
        "mode": arguments.mode, "masking": arguments.masking,
        "rounds": arguments.rounds, "n_traces": arguments.n_traces,
        "noise_sigma": arguments.noise_sigma, "seed": arguments.seed,
        "client": arguments.client, "priority": arguments.priority,
    }
    if arguments.policy:
        payload["policy"] = arguments.policy
    if arguments.key:
        payload["key"] = arguments.key
    if arguments.key_b:
        payload["key_b"] = arguments.key_b
    if arguments.engine:
        payload["engine"] = arguments.engine
    if arguments.deadline is not None:
        payload["deadline_s"] = arguments.deadline
    if arguments.attribution:
        payload["attribution"] = True
    if arguments.no_cache:
        payload["cache"] = False
    trace_id = arguments.trace_id or os.environ.get("REPRO_TRACE_ID") \
        or None
    request_id = None
    try:
        if arguments.local:
            from .service.executor import execute_assessment

            result = execute_assessment(AssessRequest.from_dict(payload),
                                        jobs=arguments.jobs)
        else:
            from .service.client import ServiceClient

            client = ServiceClient(arguments.url)
            document = client.assess_detailed(
                payload, timeout_s=arguments.timeout, trace_id=trace_id,
                retry_429=arguments.retry_429)
            request_id = document.get("id")
            trace_id = document.get("trace_id", trace_id)
            result = document["result"]
    except ServiceError as error:
        detail = {"code": error.code, "message": error.message}
        if error.retry_after_s is not None:
            detail["retry_after_s"] = error.retry_after_s
        # Even rejected/failed requests are remembered by the daemon:
        # surface the IDs so /v1/requests/<id>/trace stays reachable.
        if error.request_id is not None:
            detail["request_id"] = error.request_id
        if error.trace_id is not None:
            detail["trace_id"] = error.trace_id
        print(json.dumps({"error": detail}, sort_keys=True),
              file=sys.stderr)
        return 1
    if arguments.json:
        Path(arguments.json).write_text(
            json.dumps(result, indent=2, sort_keys=True))
        print(f"saved {arguments.json}")
    if request_id is not None:
        print(f"request id:    {request_id}")
        print(f"trace id:      {trace_id}")
    verdict = result["verdict"]
    print(f"verdict:       {'PASS' if verdict['passed'] else 'FAIL'} "
          f"({verdict['mode']})")
    print(f"traces:        {result['n_traces']} "
          f"({'/'.join(str(c) for c in result['cycles'])} cycles)")
    print(f"total energy:  {result['total_pj'] / 1e6:.3f} uJ")
    print(f"trace digest:  {result['trace_digest']}")
    print(f"engines:       {result['engines']} "
          f"(cache {'hit' if result['cache_hit'] else 'miss'})")
    verdict_cache = result.get("verdict_cache") or {}
    if verdict_cache.get("hit"):
        print(f"verdict cache: hit "
              f"(age {verdict_cache.get('age_s', 0.0):.3f} s)")
    print(f"wall time:     {result['wall_s']:.3f} s")
    return 0


def cmd_experiments(arguments: argparse.Namespace) -> int:
    from .harness.experiments import EXPERIMENTS

    for experiment_id, function in sorted(EXPERIMENTS.items()):
        first_line = (function.__doc__ or "").strip().splitlines()[0] \
            if function.__doc__ else ""
        print(f"{experiment_id:<22} {first_line}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Secure-instruction DES/AES energy-masking simulator "
                    "(DATE 2003 reproduction)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_compile = subparsers.add_parser(
        "compile", help="compile SecureC to assembly")
    p_compile.add_argument("file")
    p_compile.add_argument("--masking", default="selective",
                           choices=["selective", "annotate-only", "none"])
    p_compile.add_argument("-O", "--optimize", type=int, default=0,
                           choices=[0, 1, 2])
    p_compile.add_argument("-o", "--output")
    p_compile.set_defaults(func=cmd_compile)

    p_asm = subparsers.add_parser("asm", help="assemble and list a program")
    p_asm.add_argument("file")
    p_asm.set_defaults(func=cmd_asm)

    p_run = subparsers.add_parser(
        "run", help="simulate a .s or .sc file with energy tracking")
    p_run.add_argument("file")
    p_run.add_argument("--masking", default="selective",
                       choices=["selective", "annotate-only", "none"])
    p_run.add_argument("-O", "--optimize", type=int, default=0,
                       choices=[0, 1, 2])
    p_run.add_argument("--input", action="append", metavar="SYM=V1,V2,...",
                       help="write words into a data symbol before running")
    p_run.add_argument("--dump", action="append", metavar="SYM[:COUNT]",
                       help="print a data symbol after the run")
    p_run.add_argument("--max-cycles", type=int, default=50_000_000)
    p_run.add_argument("--functional", action="store_true",
                       help="functional interpreter (no timing/energy)")
    p_run.add_argument("--trace-out", metavar="PATH", dest="trace_out",
                       help="write the per-cycle trace to PATH after "
                            "the run (.csv -> CSV, else NDJSON)")
    p_run.add_argument("--engine", default=None, choices=ENGINES,
                       help="execution engine: 'fast' replays the "
                            "recorded cycle schedule (bit-identical, "
                            "~15x faster), 'reference' steps the pipeline "
                            "cycle by cycle (default: $REPRO_ENGINE, "
                            "else fast)")
    p_run.set_defaults(func=cmd_run, usage_error=p_run.error)

    p_exp = subparsers.add_parser("experiment",
                                  help="run one paper experiment")
    p_exp.add_argument("id")
    p_exp.add_argument("-j", "--jobs", type=int, default=1,
                       help="worker processes for batch simulations "
                            "(default 1 = serial; results are identical)")
    p_exp.add_argument("--retries", type=int, default=0,
                       help="re-run a crashed or timed-out batch job up "
                            "to N times (default 0 = fail fast; retried "
                            "jobs are bit-identical)")
    p_exp.add_argument("--job-timeout", type=float, default=None,
                       dest="job_timeout", metavar="SECONDS",
                       help="wall-clock budget per batch job; a runaway "
                            "simulation is killed and counts as a failure")
    p_exp.add_argument("--checkpoint", metavar="DIR",
                       help="store each completed batch job in directory "
                            "DIR so an interrupted experiment resumes by "
                            "recomputing only unfinished jobs")
    p_exp.add_argument("--engine", default=None, choices=ENGINES,
                       help="execution engine for every simulation in the "
                            "experiment: 'fast' (schedule replay) or "
                            "'reference' (cycle by cycle); exported as "
                            "$REPRO_ENGINE for the duration of the "
                            "command so worker processes inherit it; "
                            "default: ambient $REPRO_ENGINE, else fast")
    p_exp.add_argument("--progress", metavar="TARGET",
                       help="emit JSON-lines progress heartbeats (jobs "
                            "done/failed, traces/sec, ETA, stat "
                            "watermarks) to TARGET: '-' or 'stderr' for "
                            "stderr, else an append-mode file path "
                            "(exported as $REPRO_PROGRESS for the "
                            "duration of the command)")
    p_exp.add_argument("--progress-interval", type=float, default=None,
                       dest="progress_interval", metavar="SECONDS",
                       help="minimum seconds between heartbeats "
                            "(default 1.0)")
    p_exp.add_argument("--json", help="save the full result as JSON")
    p_exp.add_argument("--no-series", action="store_true",
                       help="omit per-cycle series from the JSON")
    p_exp.add_argument("--manifest",
                       help="enable the observability sink and write the "
                            "run manifest (config, metrics, span tree, "
                            "leakage verdicts) to this path; render it "
                            "with 'repro obs'")
    p_exp.add_argument("--attribution", action="store_true",
                       help="also book every picojoule to its (pc, unit, "
                            "class) cell and record the cells in the "
                            "manifest (requires --manifest)")
    p_exp.set_defaults(func=cmd_experiment, usage_error=p_exp.error)

    p_list = subparsers.add_parser("experiments",
                                   help="list registered experiments")
    p_list.set_defaults(func=cmd_experiments)

    p_serve = subparsers.add_parser(
        "serve", help="run the leakage-assessment daemon (HTTP JSON API)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8734,
                         help="TCP port (0 = ephemeral; the bound port is "
                              "announced as a JSON line on stdout)")
    p_serve.add_argument("-j", "--jobs", type=int, default=1,
                         help="worker processes per request for trace "
                              "collection (default 1 = in-thread)")
    p_serve.add_argument("--queue-depth", type=int, default=64,
                         dest="queue_depth",
                         help="admission queue bound; beyond it submissions "
                              "get a typed 429 with Retry-After (default 64)")
    p_serve.add_argument("--retries", type=int, default=2,
                         help="per-job retries for crashed/timed-out batch "
                              "jobs inside a request (default 2)")
    p_serve.add_argument("--job-timeout", type=float, default=None,
                         dest="job_timeout", metavar="SECONDS",
                         help="wall-clock budget per batch job (pools only)")
    p_serve.add_argument("--chunk-size", type=int, default=16,
                         dest="chunk_size",
                         help="traces per scheduling chunk; deadlines and "
                              "drain are enforced at chunk boundaries "
                              "(default 16)")
    p_serve.add_argument("--default-deadline", type=float, default=None,
                         dest="default_deadline", metavar="SECONDS",
                         help="deadline applied to requests that do not "
                              "carry their own deadline_s")
    p_serve.add_argument("--breaker-threshold", type=int, default=3,
                         dest="breaker_threshold",
                         help="consecutive worker crashes before a program "
                              "is quarantined (default 3)")
    p_serve.add_argument("--breaker-cooldown", type=float, default=30.0,
                         dest="breaker_cooldown", metavar="SECONDS",
                         help="quarantine duration before a half-open "
                              "probe is admitted (default 30)")
    p_serve.add_argument("--drain-grace", type=float, default=30.0,
                         dest="drain_grace", metavar="SECONDS",
                         help="seconds to let in-flight requests finish on "
                              "SIGTERM before cancelling (default 30)")
    p_serve.add_argument("--journal", metavar="PATH",
                         help="durable request journal: one fsync'd "
                              "repro.obs.events line per submission and "
                              "per terminal state; on restart GET "
                              "/v1/recovery accounts for every request "
                              "the previous daemon accepted")
    p_serve.add_argument("--manifest-out", metavar="PATH",
                         dest="manifest_out",
                         help="write the SLO metrics manifest here during "
                              "graceful drain")
    p_serve.add_argument("--event-log", metavar="PATH",
                         dest="event_log", default=None,
                         help="structured JSONL event log; one fsync'd "
                              "line per request lifecycle transition "
                              "(replayable with repro.obs.events)")
    p_serve.add_argument("--event-log-max-bytes", type=int,
                         dest="event_log_max_bytes", default=None,
                         help="rotate the event log to PATH.1 past this "
                              "size (default: "
                              "repro.obs.events.DEFAULT_MAX_BYTES)")
    p_serve.add_argument("--no-request-tracing", action="store_true",
                         dest="no_request_tracing",
                         help="drop per-request span trees (trace "
                              "documents keep their lifecycle timelines "
                              "but carry no spans)")
    p_serve.add_argument("--quota-rps", type=float, dest="quota_rps",
                         default=None,
                         help="per-tenant admission quota in requests/s "
                              "(token bucket; default: no quota). "
                              "Exceeding tenants get typed 429s with "
                              "code quota_exceeded")
    p_serve.add_argument("--quota-burst", type=float, dest="quota_burst",
                         default=None,
                         help="token-bucket burst capacity per tenant "
                              "(default: 2x the quota rate)")
    p_serve.set_defaults(func=cmd_serve)

    p_submit = subparsers.add_parser(
        "submit", help="submit one assessment request to a daemon")
    p_submit.add_argument("--url", default="http://127.0.0.1:8734",
                          help="daemon base URL (default "
                               "http://127.0.0.1:8734)")
    p_submit.add_argument("--local", action="store_true",
                          help="skip the daemon and run the request "
                               "in-process on the batch engine (results "
                               "are bit-identical to the service)")
    p_submit.add_argument("--mode", default="pair",
                          choices=["pair", "population"])
    p_submit.add_argument("--masking", default="selective",
                          choices=["selective", "annotate-only", "none"])
    p_submit.add_argument("--policy", default=None,
                          choices=["none", "all-loads-stores", "all"],
                          help="assembly-level masking policy (service "
                               "default applies when omitted)")
    p_submit.add_argument("--rounds", type=int, default=16)
    p_submit.add_argument("--n-traces", type=int, default=2,
                          dest="n_traces",
                          help="traces to collect (pair mode uses 2)")
    p_submit.add_argument("--key", help="DES key as a hex word64")
    p_submit.add_argument("--key-b", dest="key_b",
                          help="second key for pair mode (hex word64)")
    p_submit.add_argument("--noise-sigma", type=float, default=0.0,
                          dest="noise_sigma")
    p_submit.add_argument("--seed", type=int, default=1234)
    p_submit.add_argument("--engine", default=None, choices=ENGINES)
    p_submit.add_argument("--client", default="cli",
                          help="client identity for fair scheduling")
    p_submit.add_argument("--priority", default="normal",
                          choices=["high", "normal", "low"])
    p_submit.add_argument("--deadline", type=float, default=None,
                          metavar="SECONDS",
                          help="per-request deadline; a miss returns a "
                               "typed deadline_exceeded error")
    p_submit.add_argument("-j", "--jobs", type=int, default=1,
                          help="worker processes when running --local")
    p_submit.add_argument("--timeout", type=float, default=300.0,
                          help="client-side wait budget in seconds "
                               "(default 300)")
    p_submit.add_argument("--json", metavar="PATH",
                          help="save the full result document as JSON")
    p_submit.add_argument("--trace-id", dest="trace_id", default=None,
                          help="trace ID to stamp on the request "
                               "(default: $REPRO_TRACE_ID when set, else "
                               "the daemon mints one)")
    p_submit.add_argument("--retry-429", type=int, default=0,
                          dest="retry_429", metavar="N",
                          help="re-submit up to N times on 429s (queue "
                               "full or tenant quota) with capped "
                               "jittered backoff honoring Retry-After "
                               "(default 0)")
    p_submit.add_argument("--no-cache", action="store_true",
                          dest="no_cache",
                          help="bypass the daemon's verdict cache and "
                               "force a fresh simulation")
    p_submit.add_argument("--attribution", action="store_true",
                          help="collect per-PC energy attribution; "
                               "retrievable afterwards via "
                               "/v1/requests/<id>/attribution")
    p_submit.set_defaults(func=cmd_submit)

    p_obs = subparsers.add_parser(
        "obs", help="inspect observability artifacts (run manifests)")
    obs_subparsers = p_obs.add_subparsers(dest="obs_command", required=True)
    p_summarize = obs_subparsers.add_parser(
        "summarize",
        help="render manifests; with several, aggregate (and diff a pair)")
    p_summarize.add_argument("manifests", nargs="+",
                             metavar="MANIFEST.json")
    p_summarize.add_argument("--format", choices=["text", "prom"],
                             default="text",
                             help="output format: human-readable text "
                                  "(default) or Prometheus exposition of "
                                  "the metrics snapshot")
    p_summarize.set_defaults(func=cmd_obs_summarize)
    p_attr = obs_subparsers.add_parser(
        "attribution",
        help="render energy-attribution tables from a manifest")
    p_attr.add_argument("manifest", metavar="MANIFEST.json")
    p_attr.add_argument("--top", type=int, default=20,
                        help="hotspot rows to show (default 20)")
    p_attr.set_defaults(func=cmd_obs_attribution)
    p_report = obs_subparsers.add_parser(
        "report",
        help="write the self-contained HTML leakage report for a "
             "manifest")
    p_report.add_argument("manifest", metavar="MANIFEST.json")
    p_report.add_argument("--json", metavar="RESULT.json",
                          help="saved experiment result (adds the "
                               "per-cycle charts)")
    p_report.add_argument("-o", "--output", default="report.html",
                          help="output path (default report.html)")
    p_report.set_defaults(func=cmd_obs_report)
    p_flame = obs_subparsers.add_parser(
        "flamegraph",
        help="write a standalone interactive flamegraph HTML from a "
             "manifest's span tree")
    p_flame.add_argument("manifest", metavar="MANIFEST.json")
    p_flame.add_argument("-o", "--output", default="flamegraph.html",
                         help="output path (default flamegraph.html)")
    p_flame.add_argument("--title", help="page title (default: derived "
                                         "from the experiment id)")
    p_flame.set_defaults(func=cmd_obs_flamegraph)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        if not _stdout_reader_gone():
            raise
        # The reader of stdout went away (``repro run ... | head -1``):
        # stop quietly with the shell's 128+SIGPIPE code.  stdout is
        # pointed at /dev/null so the interpreter's exit-time flush of
        # the unwritten rest cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


def _stdout_reader_gone() -> bool:
    """Whether stdout is a pipe or socket nobody reads any more (its
    write end polls as an error), so a ``BrokenPipeError`` from any
    other pipe still surfaces."""
    import select

    try:
        poller = select.poll()
        poller.register(sys.stdout.fileno(), select.POLLOUT)
        return any(events & select.POLLERR
                   for _fd, events in poller.poll(0))
    except (AttributeError, OSError, ValueError):
        return False


def _dispatch(argv: list[str] | None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    from .harness.resilience import BatchInterrupted

    try:
        code = arguments.func(arguments)
    except BatchInterrupted as interrupted:
        # Graceful operator stop: checkpointed work is on disk; the
        # conventional 128+SIGINT exit code tells scripts what happened.
        print(f"repro: {interrupted}", file=sys.stderr)
        return 130
    sys.stdout.flush()  # a closed pipe fails here, not at exit
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
