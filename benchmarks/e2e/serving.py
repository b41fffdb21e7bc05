"""The two serving workloads, against a live ``repro serve`` daemon.

Lifecycle per daemon (generate -> run -> drain -> import): spawn ``repro
serve --port 0`` with every serving flag at its default (only
``--manifest-out`` is set, so the drain manifest can be checked), wait
for the announce line and ``/readyz``, warm it up, drive it from
``CLIENTS`` closed-loop threads with one keep-alive ``ServiceClient``
each, read its peak RSS, SIGTERM it, wait for the drain, then import
the drain manifest and check it.

A traced request also GETs ``/v1/requests/<id>/trace`` afterwards.  The
daemon's spans carry durations but no start times, so they are placed
by duration under the client-side ``service.http`` span: a
``service.server`` span as long as the terminal document's
``latency_s``, holding ``service.queue_wait`` (``queued_s``) and then
the daemon's own spans in order.  The ``service.http`` self time is the
client-observed latency the daemon does not account for (HTTP).  Daemon
time that does not fit its parent is counted as unplaced.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path

import workloads
from measure import vm_hwm_mb
from workloads import CLIENTS

#: Client-side budget for one request; well inside the run's time cap.
REQUEST_TIMEOUT_S = 60.0
#: Budget for a daemon to announce itself and turn ready.
BOOT_TIMEOUT_S = 60.0
#: Budget for a SIGTERM drain.
DRAIN_TIMEOUT_S = 90.0

#: Daemon span name -> benchmark span name (the layer it belongs to).
#: A daemon ``job``'s self time is the executor's per-job work around
#: ``execute``: engine and pipeline construction, symbol writes, metric
#: publishing and scope packaging (``service.job``).
DAEMON_SPANS = {"compile": "service.compile", "chunk": "service.chunk",
                "job": "service.job", "execute": "machine.replay",
                "verdict": "stats.verdict"}
#: For the first set-up request of each program variant, the job's engine
#: build records the schedule, so its self time is schedule record.
#: Every later request finds the schedule recorded.
SETUP_SPANS = dict(DAEMON_SPANS, job="machine.schedule_record")


class Daemon:
    """One ``repro serve`` process with its own directory and caches."""

    def __init__(self, run, tag: str, src: Path):
        self.run = run
        self.directory = Path(run.run_dir) / f"daemon-{tag}"
        self.directory.mkdir(parents=True, exist_ok=True)
        self.manifest = self.directory / "drain-manifest.json"
        self.src = src
        self.process = None
        self.url = None
        self._logs: list = []

    def start(self) -> str:
        """Spawn, then block until ``/readyz`` answers 200."""
        from repro.service.client import ServiceClient

        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(self.src),
                                     os.environ.get("PYTHONPATH")])),
                   REPRO_COMPILE_CACHE_DIR=str(self.directory / "cache"),
                   TMPDIR=str(self.directory))
        self._logs = [open(self.directory / "stdout.log", "w"),
                      open(self.directory / "stderr.log", "w")]
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--manifest-out", str(self.manifest)],
            stdout=self._logs[0], stderr=self._logs[1], env=env,
            cwd=self.directory)
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while self.url is None:
            announce = self._lines()
            if announce and announce[0].get("event") == "listening":
                self.url = f"http://{announce[0]['host']}:" \
                           f"{announce[0]['port']}"
                break
            self._alive_or_raise(deadline)
            time.sleep(0.005)
        with ServiceClient(self.url) as client:
            while not client.ready()[0]:
                self._alive_or_raise(deadline)
                time.sleep(0.005)
        return self.url

    def _lines(self) -> list[dict]:
        text = (self.directory / "stdout.log").read_text()
        lines = []
        for line in text.splitlines():
            try:
                lines.append(json.loads(line))
            except json.JSONDecodeError:
                break  # a line still being written
        return lines

    def _alive_or_raise(self, deadline: float) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(f"daemon exited {self.process.returncode} "
                               f"during boot; see {self.directory}")
        if time.monotonic() > deadline:
            raise RuntimeError(f"daemon not ready in {BOOT_TIMEOUT_S}s")

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(str(self.process.pid))

    def stop(self, submitted: int, done: int) -> None:
        """SIGTERM, wait for the drain, then check what it left."""
        run = self.run
        self.process.send_signal(signal.SIGTERM)
        code = self.process.wait(timeout=DRAIN_TIMEOUT_S)
        self._close()
        lines = self._lines()
        drained = lines[-1] if lines else {}
        run.check(f"{self.directory.name} drained on SIGTERM and exited 0",
                  code == 0 and drained.get("event") == "drained",
                  f"exit={code}")
        summary = json.loads(self.manifest.read_text())["summary"] \
            if self.manifest.exists() else {}
        # No pool exists at the default ``--jobs 1``; the manifest then
        # carries no pool accounting and nothing can be stranded.
        stranded = summary.get("pool_stranded_workers", 0)
        run.check(f"{self.directory.name} drain manifest "
                  "pool_stranded_workers == 0", bool(summary)
                  and stranded == 0, f"stranded={stranded}")
        terminal = {key[len("terminal_"):]: value
                    for key, value in summary.items()
                    if key.startswith("terminal_")}
        run.check(f"{self.directory.name} every request ended in exactly "
                  "one terminal state",
                  sum(terminal.values()) == submitted
                  and terminal.get("done", 0) == done,
                  f"terminal={terminal} submitted={submitted} done={done}")

    def kill(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)
        self._close()

    def _close(self) -> None:
        for stream in self._logs:
            stream.close()


class Session:
    """Requests against one daemon: timing, failure accounting, spans."""

    def __init__(self, run):
        self.run = run
        self.submitted = 0
        self.done = 0
        #: Traced requests nested in ``setup`` whose trace is fetched
        #: only after the ``setup`` span closes (see :meth:`place_pending`).
        self.pending: list = []
        self._lock = threading.Lock()

    def call(self, client, payload: dict, traced: bool,
             root: bool) -> tuple:
        """One request; returns ``(document or None, latency_s, wall_s)``.

        A traced request under its own ``op`` root (``root``) fetches and
        places its trace at once, and ``wall_s`` covers that too: it is
        what tracing costs a closed-loop client.  One nested in the
        caller's span is queued for :meth:`place_pending`, so the fetch
        stays outside the traced wall.
        """
        from repro.service.errors import AdmissionRejected, ServiceError

        run = self.run
        with self._lock:
            self.submitted += 1
        start = time.perf_counter()
        document = http = None
        try:
            if traced:
                with (run.spans.span("op", kind="request",
                                     mode=payload["mode"],
                                     rounds=payload["rounds"])
                      if root else nullcontext()):
                    with run.spans.span("service.http") as http:
                        document = client.assess_detailed(
                            payload, timeout_s=REQUEST_TIMEOUT_S)
            else:
                document = client.assess_detailed(
                    payload, timeout_s=REQUEST_TIMEOUT_S)
        except AdmissionRejected:
            run.count("service.rejections_429")
        except ServiceError as error:
            # Failed, timed out or unreachable: the caller counts the
            # request as a failed operation.
            run.count("service.request_errors")
            run.note(f"request {payload['mode']} rounds={payload['rounds']}"
                     f" failed: {error}")
        latency = time.perf_counter() - start
        if document is None:
            return None, latency, latency
        with self._lock:
            self.done += 1
        if traced and root:
            self._place(http, client.trace(document["id"]), document,
                        DAEMON_SPANS)
        elif traced:
            self.pending.append((http, document, payload))
        return document, latency, time.perf_counter() - start

    def place_pending(self, client) -> None:
        """Place the traces of the set-up requests; the first request of
        each program variant is the one whose job records the schedule."""
        variants: set = set()
        for http, document, payload in self.pending:
            variant = (payload["rounds"], payload["masking"])
            self._place(http, client.trace(document["id"]), document,
                        DAEMON_SPANS if variant in variants else SETUP_SPANS)
            variants.add(variant)
        self.pending.clear()

    def _place(self, http: int, trace: dict, document: dict,
               names: dict) -> None:
        spans = self.run.spans
        server = spans.place(http, "service.server", document["latency_s"])
        cursor = None
        if trace.get("queued_s"):
            queued = spans.place(server, "service.queue_wait",
                                 trace["queued_s"])
            cursor = spans.end_of(queued)
        self._place_tree(server, trace.get("spans") or [], cursor, names)
        result = document["result"]
        if not result.get("verdict_cache", {}).get("hit"):
            run = self.run
            run.count("harness.compile_cache_lookups")
            run.count("harness.compile_cache_hits", bool(result["cache_hit"]))
            run.count("machine.traces", result["n_traces"])
            run.count("machine.sim_cycles",
                      result["n_traces"] * max(result["cycles"]))
            for engine, runs in result["engines"].items():
                run.count(f"machine.engine_runs.{engine}", runs)

    def _place_tree(self, parent: int, nodes: list, cursor,
                    names: dict) -> None:
        spans = self.run.spans
        for node in nodes:
            base = re.sub(r"\[\d+\]$", "", str(node.get("name", "?")))
            name = names.get(base, f"service.{base}")
            wall = float(node.get("wall_s", 0.0))
            child = spans.place(parent, name, wall, after=cursor,
                                daemon=node.get("name"))
            if name == "machine.replay":
                self.run.count("machine.replay_busy_s", wall)
            self._place_tree(child, node.get("children") or [], None, names)
            cursor = spans.end_of(child)


def closed_loop(run, session: Session, daemon: Daemon, step_payload,
                handle, cycle_steps: int, expectation: str) -> None:
    """``CLIENTS`` closed-loop threads, in lockstep.

    At each step every client sends one request, built by
    ``step_payload(step, client)``, and waits for its reply; the next
    step starts once all replies are in.  Each request thus always
    shares the daemon with requests of its own shape -- free-running
    clients made a request's latency depend on which shapes happened to
    overlap it.  Steps come in same-shape pairs and in a traced run the
    second of each pair is traced.  The loop ends at the first multiple
    of ``cycle_steps`` after ``--seconds``, so a run always measures
    whole mix cycles.  ``handle(payload, document)`` checks each reply;
    the run gets one check, named by ``expectation``, over all of them.
    """
    from repro.service.client import ServiceClient

    deadline = run.deadline()
    state = {"step": -1, "go": True}
    errors: list = []
    wrong: list = []
    marks: list = []  # when each step started; the last one ends the loop

    def between_steps() -> None:
        marks.append(time.perf_counter())
        step = state["step"] + 1
        if step and step % cycle_steps == 0 \
                and time.perf_counter() >= deadline:
            state["go"] = False
        state["step"] = step

    barrier = threading.Barrier(CLIENTS, action=between_steps)

    def client_loop(number: int) -> None:
        try:
            with ServiceClient(daemon.url,
                               timeout_s=REQUEST_TIMEOUT_S) as client:
                while True:
                    barrier.wait()
                    if not state["go"]:
                        return
                    step = state["step"]
                    payload = step_payload(step, number)
                    traced = run.traced and step % 2 == 1
                    document, latency, wall = session.call(
                        client, payload, traced, root=True)
                    ok = document is not None
                    if ok and not handle(payload, document):
                        wrong.append(document["id"])
                    run.op(latency_s=latency, wall_s=wall, ok=ok,
                           traces=document["result"]["n_traces"]
                           if ok else 0, traced=traced,
                           pair=(number, step // 2), document=document)
        except threading.BrokenBarrierError:
            pass  # another client failed; its error is recorded
        except Exception as error:  # reported as a failed check below
            errors.append(f"client {number}: {type(error).__name__}: "
                          f"{error}")
            barrier.abort()

    start = time.perf_counter()
    threads = [threading.Thread(target=client_loop, args=(number,),
                                name=f"bench-client-{number}")
               for number in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    run.window_s = time.perf_counter() - start
    run.untraced_steps_s = sum(
        marks[step + 1] - marks[step] for step in range(len(marks) - 1)
        if not (run.traced and step % 2 == 1))
    run.check("closed-loop clients finished without errors", not errors,
              "; ".join(errors))
    run.check(f"every reply {expectation}", not wrong,
              f"{len(wrong)} of {len(run.ops)} did not: {wrong[:5]}")


def _setup(run, sz, src: Path, warmups: list, keep: dict,
           daemons: list):
    """Boot a daemon and warm it ``setup_repeats`` times (once when
    traced); earlier daemons are drained and checked.  Every daemon is
    appended to ``daemons`` before it starts, so the caller can always
    stop it.  Returns the live daemon and its session."""
    from repro.service.client import ServiceClient

    session = None
    for number in range(1 if run.traced else sz.setup_repeats):
        if daemons:
            daemons[-1].stop(session.submitted, session.done)
        daemons.append(Daemon(run, f"setup{number}", src))
        session = Session(run)
        keep.clear()
        start = time.perf_counter()
        with (run.spans.span("setup") if run.traced else nullcontext()):
            with (run.spans.span("service.boot") if run.traced
                  else nullcontext()):
                url = daemons[-1].start()
            client = ServiceClient(url, timeout_s=REQUEST_TIMEOUT_S)
            for index, payload in enumerate(warmups):
                document, _, _ = session.call(client, payload, run.traced,
                                              root=False)
                if document is not None:
                    keep[index] = document["result"]
        run.setups.append(time.perf_counter() - start)
        run.check(f"daemon-setup{number}: every warm-up request served",
                  len(keep) == len(warmups), f"{len(keep)}/{len(warmups)}")
        with client:
            session.place_pending(client)
    return daemons[-1], session


def _finish(run, daemon: Daemon, session: Session) -> None:
    """Read what only the live daemon knows, then drain it."""
    from repro.service.client import ServiceClient

    run.peak_rss_mb = daemon.peak_rss_mb()
    with ServiceClient(daemon.url) as client:
        stats = client.cache_stats() or {}
        pool = client.health().get("pool") or {}
    for name in ("hits", "misses", "coalesced"):
        run.count(f"service.verdict_cache_{name}", stats.get(name, 0))
    for name in ("leases", "warm_acquires", "cold_builds", "rebuilds"):
        run.count(f"harness.pool_{name}", pool.get(name, 0))
    daemon.stop(session.submitted, session.done)


def _check_in_process(run, candidates: dict) -> None:
    """One served request per shape: its digest equals in-process
    execution of the same payload."""
    from repro.harness.engine import CompileCache
    from repro.service.executor import execute_assessment
    from repro.service.protocol import AssessRequest

    for shape, served in sorted(candidates.items()):
        payload, result = workloads.pick(run.seed, f"check-{shape}", served)
        local = execute_assessment(
            AssessRequest.from_dict(payload),
            cache=CompileCache(Path(run.run_dir) / "check-cache"))
        run.check(f"served {shape} digest equals in-process "
                  "execute_assessment",
                  local["trace_digest"] == result["trace_digest"])


def _served(served: dict, lock, shape: str, payload: dict,
            result: dict) -> None:
    with lock:
        served.setdefault(shape, []).append((payload, result))


def run_serve_mix(run, sz, src: Path) -> None:
    """Cold-path serving: every request is unique, so every request
    misses the verdict cache and simulates."""
    daemons: list = []
    try:
        daemon, session = _setup(
            run, sz, src, workloads.mix_warmups(run.seed, sz.mix_shapes), {},
            daemons)
        lock = threading.Lock()
        served: dict = {}

        def step_payload(step, client):
            return workloads.mix_payload(run.seed, step, client,
                                         sz.mix_shapes)

        def handle(payload, document):
            result = document["result"]
            # The in-process re-check skips 16-round variants: recording
            # their schedule again in this process would add seconds.
            if payload["rounds"] <= 4:
                _served(served, lock, payload["mode"], payload, result)
            return not result.get("verdict_cache", {}).get("hit") \
                and result["n_traces"] == payload.get("n_traces", 2)

        closed_loop(run, session, daemon, step_payload, handle,
                    cycle_steps=2 * len(sz.mix_shapes),
                    expectation="missed the verdict cache and carries its "
                                "traces")
        _finish(run, daemon, session)
        _check_in_process(run, served)
    finally:
        for daemon in daemons:
            daemon.kill()


def run_serve_repeat(run, sz, src: Path) -> None:
    """Warm-path serving: a fixed set of payloads, filled once, then
    drawn uniformly, so nearly every request is a verdict-cache hit."""
    payloads = workloads.repeat_payloads(run.seed, sz.repeat_payloads)
    fills: dict = {}
    daemons: list = []
    try:
        daemon, session = _setup(run, sz, src, payloads, fills, daemons)
        draws = [workloads.repeat_draws(run.seed, number)
                 for number in range(CLIENTS)]
        served: dict = {}
        lock = threading.Lock()
        hits = [0]

        def step_payload(_step, client):
            return payloads[draws[client].randrange(len(payloads))]

        def handle(payload, document):
            result = document["result"]
            fill = fills[payloads.index(payload)]
            if result.get("verdict_cache", {}).get("hit"):
                with lock:
                    hits[0] += 1
            _served(served, lock, f"pair-{payload['masking']}", payload,
                    result)
            return result["trace_digest"] == fill["trace_digest"] \
                and result["verdict"] == fill["verdict"]

        closed_loop(run, session, daemon, step_payload, handle,
                    cycle_steps=2,
                    expectation="is bit-identical to its fill")
        _finish(run, daemon, session)
        run.check("at least 99% of serve_repeat requests were verdict-cache "
                  "hits", hits[0] >= 0.99 * len(run.ops),
                  f"{hits[0]}/{len(run.ops)}")
        _check_in_process(run, served)
    finally:
        for daemon in daemons:
            daemon.kill()
