"""The long-lived leakage-assessment service (transport-agnostic core).

:class:`LeakageService` owns the whole request lifecycle and none of the
sockets — the HTTP layer (:mod:`repro.service.server`) is a thin adapter
over it, and tests drive it in-process.  The invariant it maintains is
the one the chaos suite asserts: **every submitted request ends in
exactly one terminal state** — a result, a typed admission rejection, a
typed timeout, a typed failure, or a typed shutdown error — and each
submission and terminal state is journaled durably.

Request flow::

    submit() ── validation ──> InvalidRequest (400)
           ├── breaker gate ──> ProgramQuarantined (503 + Retry-After)
           ├── drain gate ────> ShuttingDown (503)
           ├── bounded queue ─> AdmissionRejected (429 + Retry-After)
           └── queued ── executor thread ── running ──> done / failed /
                                                        timed_out
    drain() ── queued requests ──> shutdown (typed, nothing lost)
            └─ in-flight ───────> allowed to finish (cancel event only
                                   fires when drain_grace_s expires)

Executor threads run requests on the shared batch engine
(:func:`repro.service.executor.execute_assessment`) with one **warm
process-wide** :class:`~repro.harness.engine.CompileCache`, so the
compile cost of a design-iteration loop is paid once, not per request;
the same store holds the verdict cache's documents.

SLO metrics (queue depth, p50/p95/p99 latency, goodput, rejections,
breaker state) live in a service-owned
:class:`~repro.obs.registry.MetricsRegistry` — deliberately *not* the
global obs context, so serving requests never toggles the global sink
and trace energies stay bit-identical to the batch CLI.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .. import obs
from ..harness import pool as harness_pool
from ..harness.engine import CompileCache, default_cache
from ..obs import events as obs_events
from ..obs.registry import MetricsRegistry
from ..obs.spans import count_spans
from . import journal as request_journal
from . import protocol
from .breaker import CircuitBreaker
from .cache import VerdictCache, verdict_key
from .errors import (RequestNotFound, ServiceError, ShuttingDown)
from .executor import ExecutionFailed, execute_assessment
from .protocol import AssessRequest, RequestRecord, make_trace_id
from .queue import AdmissionQueue

logger = logging.getLogger("repro.service")


@dataclass
class ServiceConfig:
    """Tunables of one daemon instance (all have safe defaults)."""

    #: Executor threads (concurrent requests in flight).
    workers: int = 2
    #: Pool worker processes per request batch (1 = in-thread serial).
    jobs: int = 1
    #: Bounded admission-queue depth.
    queue_depth: int = 64
    #: Per-trace retry budget against worker crashes.
    retries: int = 2
    #: Wall-clock bound per trace under a worker pool (None = unbounded).
    job_timeout: Optional[float] = None
    #: Traces per engine call — the cancellation granularity.
    chunk_size: int = 16
    #: Deadline applied when a request does not carry its own.
    default_deadline_s: Optional[float] = None
    #: Consecutive worker-crashing requests that trip the breaker.
    breaker_threshold: int = 3
    #: Quarantine period before a half-open probe.
    breaker_cooldown_s: float = 30.0
    #: Seconds drain() waits for in-flight work before cancelling it.
    drain_grace_s: float = 30.0
    #: Durable request journal path (None = not journaled).
    journal: Optional[Union[str, Path]] = None
    #: Run-manifest path written on drain (None = not written).
    manifest_out: Optional[Union[str, Path]] = None
    #: Completed records kept for status queries.
    history_limit: int = 1024
    #: Record a per-request span tree + timeline (request tracing).
    #: Off, requests still get IDs and timelines, but no span trees.
    trace_requests: bool = True
    #: Structured JSONL event-log path (None = no event log).
    event_log: Optional[Union[str, Path]] = None
    #: Event-log rotation threshold in bytes.
    event_log_max_bytes: int = obs_events.DEFAULT_MAX_BYTES
    #: Span-forest node ceiling per request; larger forests are
    #: compacted into an aggregated frame tree to bound history memory.
    span_tree_limit: int = 2048
    #: Per-tenant admission quota in requests/second (None = no quota).
    quota_rps: Optional[float] = None
    #: Token-bucket burst capacity (None = 2 × ``quota_rps``, min 1).
    quota_burst: Optional[float] = None


class LeakageService:
    """Transport-agnostic daemon core; see the module docstring."""

    def __init__(self, config: Optional[ServiceConfig] = None,
                 cache: Optional[CompileCache] = None):
        self.config = config or ServiceConfig()
        self.cache = cache if cache is not None else default_cache()
        self.verdict_cache = VerdictCache(self.cache)
        self.queue = AdmissionQueue(max_depth=self.config.queue_depth,
                                    quota_rps=self.config.quota_rps,
                                    quota_burst=self.config.quota_burst)
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s)
        self.journal: Optional[obs_events.EventLog] = None
        self.recovery: Optional[request_journal.RecoveryReport] = None
        if self.config.journal:
            self.journal, self.recovery = \
                request_journal.open_journal(self.config.journal)
        self.events = obs_events.EventLog(
            self.config.event_log,
            max_bytes=self.config.event_log_max_bytes) \
            if self.config.event_log else None
        self.registry = MetricsRegistry()
        self._metrics_lock = threading.Lock()
        self._records_lock = threading.Lock()
        #: Retained records in admission order (oldest first).
        self._records: OrderedDict[str, RequestRecord] = OrderedDict()
        self._draining = threading.Event()
        self._cancel = threading.Event()
        self._drain_lock = threading.Lock()
        self._drain_summary: Optional[dict] = None
        self._started = time.monotonic()
        self._inflight = 0
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"assess-worker-{index}", daemon=True)
            for index in range(max(1, self.config.workers))]
        for thread in self._threads:
            thread.start()

    # -- metrics (service-owned registry; one lock, many threads) -------

    def _count(self, name: str, help_text: str = "", value: float = 1,
               **labels) -> None:
        with self._metrics_lock:
            self.registry.counter(name, help_text).inc(value, **labels)

    def _observe(self, name: str, value: float, help_text: str = "",
                 **labels) -> None:
        with self._metrics_lock:
            self.registry.histogram(name, help_text).observe(value,
                                                             **labels)

    def _set_gauges(self) -> None:
        with self._metrics_lock:
            self.registry.gauge(
                "service_queue_depth",
                "admitted requests waiting for an executor") \
                .set(self.queue.depth)
            self.registry.gauge(
                "service_inflight",
                "requests currently executing").set(self._inflight)
            self.registry.gauge(
                "service_breaker_open",
                "program variants currently quarantined") \
                .set(self.breaker.open_count())
            memory = self.cache.memory
            self.registry.gauge(
                "artifact_cache_entries",
                "programs, schedules and verdicts held in memory") \
                .set(len(memory))
            self.registry.gauge(
                "artifact_cache_bytes",
                "pickled bytes held by the artifact store's memory") \
                .set(memory.bytes)

    # -- observability helpers ------------------------------------------

    def _transition(self, event: str, record: RequestRecord,
                    **detail) -> None:
        """Build one event record for a lifecycle transition and hand it
        to the in-memory timeline, the event log and, for accounting
        events, the journal."""
        line = obs_events.make_record(event, id=record.id,
                                      trace_id=record.trace_id,
                                      state=record.state, **detail)
        record.mark(line)
        if self.events is not None:
            self.events.write(line)
        if self.journal is not None \
                and event in request_journal.ACCOUNTING_EVENTS:
            self.journal.write(line)

    def _tag_error(self, record: RequestRecord,
                   error: Optional[ServiceError]) -> None:
        """Stamp the request/trace IDs onto an outgoing typed error so
        the client can fetch ``/v1/requests/<id>/trace`` afterwards."""
        if error is None:
            return
        if error.request_id is None:
            error.request_id = record.id
        if error.trace_id is None:
            error.trace_id = record.trace_id

    # -- submission -----------------------------------------------------

    def submit(self, payload: Union[dict, AssessRequest],
               trace_id: Optional[str] = None) -> RequestRecord:
        """Admit one request; returns its record (state ``queued``).

        Raises the typed taxonomy otherwise — and journals rejected
        submissions too, so the restart accounting covers them.
        ``trace_id`` is the client-supplied trace identifier
        (``X-Repro-Trace-Id``); one is minted when absent.
        """
        request = payload if isinstance(payload, AssessRequest) \
            else AssessRequest.from_dict(payload)
        record = RequestRecord(request=request,
                               trace_id=make_trace_id(trace_id))
        program_key = request.program_key()
        self._transition("received", record, client=request.client,
                         priority=request.priority,
                         program=program_key.rpartition("-")[2][:12])
        try:
            if self._draining.is_set():
                raise ShuttingDown("service is draining; request not "
                                   "admitted")
            self.breaker.admit(program_key)
            self.queue.put(record)
        except ServiceError as error:
            self._tag_error(record, error)
            record.finish(protocol.REJECTED
                          if error.code == "admission_rejected"
                          else protocol.SHUTDOWN
                          if error.code == "shutting_down"
                          else protocol.REJECTED, error=error)
            self._transition("terminal", record, code=error.code)
            self._remember(record)
            self._count("service_rejections_total",
                        "submissions rejected before execution",
                        reason=error.code)
            self._count("service_terminal_total",
                        "requests by terminal state", state=record.state)
            self._set_gauges()
            raise
        self._transition("admitted", record,
                         queue_depth=self.queue.depth)
        self._remember(record)
        self._count("service_requests_total",
                    "requests accepted into the queue",
                    client=request.client, priority=request.priority)
        self._set_gauges()
        return record

    def _remember(self, record: RequestRecord) -> None:
        with self._records_lock:
            self._records[record.id] = record
            excess = len(self._records) - self.config.history_limit
            if excess <= 0:
                return
            # Evict the oldest terminal records, skipping any still in
            # flight: a request that has not reached its terminal state
            # is never evicted (accounting beats memory here).  The scan
            # stops at the last record it evicts, so it walks past the
            # in-flight records only, not the whole history.
            evicted = []
            for request_id, older in self._records.items():
                if older.terminal:
                    evicted.append(request_id)
                    if len(evicted) == excess:
                        break
            for request_id in evicted:
                del self._records[request_id]

    def get(self, request_id: str) -> RequestRecord:
        with self._records_lock:
            record = self._records.get(request_id)
        if record is None:
            raise RequestNotFound(f"no request {request_id!r}")
        return record

    def records(self) -> list[RequestRecord]:
        with self._records_lock:
            return list(self._records.values())

    # -- execution ------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            record = self.queue.take(timeout=0.5)
            if record is None:
                if self.queue.closed:
                    return
                continue
            with self._records_lock:
                self._inflight += 1
            try:
                self._run_one(record)
            finally:
                with self._records_lock:
                    self._inflight -= 1
                self._set_gauges()

    def _run_one(self, record: RequestRecord) -> None:
        request = record.request
        program_key = request.program_key()
        deadline = record.deadline_monotonic
        if deadline is None and self.config.default_deadline_s:
            deadline = record.submitted_monotonic \
                + self.config.default_deadline_s
        if deadline is not None and time.monotonic() > deadline:
            self._finish(record, protocol.TIMED_OUT,
                         error=_queued_past_deadline(record))
            return
        record.start()
        self._set_gauges()
        queued_s = record.started_monotonic - record.submitted_monotonic
        self._transition("started", record, queued_s=round(queued_s, 6))
        self._observe("service_queue_seconds", queued_s,
                      "time from admission to execution start")
        try:
            result, cache_hit = self._execute_cached(record, deadline)
        except ShuttingDown as error:
            self._finish(record, protocol.SHUTDOWN, error=error)
        except ServiceError as error:  # DeadlineExceeded, ExecutionFailed

            state = protocol.TIMED_OUT \
                if error.code == "deadline_exceeded" else protocol.FAILED
            if isinstance(error, ExecutionFailed):
                if error.crashed_workers:
                    tripped = self.breaker.record_crash(program_key)
                    self._count("service_worker_crashes_total",
                                "requests that crashed pool workers")
                    if tripped:
                        self._count("service_breaker_trips_total",
                                    "circuit-breaker quarantine trips")
                else:
                    self.breaker.record_success(program_key)
            self._finish(record, state, error=error)
        except Exception as error:  # defensive: daemon must survive
            logger.exception("request %s failed unexpectedly", record.id)
            self._finish(record, protocol.FAILED,
                         error=ServiceError(
                             f"{type(error).__name__}: {error}"))
        else:
            self.breaker.record_success(program_key)
            self._finish(record, protocol.DONE, result=result,
                         cache_hit=cache_hit)

    def _execute_cached(self, record: RequestRecord,
                        deadline: Optional[float]) \
            -> tuple[dict, Optional[tuple]]:
        """Serve from / fill the verdict cache around :meth:`_execute`.

        Returns the result document and, for a hit, its envelope
        (:meth:`_cache_envelope`).  Bypass conditions: ``"cache": false``
        on the request, or attribution requested (the snapshot is per-run
        observability, not part of the cacheable result).  Concurrent
        identical requests coalesce single-flight: one leader computes,
        joiners block on the flight (still honoring their own deadline
        and the drain cancel event) and share the leader's document.
        A failed leader wakes joiners empty-handed and each computes
        independently — errors are never cached or propagated sideways.
        """
        request = record.request
        cache = self.verdict_cache
        if not request.cache or request.attribution:
            return self._execute(record, deadline), None
        key = verdict_key(request)
        outcome, token = cache.begin(key)
        if outcome == "hit":
            document, age_s = token
            self._transition("verdict_cache_hit", record)
            self._count("verdict_cache_hits",
                        "requests served from the verdict cache",
                        source="direct")
            return document, self._cache_envelope(record, age_s)
        if outcome == "join":
            document = self._await_flight(record, token, deadline)
            if document is not None:
                self._transition("verdict_cache_hit", record,
                                 coalesced=True)
                self._count("verdict_cache_hits",
                            "requests served from the verdict cache",
                            source="coalesced")
                return document, self._cache_envelope(record, None)
            self._transition("verdict_cache_miss", record,
                             leader_failed=True)
            self._count("verdict_cache_misses",
                        "requests that had to simulate")
            return self._execute(record, deadline), None
        self._transition("verdict_cache_miss", record)
        self._count("verdict_cache_misses",
                    "requests that had to simulate")
        try:
            result = self._execute(record, deadline)
        except BaseException:
            cache.abandon(key, token)
            raise
        # The record keeps the stored canonical document, not the
        # executor's: a retained cold request holds one copy, as a hit.
        result, evicted = cache.complete(key, token, result)
        self._transition("verdict_cache_store", record)
        if evicted:
            self._count("verdict_cache_evictions",
                        "store entries evicted past the memory budget "
                        "by a verdict store",
                        value=evicted)
        return result, None

    def _await_flight(self, record: RequestRecord, flight,
                      deadline: Optional[float]) -> Optional[dict]:
        """Wait on a coalesced flight without outliving the request."""
        self._transition("verdict_cache_wait", record)
        while True:
            if self._cancel.is_set():
                raise ShuttingDown(
                    "request cancelled while coalesced on an identical "
                    "computation (service draining)")
            remaining = None if deadline is None \
                else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                from .errors import DeadlineExceeded

                raise DeadlineExceeded(
                    "deadline exceeded while coalesced on an identical "
                    "in-flight computation")
            window = 0.25 if remaining is None else min(0.25, remaining)
            if flight.event.wait(window):
                return self.verdict_cache.wait(flight, timeout=0)
            # flight still running; loop re-checks deadline/cancel

    def _cache_envelope(self, record: RequestRecord,
                        age_s: Optional[float]) -> tuple:
        """The per-request part of a cached result, ``(age_s, wall_s)``:
        the stored document stays bit-identical (digest, verdict,
        totals) and shared; the record stamps this envelope and its own
        request onto it when its result is read."""
        started = record.started_monotonic or time.monotonic()
        return age_s, round(time.monotonic() - started, 6)

    def _execute(self, record: RequestRecord,
                 deadline: Optional[float]) -> dict:
        """Run one request's assessment, with request-scoped tracing.

        The scope is **forced** for this thread only (see
        :func:`repro.obs.scope`): the global sink stays off, sibling
        executor threads trace their own requests independently, and the
        span tree is captured in a ``finally`` — a request that fails or
        times out mid-chunk keeps the partial tree the finished jobs
        already grafted, instead of dropping it with the chunk.
        """
        request = record.request

        def on_event(event: str, **detail) -> None:
            self._transition(event, record, **detail)

        kwargs = dict(cache=self.cache, jobs=self.config.jobs,
                      retries=self.config.retries,
                      job_timeout=self.config.job_timeout,
                      chunk_size=self.config.chunk_size,
                      deadline_monotonic=deadline, cancel=self._cancel,
                      on_event=on_event)
        if not self.config.trace_requests:
            return execute_assessment(request, **kwargs)
        attribute = request.attribution
        with obs.scope(force=True, attribution=attribute) as scoped:
            try:
                return execute_assessment(request, observe=True,
                                          attribute=attribute, **kwargs)
            finally:
                self._capture_trace(record, scoped, attribute)

    def _capture_trace(self, record: RequestRecord, scoped,
                       attribute: bool) -> None:
        tree = scoped.tracer.tree()
        if count_spans(tree) > max(self.config.span_tree_limit, 1):
            from ..obs.flamegraph import aggregate_spans

            record.spans = [aggregate_spans(tree).to_dict()]
            record.spans_compacted = True
        else:
            record.spans = tree
        if attribute:
            record.attribution_snapshot = scoped.attribution.snapshot()

    def _finish(self, record: RequestRecord, state: str,
                result: Optional[dict] = None,
                error: Optional[ServiceError] = None,
                cache_hit: Optional[tuple] = None) -> None:
        self._tag_error(record, error)
        record.finish(state, result=result, error=error,
                      cache_hit=cache_hit)
        self._transition("terminal", record,
                         **({"code": error.code} if error else {}))
        latency = record.latency_s or 0.0
        self.queue.observe_service_time(latency)
        self._observe("service_request_seconds", latency,
                      "submission-to-terminal latency", outcome=state)
        self._count("service_terminal_total",
                    "requests by terminal state", state=state)
        if state == protocol.DONE:
            self._count("service_goodput_traces_total",
                        "traces delivered inside successful results",
                        value=result["n_traces"] if result else 0)

    # -- health / introspection ----------------------------------------

    def _terminal_counts(self) -> dict[str, int]:
        """Requests per terminal state over the whole session, read from
        the ``service_terminal_total`` counter (retained records are
        capped by ``history_limit``; the counter is not)."""
        with self._metrics_lock:
            if "service_terminal_total" not in self.registry:
                return {}
            counter = self.registry.counter("service_terminal_total")
            return {dict(labels)["state"]: int(value)
                    for labels, value in sorted(counter.series())}

    def health(self) -> dict:
        with self._records_lock:
            inflight = self._inflight
        health = {
            "status": "draining" if self._draining.is_set() else "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "queue_depth": self.queue.depth,
            "queue_capacity": self.queue.max_depth,
            "inflight": inflight,
            "workers": len(self._threads),
            "workers_alive": sum(1 for thread in self._threads
                                 if thread.is_alive()),
            "terminal": self._terminal_counts(),
            "breaker_open": self.breaker.open_count(),
        }
        health["verdict_cache"] = self.verdict_cache.stats()
        pool_stats = harness_pool.pool_stats()
        if pool_stats is not None:
            health["pool"] = pool_stats
        return health

    def ready(self) -> tuple[bool, str]:
        """Readiness: accepting new work, with live executor threads."""
        if self._draining.is_set():
            return False, "draining"
        if not any(thread.is_alive() for thread in self._threads):
            return False, "no live executor threads"
        return True, "ok"

    def metrics_snapshot(self) -> dict:
        self._set_gauges()
        with self._metrics_lock:
            return self.registry.snapshot()

    def recovery_report(self) -> Optional[dict]:
        if self.recovery is None:
            return None
        return self.recovery.to_dict()

    # -- verdict cache --------------------------------------------------

    def verdict_cache_stats(self) -> dict:
        """Verdict-cache accounting (see :meth:`VerdictCache.stats`)."""
        return self.verdict_cache.stats()

    def invalidate_verdict_cache(
            self, program_key: Optional[str] = None) -> int:
        """Drop cached verdicts (all, or one program variant's)."""
        dropped = self.verdict_cache.invalidate(program_key)
        if dropped:
            self._count("verdict_cache_invalidations",
                        "entries dropped by explicit invalidation",
                        value=dropped)
        return dropped

    # -- drain ----------------------------------------------------------

    def drain(self, grace_s: Optional[float] = None) -> dict:
        """Graceful shutdown: finish in-flight, fail queued *typed*.

        Returns a summary of what happened to outstanding work.  Runs
        once: concurrent or repeated calls block on the first drain and
        return its summary.
        """
        with self._drain_lock:
            if self._drain_summary is not None:
                return self._drain_summary
            summary = self._drain(grace_s)
            self._drain_summary = summary
            return summary

    def _drain(self, grace_s: Optional[float]) -> dict:
        grace = self.config.drain_grace_s if grace_s is None else grace_s
        self._draining.set()
        abandoned = self.queue.drain()
        for record in abandoned:
            error = ShuttingDown(
                "service shut down before this request started; "
                "resubmit to a live instance")
            self._tag_error(record, error)
            record.finish(protocol.SHUTDOWN, error=error)
            self._transition("terminal", record, code=error.code)
            self._count("service_terminal_total", state=protocol.SHUTDOWN)
        deadline = time.monotonic() + max(grace, 0.0)
        for thread in self._threads:
            thread.join(max(deadline - time.monotonic(), 0.0))
        if any(thread.is_alive() for thread in self._threads):
            # Grace expired: cancel in-flight chunked work; give the
            # threads one more short window to observe the event.
            self._cancel.set()
            for thread in self._threads:
                thread.join(5.0)
        self._set_gauges()
        # Executor threads are parked (or cancelled); every pool lease
        # is released, so the shared pool drains deterministically —
        # stranded_workers must be 0 in the summary and the manifest.
        pool_summary = harness_pool.shutdown_shared_pool(
            grace_s=max(grace, 0.0) if grace else 5.0)
        harness_pool.reset_shared_pool()
        summary = {
            "drained": True,
            "queued_failed_typed": len(abandoned),
            "inflight_finished":
                self._terminal_counts().get(protocol.DONE, 0),
            "workers_alive": sum(1 for thread in self._threads
                                 if thread.is_alive()),
        }
        if pool_summary is not None:
            summary["pool"] = pool_summary
        summary["verdict_cache"] = self.verdict_cache.stats()
        if self.config.manifest_out:
            summary["manifest"] = str(self._write_manifest(pool_summary))
        if self.journal is not None:
            self.journal.emit("session_end")
            self.journal.close()
        if self.events is not None:
            self.events.close()
        return summary

    def _write_manifest(
            self, pool_summary: Optional[dict] = None) -> Path:
        """Publish the session's SLO metrics as a standard run manifest.

        ``pool_summary`` is the shared pool's final (post-shutdown)
        accounting — recorded so a drain manifest proves zero stranded
        workers and how much pool reuse the session got.
        """
        health = self.health()
        summary = {"uptime_s": health["uptime_s"],
                   **{f"terminal_{state}": count
                      for state, count in health["terminal"].items()}}
        if pool_summary is not None:
            summary.update({
                "pool_stranded_workers":
                    pool_summary.get("stranded_workers", 0),
                "pool_leases": pool_summary.get("leases", 0),
                "pool_warm_acquires":
                    pool_summary.get("warm_acquires", 0),
                "pool_rebuilds": pool_summary.get("rebuilds", 0),
            })
        stats = self.verdict_cache.stats()
        summary.update({
            "verdict_cache_hits": stats["hits"],
            "verdict_cache_misses": stats["misses"],
            "verdict_cache_coalesced": stats["coalesced"],
            "verdict_cache_evictions": stats["evictions"],
        })
        manifest = obs.build_manifest(
            experiment_id="service",
            config={"workers": self.config.workers,
                    "jobs": self.config.jobs,
                    "queue_depth": self.config.queue_depth,
                    "retries": self.config.retries,
                    "chunk_size": self.config.chunk_size,
                    "breaker_threshold": self.config.breaker_threshold,
                    "quota_rps": self.config.quota_rps},
            summary=summary,
            metrics=self.metrics_snapshot(), spans=[])
        return obs.write_manifest(manifest, self.config.manifest_out)


def _queued_past_deadline(record: RequestRecord):
    from .errors import DeadlineExceeded

    waited = time.monotonic() - record.submitted_monotonic
    return DeadlineExceeded(
        f"request spent {waited:.1f}s queued, past its "
        f"{record.request.deadline_s}s deadline; never executed")
