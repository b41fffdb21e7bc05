"""Request execution: one :class:`AssessRequest` -> one result document.

:func:`execute_assessment` is the *only* place a request's jobs are
built, so the daemon's executor threads and the batch CLI
(``repro submit --local``) run literally the same code — the service's
bit-identity guarantee is structural, not tested-into-existence.  The
job batch is shaped exactly like :func:`repro.attacks.dpa.collect_traces`
builds it (per-trace ``noise_seed = index + 1``, ``trace[i]`` labels),
and the result carries a SHA-256 digest of the stacked energy matrix as
the identity anchor.

Execution is **chunked** so long requests stay cancellable: between
chunks the executor consults the deadline and the cancel event and
raises the matching typed error
(:class:`~repro.service.errors.DeadlineExceeded` /
:class:`~repro.service.errors.ShuttingDown`).  A chunk in flight is
bounded by the request's ``max_cycles`` budget (and, under a worker
pool, by ``job_timeout``), so cancellation latency is one chunk, not one
request.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Callable, Optional

import numpy as np

from .. import obs
from ..energy.trace import EnergyTrace
from ..harness.engine import CompileCache, SimJob, default_cache, run_jobs
from ..harness.resilience import JobFailure
from .errors import DeadlineExceeded, RequestFailed, ShuttingDown
from .protocol import SCHEMA, AssessRequest

#: Traces per run_jobs call — the cancellation granularity.
DEFAULT_CHUNK_SIZE = 16

#: Failure types that indicate the *pool* was abused rather than the
#: assessment honestly failing — these feed the circuit breaker.
CRASH_ERROR_TYPES = ("WorkerCrash", "BrokenProcessPool", "GarbageResult")


class ExecutionFailed(RequestFailed):
    """Typed execution failure carrying the batch's failure records."""

    def __init__(self, message: str, failures: list[JobFailure]):
        super().__init__(message)
        self.failures = failures

    @property
    def crashed_workers(self) -> bool:
        return any(f.error_type in CRASH_ERROR_TYPES
                   for f in self.failures)


def _build_jobs(request: AssessRequest, program, *,
                observe: bool = False,
                attribute: bool = False) -> list[SimJob]:
    """The request's job batch — collect_traces-shaped for bit-identity.

    ``observe``/``attribute`` ride on the jobs themselves so pool
    workers (fresh processes, blind to the submitter's thread-local
    forced scope) still record and ship their span trees home.
    """
    from ..attacks.dpa import random_plaintexts

    if request.mode == "pair":
        pairs = [(request.key, request.plaintext),
                 (request.key_b, request.plaintext)]
    else:
        pairs = [(request.key, plaintext) for plaintext in
                 random_plaintexts(request.n_traces, seed=request.seed)]
    return [SimJob(program=program, des_pair=pair,
                   noise_sigma=request.noise_sigma, noise_seed=index + 1,
                   label=f"trace[{index}]", max_cycles=request.max_cycles,
                   engine=request.engine, observe=observe,
                   attribute=attribute)
            for index, pair in enumerate(pairs)]


def _verdict(request: AssessRequest, rows: np.ndarray, markers,
             plaintexts: list[int]) -> dict:
    """Leakage verdict over the collected traces, per the request mode.

    ``pair`` is the paper's differential form (max |Δ| per region vs the
    picojoule budget); ``population`` partitions by plaintext LSB — a
    public, uniformly split selection bit — and judges the peak Welch-t.
    Both read the request's energy matrix ``rows``; ``markers`` are the
    first trace's.
    """
    from ..obs.leakage import assess_pair, assess_population

    if request.mode == "pair":
        report = assess_pair(EnergyTrace(rows[0], markers),
                             EnergyTrace(rows[1]), budget_pj=request.budget_pj,
                             label=f"pair:{request.masking}")
    else:
        partition = np.array([plaintext & 1 for plaintext in plaintexts],
                             dtype=np.int64)
        report = assess_population(rows, partition, markers,
                                   budget_t=request.budget_t,
                                   budget_pj=request.budget_pj,
                                   label=f"tvla:{request.masking}")
    document = report.to_dict()
    document["mode"] = request.mode
    return document


def _check_aligned(mode: str, rows: np.ndarray, index: int,
                   energy: np.ndarray) -> None:
    """Raise the error the verdict's own alignment check raises for a
    trace whose length differs from the first one's: the differential's
    (:meth:`EnergyTrace.diff`) in pair mode, ``np.vstack``'s in
    population mode."""
    if energy.shape[0] == rows.shape[1]:
        return
    if mode == "pair":
        EnergyTrace(rows[0]).diff(EnergyTrace(energy))
    np.vstack([*rows[:index], energy])


def trace_digest(rows) -> str:
    """SHA-256 over the energy rows in trace order — the bit-identity
    anchor.  ``rows`` is a request's ``(n_traces, cycles)`` matrix, or
    results with an ``energy`` row each
    (:class:`~repro.harness.engine.JobResult`); each row is hashed in
    place, without a byte copy."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update(np.ascontiguousarray(getattr(row, "energy", row),
                                           dtype=np.float64))
    return digest.hexdigest()


def execute_assessment(
        request: AssessRequest, *,
        cache: Optional[CompileCache] = None,
        jobs: int = 1,
        retries: int = 2,
        job_timeout: Optional[float] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        deadline_monotonic: Optional[float] = None,
        cancel: Optional[threading.Event] = None,
        on_chunk: Optional[Callable[[int, int], None]] = None,
        observe: bool = False,
        attribute: bool = False,
        on_event: Optional[Callable[..., None]] = None) -> dict:
    """Run one assessment request to completion in the current thread.

    Raises :class:`DeadlineExceeded` / :class:`ShuttingDown` at chunk
    boundaries, and :class:`ExecutionFailed` when traces still fail
    after the retry budget.  Returns the result document (JSON-ready).

    ``observe``/``attribute`` turn on per-job tracing for the batch (the
    caller is expected to hold an :func:`repro.obs.scope` so the spans
    land somewhere); ``on_event(name, **detail)`` receives lifecycle
    marks — ``deadline_check``, ``chunk``, ``chunk_failed`` — that the
    daemon folds into the request timeline.  Neither affects the energy
    result: traces are bit-identical with tracing on or off.
    """

    def emit(event: str, **detail) -> None:
        if on_event is not None:
            on_event(event, **detail)

    start = time.perf_counter()
    cache = cache if cache is not None else default_cache()
    compile_request = request.compile_request()
    with obs.span("compile", cipher=request.cipher,
                  masking=request.masking):
        hits_before = cache.stats.hits
        program = cache.program_for(compile_request)
        cache_hit = cache.stats.hits > hits_before
    batch = _build_jobs(request, program, observe=observe,
                        attribute=attribute)
    plaintexts = [job.des_pair[1] for job in batch]

    total = len(batch)
    # The traces, one row each, filled as results arrive; a result is
    # dropped once its row is copied, so the request holds each trace
    # once.
    rows: Optional[np.ndarray] = None
    markers: tuple = ()
    cycles: set[int] = set()
    engines: dict[str, int] = {}
    failures: list[JobFailure] = []
    done = 0

    def collect(_index: int, result) -> None:
        nonlocal rows, markers, done
        if isinstance(result, JobFailure):
            failures.append(result)
            return
        if rows is None:
            rows = np.empty((total, result.energy.shape[0]))
            markers = result.markers
        _check_aligned(request.mode, rows, done, result.energy)
        rows[done] = result.energy
        cycles.add(result.cycles)
        engines[result.engine] = engines.get(result.engine, 0) + 1
        done += 1

    for number, offset in enumerate(
            range(0, total, max(chunk_size, 1))):
        if cancel is not None and cancel.is_set():
            emit("cancelled", done=done, total=total)
            raise ShuttingDown(
                f"request cancelled after {done}/{total} "
                "traces (service draining)")
        if deadline_monotonic is not None:
            remaining = deadline_monotonic - time.monotonic()
            emit("deadline_check", remaining_s=round(remaining, 6))
            if remaining < 0:
                raise DeadlineExceeded(
                    f"deadline exceeded after {done}/{total} traces")
        chunk = batch[offset:offset + max(chunk_size, 1)]
        # Always the "retry" policy (retries=0 just means one attempt):
        # failures come back as typed JobFailure records, so a worker
        # crash feeds the circuit breaker instead of surfacing as a raw
        # BrokenProcessPool.
        with obs.span(f"chunk[{number}]", traces=len(chunk)):
            run_jobs(chunk, jobs=jobs, failure_policy="retry",
                     retries=retries, job_timeout=job_timeout,
                     consume=collect)
        if failures:
            # Spans from the chunk's *successful* jobs were already
            # grafted by run_jobs before this raise, so a mid-chunk
            # failure still leaves a partial span tree behind.
            emit("chunk_failed", done=done, total=total,
                 failed=len(failures),
                 error_type=failures[0].error_type)
            raise ExecutionFailed(
                f"{len(failures)} trace(s) failed after "
                f"{retries + 1} attempt(s): "
                f"{failures[0].error_type}: {failures[0].message}",
                failures)
        emit("chunk", done=done, total=total)
        if on_chunk is not None:
            on_chunk(done, total)

    with obs.span("verdict", mode=request.mode):
        verdict = _verdict(request, rows, markers, plaintexts)
    return {
        "schema": SCHEMA,
        "request": request.to_dict(),
        "n_traces": done,
        "cycles": sorted(cycles),
        "trace_digest": trace_digest(rows),
        "total_pj": round(float(sum(float(row.sum()) for row in rows)), 6),
        "engines": dict(sorted(engines.items())),
        "cache_hit": cache_hit,
        "verdict": verdict,
        "wall_s": round(time.perf_counter() - start, 6),
    }
