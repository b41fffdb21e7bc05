"""Fault tolerance for the batch engine: retries, timeouts, recovery.

Every headline number of the reproduction is an aggregate over many
independent simulations, and a long sweep dies in one of a small number
of well-understood ways: a worker process crashes (``BrokenProcessPool``
discards the whole batch), a runaway simulation never halts, a restricted
environment refuses to create a process pool at all, or the operator
kills an hours-long collection that was 90 % done.  This module gives
:func:`repro.harness.engine.run_jobs` a disciplined answer to each:

* **Typed failures** — a failed job becomes a :class:`JobFailure` record
  (exception class, label, attempt count, wall time, and the pc/cycle of
  a :class:`~repro.machine.exceptions.CycleLimitExceeded`) instead of an
  opaque traceback, under the ``collect`` and ``retry`` policies.
* **Bounded attempts** — ``failure_policy="retry"`` re-runs a failed job
  up to ``retries`` more times with *deterministic* jittered backoff:
  the jitter is seeded from ``(noise_seed, index, attempt)``, never the
  wall clock, so a retried batch is bit-identical to a clean one.
* **Bounded time** — ``job_timeout`` arms a wall-clock alarm inside the
  worker (clean :class:`JobTimeout`) plus a parent-side deadline that
  kills and rebuilds the pool if a worker wedges hard; the in-machine
  cycle budget already bounds simulated time via
  :class:`~repro.machine.exceptions.CycleLimitExceeded`.
* **Pool recovery** — on ``BrokenProcessPool`` the pool is rebuilt and
  only unfinished jobs are resubmitted; if the pool keeps breaking
  without progress, or cannot be created at all, execution degrades to
  the serial path with a logged warning instead of crashing.
* **Checkpoint/resume** — ``checkpoint=directory`` stores every
  completed :class:`~repro.harness.engine.JobResult` as one artifact-store
  entry keyed by the job's content (:func:`result_key`), so an
  interrupted sweep resumes by recomputing only the unfinished jobs, and
  a changed sweep reuses exactly its unchanged ones.
* **Deterministic fault injection** — ``REPRO_FAULT_PLAN`` makes job N
  crash / hang / raise / return garbage on attempt K, so every recovery
  path above is exercised by real process-pool tests.

The module is woven into the engine: :func:`execute_batch` *is* the
implementation behind ``run_jobs`` for every policy, including the
seed-compatible ``raise`` default.
"""

from __future__ import annotations

import copy
import hashlib
import logging
import os
import pickle
import random
import signal
import threading
import time
import traceback as traceback_module
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from .. import obs
from ..fingerprint import artifact_key
from ..machine.exceptions import CycleLimitExceeded
from ..obs import progress as obs_progress

logger = logging.getLogger("repro.harness.resilience")

#: Environment hook for deterministic fault injection (tests/CI only).
#: Format: ``;``-separated entries of ``TARGET:ATTEMPT:KIND`` where
#: TARGET is a job index or label, ATTEMPT is 1-based (``*`` = every
#: attempt), and KIND is one of ``crash``, ``raise``, ``hang``,
#: ``hang-hard``, ``garbage``.  Example: ``"2:1:crash;trace[5]:*:raise"``.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Base delay (seconds) for the deterministic exponential backoff.
BACKOFF_BASE_S = 0.05
#: Ceiling on a single backoff delay.
BACKOFF_MAX_S = 2.0


class BatchInterrupted(RuntimeError):
    """The operator interrupted a batch (SIGTERM/SIGINT).

    Raised by :func:`execute_batch` after an orderly stop: in-flight
    pool workers are killed, every completed job is already fsync'd in
    the checkpoint directory (when one is given), and a final forced
    heartbeat records how far the batch got.  A rerun with the same
    ``checkpoint=`` path resumes from ``done`` completed jobs.
    """

    def __init__(self, signum: int, done: int, total: int):
        try:
            name = signal.Signals(signum).name
        except ValueError:
            name = f"signal {signum}"
        super().__init__(
            f"batch interrupted by {name} after {done}/{total} job(s); "
            "checkpointed work is preserved")
        self.signum = signum
        self.done = done
        self.total = total


class JobTimeout(RuntimeError):
    """A job exceeded its wall-clock budget (raised inside the worker)."""

    def __init__(self, seconds: float):
        super().__init__(f"job exceeded wall-clock timeout of {seconds}s")
        self.seconds = seconds

    def __reduce__(self):
        return (type(self), (self.seconds,))


@dataclass
class JobFailure:
    """One job that ultimately failed, reduced to a structured record.

    Appears in the results list (in the job's submission slot) under the
    ``collect`` policy, and under ``retry`` once the attempt budget is
    exhausted.  ``pc``/``cycles`` are populated when the underlying error
    was a :class:`~repro.machine.exceptions.CycleLimitExceeded`.
    """

    label: str
    index: int
    error_type: str
    message: str
    attempts: int
    wall_time_s: float = 0.0
    pc: Optional[int] = None
    cycles: Optional[int] = None
    traceback: Optional[str] = None


class BatchError(RuntimeError):
    """A batch that required complete results ended with failures."""

    def __init__(self, failures: Sequence[JobFailure]):
        self.failures = list(failures)
        preview = "; ".join(
            f"[{f.index}] {f.label or '<unlabeled>'}: {f.error_type} "
            f"after {f.attempts} attempt(s)" for f in self.failures[:4])
        more = len(self.failures) - 4
        if more > 0:
            preview += f"; ... {more} more"
        super().__init__(f"{len(self.failures)} job(s) failed: {preview}")


def require_results(results: Sequence) -> list:
    """Assert a batch completed fully; raise :class:`BatchError` if not.

    Callers that cannot use partial results (DPA needs every trace, a
    sweep point needs all four policies) funnel ``run_jobs`` output
    through this instead of crashing on a surprise :class:`JobFailure`
    deep inside numpy.
    """
    failures = [entry for entry in results if isinstance(entry, JobFailure)]
    if failures:
        raise BatchError(failures)
    return list(results)


# ---------------------------------------------------------------------------
# Deterministic fault injection (REPRO_FAULT_PLAN)
# ---------------------------------------------------------------------------


class FaultInjected(RuntimeError):
    """The failure raised by a ``raise`` entry of the fault plan."""


@lru_cache(maxsize=8)
def _parse_fault_plan(text: str) -> tuple[tuple[str, str, str], ...]:
    entries = []
    for raw in text.split(";"):
        raw = raw.strip()
        if not raw:
            continue
        parts = raw.rsplit(":", 2)
        if len(parts) != 3:
            raise ValueError(f"bad {FAULT_PLAN_ENV} entry {raw!r}; expected "
                             "TARGET:ATTEMPT:KIND")
        target, attempt, kind = parts
        if kind not in ("crash", "raise", "hang", "hang-hard", "garbage"):
            raise ValueError(f"unknown fault kind {kind!r} in {raw!r}")
        entries.append((target, attempt, kind))
    return tuple(entries)


def fault_for(index: int, label: str, attempt: int) -> Optional[str]:
    """The planned fault kind for this (job, attempt), or ``None``.

    Reads ``REPRO_FAULT_PLAN`` from the environment on every call so the
    plan crosses the process boundary to pool workers under both fork
    and spawn start methods.
    """
    plan = os.environ.get(FAULT_PLAN_ENV, "")
    if not plan:
        return None
    for target, when, kind in _parse_fault_plan(plan):
        if target != str(index) and target != label:
            continue
        if when != "*" and when != str(attempt):
            continue
        return kind
    return None


def _trip_fault(kind: str):
    """Execute one planned fault inside the worker.

    Returns a garbage payload for ``garbage``; the other kinds never
    return normally.
    """
    if kind == "crash":
        os._exit(23)  # hard process death: no cleanup, no exception
    if kind == "raise":
        raise FaultInjected("fault plan: injected failure")
    if kind == "hang":
        time.sleep(3600.0)  # interruptible: the in-worker alarm fires
        raise FaultInjected("fault plan: hang outlived the test")
    if kind == "hang-hard":
        # Mask the alarm so only the parent-side deadline can recover —
        # models a worker wedged in signal-blind native code.
        if hasattr(signal, "pthread_sigmask"):
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        time.sleep(3600.0)
        raise FaultInjected("fault plan: hard hang outlived the test")
    return ("garbage", "not a JobResult")


# ---------------------------------------------------------------------------
# Deterministic backoff
# ---------------------------------------------------------------------------


def backoff_delay(noise_seed: int, index: int, attempt: int,
                  base: float = BACKOFF_BASE_S,
                  cap: float = BACKOFF_MAX_S) -> float:
    """Exponential backoff with jitter that never consults the clock.

    The jitter stream is seeded from the job's identity (its noise seed
    and batch index) plus the attempt number, so two runs of the same
    batch back off identically — retried batches stay reproducible down
    to their scheduling delays.
    """
    if attempt < 1:
        raise ValueError(f"attempt is 1-based, got {attempt}")
    jitter = random.Random(f"{noise_seed}:{index}:{attempt}").random()
    return min(cap, base * (2.0 ** (attempt - 1)) * (1.0 + jitter))


# ---------------------------------------------------------------------------
# In-worker wall-clock guard
# ---------------------------------------------------------------------------


@contextmanager
def _wall_clock_guard(seconds: Optional[float]):
    """Raise :class:`JobTimeout` in the current thread after ``seconds``.

    Uses ``SIGALRM``, so it only arms on the main thread of a POSIX
    process — exactly where pool workers (and the serial path) run.
    Elsewhere it is a no-op and the parent-side deadline is the only
    wall-clock bound.
    """
    if not seconds or seconds <= 0 or not hasattr(signal, "SIGALRM") \
            or threading.current_thread() is not threading.main_thread():
        yield
        return

    def _alarm(signum, frame):
        raise JobTimeout(seconds)

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# Worker protocol
# ---------------------------------------------------------------------------


@dataclass
class _WorkerFailure:
    """A failed attempt, shipped home instead of an opaque traceback."""

    error_type: str
    message: str
    traceback: str
    wall_time_s: float
    pc: Optional[int] = None
    cycles: Optional[int] = None
    #: The original exception when it survives a pickle round-trip, so
    #: the ``raise`` policy re-raises the real type.
    exception: Optional[BaseException] = None

    @classmethod
    def from_exception(cls, exc: BaseException,
                       wall: float) -> "_WorkerFailure":
        record = cls(error_type=type(exc).__name__, message=str(exc),
                     traceback=traceback_module.format_exc(),
                     wall_time_s=wall)
        if isinstance(exc, CycleLimitExceeded):
            record.pc = exc.pc
            record.cycles = exc.cycles
        try:
            record.exception = pickle.loads(pickle.dumps(exc))
        except Exception:
            record.exception = None  # strings above still tell the story
        return record


def run_attempt(index: int, job, attempt: int,
                job_timeout: Optional[float]):
    """Execute one attempt of one job in the current process.

    Returns a :class:`~repro.harness.engine.JobResult`, a
    :class:`_WorkerFailure`, or (under a ``garbage`` fault) an arbitrary
    object the parent-side validation rejects.  Never raises for
    job-level errors — only for process-level disasters (a planned
    ``crash`` fault, ``KeyboardInterrupt``).
    """
    from .engine import execute_job

    start = time.perf_counter()
    try:
        with _wall_clock_guard(job_timeout):
            kind = fault_for(index, job.label, attempt)
            if kind is not None:
                return _trip_fault(kind)
            return execute_job(job)
    except Exception as exc:
        return _WorkerFailure.from_exception(
            exc, wall=time.perf_counter() - start)


def _pool_attempt(index: int, job, attempt: int,
                  job_timeout: Optional[float]):
    """Module-level pool entry point (must pickle by reference)."""
    return index, attempt, run_attempt(index, job, attempt, job_timeout)


# ---------------------------------------------------------------------------
# Graceful interrupt (SIGTERM/SIGINT)
# ---------------------------------------------------------------------------


@contextmanager
def _interrupt_guard():
    """Convert SIGTERM/SIGINT into a cooperative stop flag for the batch.

    Yields a zero-argument callable returning the received signal number
    (or ``None``); schedulers poll it between jobs/attempts.  Handlers
    only install on the main thread of the main interpreter — elsewhere
    (service executor threads, pool workers) this is a no-op and whoever
    owns the process keeps its own signal discipline.
    """
    if threading.current_thread() is not threading.main_thread():
        yield lambda: None
        return
    received: dict[str, int] = {}

    def _handler(signum, frame):
        received.setdefault("signum", signum)

    previous = {}
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _handler)
    except (ValueError, OSError):  # embedded interpreter oddities
        for signum, old in previous.items():
            signal.signal(signum, old)
        yield lambda: None
        return
    try:
        yield lambda: received.get("signum")
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)


def _finalize_interrupt(state: "_BatchState", signum: int) -> None:
    """Orderly end of an interrupted batch: heartbeat, count, raise.

    The checkpoint needs no explicit flush — every result was stored as
    one fsync'd entry at completion time.
    """
    counter = _obs_counter("batch_interrupts",
                           "batches stopped by SIGTERM/SIGINT")
    if counter is not None:
        counter.inc()
    reporter = obs_progress.current()
    if reporter is not None:
        reporter.heartbeat(force=True)
    logger.warning("batch interrupted (%d/%d done); checkpointed work "
                   "is preserved", state.done, state.total)
    raise BatchInterrupted(signum, done=state.done, total=state.total)


# ---------------------------------------------------------------------------
# Checkpoint entries
# ---------------------------------------------------------------------------


def _program_digest(program) -> bytes:
    """SHA-256 of a prebuilt program's pickle, without its memos."""
    from .engine import CompileRequest

    if isinstance(program, CompileRequest):
        return program.cache_key().encode()
    memos = vars(program).keys() - {field.name for field in fields(program)}
    if memos:
        # Attributes beyond the dataclass fields are caches of derived
        # values (the fast path's digest, the pipeline's encoded text);
        # identity must not depend on which process touched the program
        # first.
        program = copy.copy(program)
        for name in memos:
            delattr(program, name)
    return hashlib.sha256(pickle.dumps(program)).digest()


def job_digest(job, programs: Optional[dict] = None) -> bytes:
    """Stable digest of one job's full identity (program + run config).

    ``programs`` maps ``id(program)`` to its program digest across one
    batch, so a batch of jobs sharing a program pickles it once; the
    batch's job list keeps every program alive, so no id is reused.
    """
    program = job.program
    if programs is None:
        programs = {}
    program_digest = programs.get(id(program))
    if program_digest is None:
        program_digest = programs[id(program)] = _program_digest(program)
    digest = hashlib.sha256()
    digest.update(program_digest)
    digest.update(repr((job.inputs, job.des_pair, job.noise_sigma,
                        job.noise_seed, job.label, job.collect_components,
                        job.operand_isolation, job.max_cycles)).encode())
    digest.update(repr(job.params).encode())
    return digest.digest()


def result_key(job, programs: Optional[dict] = None) -> str:
    """Store key of one job's :class:`~repro.harness.engine.JobResult`.

    Covers the job's identity (:func:`job_digest`, which ``programs``
    memoizes per batch) and whether the run records attribution, under
    the store's key rule, so a source edit misses and an attributed run
    never takes an unattributed result.
    """
    attributed = bool(job.attribute or obs.attribution_enabled())
    return artifact_key("result", job_digest(job, programs).hex(),
                        attributed)


def checkpoint_store(directory: Union[str, Path]):
    """The artifact store that holds a batch's checkpointed results.

    Results stay on disk only (a one-byte memory budget keeps none): the
    batch already holds them in its slots, or hands them to a consumer
    that must be free to drop them.  A path that exists and is not a
    directory (a journal file from an older version) is refused instead
    of degrading to an unsaved run.
    """
    from .engine import CompileCache

    directory = Path(directory)
    if directory.exists() and not directory.is_dir():
        raise NotADirectoryError(
            f"checkpoint {directory} is a file; --checkpoint takes a "
            "directory (journal files of older versions are not read)")
    return CompileCache(directory, max_bytes=1)


# ---------------------------------------------------------------------------
# Batch executor
# ---------------------------------------------------------------------------


def _obs_counter(name: str, help_text: str = ""):
    return obs.counter(name, help_text) if obs.enabled() else None


class _BatchState:
    """Bookkeeping shared by the serial and pool schedulers."""

    def __init__(self, batch: Sequence, progress, failure_policy: str,
                 max_attempts: int, job_timeout: Optional[float],
                 store=None, consume=None):
        self.batch = list(batch)
        self.total = len(self.batch)
        self.progress = progress
        self.failure_policy = failure_policy
        self.max_attempts = max_attempts
        self.job_timeout = job_timeout
        #: Checkpoint store (:func:`checkpoint_store`) and each job's
        #: :func:`result_key` in it, or ``None`` without a checkpoint.
        self.store = store
        programs: dict = {}
        self.keys = [result_key(job, programs) for job in self.batch] \
            if store is not None else None
        self.slots: list = [None] * self.total
        self.done = 0
        #: In-order consumer ``consume(index, outcome)``, or ``None`` to
        #: keep every outcome in :attr:`slots` until the batch ends.
        self.consume = consume
        #: Slots below this index were handed to :attr:`consume` and
        #: emptied again.
        self.delivered = 0
        #: Filled slots at or above :attr:`delivered`: outcomes the
        #: batch holds for the consumer.
        self.held = 0
        #: Zero-arg callable → received signal number or ``None``;
        #: installed by :func:`execute_batch`'s interrupt guard.
        self.interrupt_check: Callable[[], Optional[int]] = lambda: None

    def skip_completed(self) -> list[int]:
        """Fill slots from the checkpoint; returns the indices to run."""
        if self.store is not None:
            for index, key in enumerate(self.keys):
                result = self.store.artifact(key)
                if _is_result(result):
                    result.resumed = True
                    self._fill(index, result)
                    self.done += 1
        if self.done:
            if obs.enabled():
                obs.counter("checkpoint_jobs_skipped",
                            "jobs resumed from a checkpoint") \
                    .inc(self.done)
            if self.progress is not None:
                self.progress(self.done, self.total)
        return [index for index in range(self.total)
                if self.slots[index] is None]

    def _fill(self, index: int, outcome) -> None:
        self.slots[index] = outcome
        self.held += 1

    def deliver(self, limit: Optional[int] = None) -> int:
        """Hand final slots of the in-order prefix to the consumer.

        At most ``limit`` slots (all ready ones when ``None``); returns
        how many were consumed.  A slot is emptied as its outcome is
        consumed.  No-op without a consumer.
        """
        if self.consume is None:
            return 0
        slots = self.slots
        count = 0
        while (limit is None or count < limit) \
                and self.delivered < self.total \
                and slots[self.delivered] is not None:
            index = self.delivered
            outcome, slots[index] = slots[index], None
            self.delivered += 1
            self.held -= 1
            count += 1
            self.consume(index, outcome)
        return count

    def may_start(self, running: int, workers: int) -> bool:
        """May the pool scheduler start another job?

        At most ``workers`` jobs run at once.  Under a consumer the
        outcomes held for it count against the same window, plus one for
        the outcome being consumed, so the parent holds at most
        ``workers + 1`` outcomes at any consume; a job whose earlier
        neighbour is slow waits instead of piling up results.  With
        nothing running a job may always start, so no batch stalls.
        """
        if running >= workers:
            return False
        return self.consume is None or running == 0 \
            or running + self.held <= workers

    def succeed(self, index: int, result) -> None:
        self._fill(index, result)
        self.done += 1
        if self.store is not None:
            self.store.store_artifact(self.keys[index], result)
            if obs.enabled():
                obs.counter("checkpoint_jobs_recorded",
                            "jobs stored to a checkpoint").inc()
        if self.progress is not None:
            self.progress(self.done, self.total)

    def fail(self, index: int, attempt: int, failure) -> None:
        """Finalize a job as failed (attempt budget exhausted)."""
        job = self.batch[index]
        if isinstance(failure, _WorkerFailure):
            record = JobFailure(label=job.label, index=index,
                                error_type=failure.error_type,
                                message=failure.message, attempts=attempt,
                                wall_time_s=failure.wall_time_s,
                                pc=failure.pc, cycles=failure.cycles,
                                traceback=failure.traceback)
        else:
            record = failure  # pre-built JobFailure (crash/timeout paths)
        counter = _obs_counter("job_failures", "jobs that exhausted their "
                               "attempt budget, by error type")
        if counter is not None:
            counter.inc(error=record.error_type)
        reporter = obs_progress.current()
        if reporter is not None:
            reporter.note_failure()
        if self.failure_policy == "raise":
            exception = getattr(failure, "exception", None) \
                if isinstance(failure, _WorkerFailure) else None
            if exception is not None:
                raise exception
            raise RuntimeError(
                f"job {record.index} ({record.label or '<unlabeled>'}) "
                f"failed after {record.attempts} attempt(s): "
                f"{record.error_type}: {record.message}")
        self._fill(index, record)
        self.done += 1
        if self.progress is not None:
            self.progress(self.done, self.total)

    def should_retry(self, attempt: int) -> bool:
        return attempt < self.max_attempts

    def note_retry(self) -> None:
        counter = _obs_counter("job_retries",
                               "failed attempts that were retried")
        if counter is not None:
            counter.inc()
        reporter = obs_progress.current()
        if reporter is not None:
            reporter.note_retry()


def execute_batch(batch: Sequence, jobs: int = 1, progress=None,
                  failure_policy: str = "raise", retries: int = 2,
                  job_timeout: Optional[float] = None,
                  checkpoint: Optional[Union[str, Path]] = None,
                  consume: Optional[Callable[[int, object], None]] = None
                  ) -> Union[list, int]:
    """Run a batch under a failure policy; the engine's implementation.

    Returns one entry per job in submission order: a ``JobResult``, or a
    :class:`JobFailure` in that job's slot under ``collect``/``retry``
    when it ultimately failed.  ``raise`` re-raises the first failure
    (seed-compatible) after cancelling pending work.

    With ``consume``, each entry instead goes to ``consume(index,
    entry)`` as soon as every earlier slot is final, in submission order
    under any worker count, and its slot is emptied; the return value
    is then the number of entries consumed.  The pool scheduler refills
    its worker window before each consume, and counts the entries held
    for the consumer against that window (see
    :meth:`_BatchState.may_start`), so a consume finds at most
    ``jobs + 1`` results in the parent.

    On the main thread, SIGTERM/SIGINT stop the batch gracefully:
    workers are killed, checkpointed results stay on disk, and
    :class:`BatchInterrupted` is raised instead of the process dying
    mid-write.
    """
    if failure_policy not in ("raise", "collect", "retry"):
        raise ValueError(f"unknown failure_policy {failure_policy!r}; "
                         "choose 'raise', 'collect', or 'retry'")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    max_attempts = 1 + (retries if failure_policy == "retry" else 0)
    store = checkpoint_store(checkpoint) if checkpoint is not None else None
    state = _BatchState(batch, progress, failure_policy, max_attempts,
                        job_timeout, store, consume)
    pending = state.skip_completed()
    if pending:
        with _interrupt_guard() as check:
            state.interrupt_check = check
            if jobs <= 1 or len(pending) <= 1:
                _run_serial(state, pending)
            else:
                _run_pool(state, pending, jobs)
    if consume is None:
        return state.slots
    state.deliver()
    return state.delivered


def _run_serial(state: _BatchState, pending: Sequence[int]) -> None:
    """In-process execution with the same retry/timeout discipline."""
    for index in pending:
        _serial_from_attempt(state, index, 1)


def _is_result(outcome) -> bool:
    from .engine import JobResult

    return isinstance(outcome, JobResult)


def _coerce_failure(outcome) -> _WorkerFailure:
    """Anything that is not a JobResult/_WorkerFailure is garbage."""
    if isinstance(outcome, _WorkerFailure):
        return outcome
    return _WorkerFailure(error_type="GarbageResult",
                          message=f"worker returned {type(outcome).__name__}"
                                  f" instead of JobResult: {outcome!r:.120}",
                          traceback="", wall_time_s=0.0)


# -- process-pool scheduler -------------------------------------------------


def _run_pool(state: _BatchState, pending: Sequence[int],
              jobs: int) -> None:
    """Windowed pool scheduler with deadlines, retries, and recovery.

    At most ``workers`` jobs are in flight, so a submitted job starts
    (nearly) immediately and its parent-side deadline is measured from
    real start, not batch submission.  The deadline is the in-worker
    alarm's backstop: it fires ``_DEADLINE_GRACE`` later and handles
    workers the alarm cannot reach (hard hangs in native code).
    """
    from concurrent.futures import FIRST_COMPLETED, wait
    from concurrent.futures.process import BrokenProcessPool

    from . import pool as pool_module

    workers = min(jobs, len(pending))
    # Lease the process-wide warm pool.  ``None`` means it is busy with
    # another batch, shut down, or unbuildable: run serially instead.
    pool = pool_module.acquire_lease(workers)
    if pool is None:
        _run_serial(state, pending)
        return
    #: (ready_time, index, attempt); ready_time is monotonic seconds.
    queue: deque = deque((0.0, index, 1) for index in pending)
    inflight: dict = {}  # future -> (index, attempt, start_monotonic)
    rebuilds_without_progress = 0
    grace = max(1.0, 0.25 * state.job_timeout) if state.job_timeout else None

    def _requeue(index: int, attempt: int, delay: float) -> None:
        queue.append((time.monotonic() + delay, index, attempt))

    def _handle_failure(index: int, attempt: int, failure) -> None:
        job = state.batch[index]
        if state.should_retry(attempt):
            state.note_retry()
            _requeue(index, attempt + 1,
                     backoff_delay(job.noise_seed, index, attempt))
        else:
            state.fail(index, attempt, failure)

    def _broken_pool(error) -> None:
        """All in-flight work died with the pool; reschedule or finalize."""
        nonlocal pool, rebuilds_without_progress
        casualties = list(inflight.values())
        inflight.clear()
        # kill(), not a bare shutdown(wait=False): a broken pool can
        # strand its surviving workers blocked on the call queue, and the
        # non-daemon executor manager thread then hangs interpreter exit.
        pool.kill()
        if state.failure_policy == "raise":
            raise error
        for index, attempt, start in casualties:
            failure = JobFailure(
                label=state.batch[index].label, index=index,
                error_type="WorkerCrash",
                message=f"process pool broke mid-job: {error}",
                attempts=attempt,
                wall_time_s=time.monotonic() - start)
            _handle_failure(index, attempt, failure)
        rebuilds_without_progress += 1
        if rebuilds_without_progress > 1:
            logger.warning("process pool broke twice without completing a "
                           "job; degrading to serial execution")
            counter = _obs_counter("pool_serial_degradations")
            if counter is not None:
                counter.inc()
            pool.release()
            pool = None
        elif not pool.replace():
            pool = None

    try:
        while queue or inflight:
            signum = state.interrupt_check()
            if signum is not None:
                if pool is not None:
                    pool.kill()
                    pool.release()
                    pool = None
                _finalize_interrupt(state, signum)
            if pool is None:
                # Degraded: drain everything still queued serially.
                remaining = sorted(index for _, index, _ in queue)
                attempts = {index: attempt for _, index, attempt in queue}
                queue.clear()
                for index in remaining:
                    # Serial attempts restart the per-job budget from the
                    # recorded attempt, preserving the bound.
                    _serial_from_attempt(state, index, attempts[index])
                return
            now = time.monotonic()
            while queue and state.may_start(len(inflight), workers) \
                    and queue[0][0] <= now:
                ready, index, attempt = queue.popleft()
                try:
                    future = pool.submit(_pool_attempt, index,
                                         state.batch[index], attempt,
                                         state.job_timeout)
                except BrokenProcessPool as error:
                    queue.appendleft((ready, index, attempt))
                    _broken_pool(error)
                    break
                inflight[future] = (index, attempt, time.monotonic())
            # Consume one outcome at a time, each after refilling the
            # window, so the workers run while the consumer works.
            if state.deliver(limit=1):
                continue
            if not inflight:
                if queue:
                    delay = max(0.0, min(entry[0] for entry in queue)
                                - time.monotonic())
                    time.sleep(min(delay, 0.25))
                continue
            tick = 0.25
            if grace is not None:
                next_deadline = min(
                    start + state.job_timeout + grace
                    for _, _, start in inflight.values())
                tick = min(tick, max(0.01, next_deadline - time.monotonic()))
            completed, _ = wait(set(inflight), timeout=tick,
                                return_when=FIRST_COMPLETED)
            for future in completed:
                index, attempt, start = inflight.pop(future)
                try:
                    _, _, outcome = future.result()
                except BrokenProcessPool as error:
                    inflight[future] = (index, attempt, start)
                    _broken_pool(error)
                    break
                except Exception as exc:  # result deserialization, ...
                    _handle_failure(index, attempt,
                                    _WorkerFailure.from_exception(
                                        exc, wall=time.monotonic() - start))
                    continue
                if _is_result(outcome):
                    rebuilds_without_progress = 0
                    state.succeed(index, outcome)
                else:
                    _handle_failure(index, attempt, _coerce_failure(outcome))
            # A done future pins its result: drop the loop's references
            # so a consumed result is freed before the next wait.
            completed = future = outcome = None
            if grace is not None and inflight:
                overdue = [
                    (future, entry) for future, entry in inflight.items()
                    if time.monotonic() - entry[2]
                    > state.job_timeout + grace]
                if overdue:
                    pool = _reap_overdue(state, pool, inflight, overdue,
                                         _handle_failure, _requeue)
    finally:
        if pool is not None:
            pool.release()


def _reap_overdue(state: _BatchState, pool, inflight: dict, overdue: list,
                  _handle_failure, _requeue):
    """Kill a pool whose worker blew past the parent-side deadline.

    The overdue job(s) count a failed attempt; innocent in-flight jobs
    are requeued at their current attempt (they did nothing wrong and
    re-running them is free of side effects).
    """
    counter = _obs_counter("job_timeouts",
                           "jobs killed by the parent-side deadline")
    overdue_futures = {future for future, _ in overdue}
    for future, (index, attempt, start) in overdue:
        if counter is not None:
            counter.inc()
        failure = JobFailure(
            label=state.batch[index].label, index=index,
            error_type="JobTimeout",
            message=f"job exceeded wall-clock timeout of "
                    f"{state.job_timeout}s (parent-side deadline; worker "
                    "killed)",
            attempts=attempt, wall_time_s=time.monotonic() - start)
        if state.failure_policy == "raise":
            pool.kill()
            raise JobTimeout(state.job_timeout)
        _handle_failure(index, attempt, failure)
    for future, (index, attempt, start) in list(inflight.items()):
        if future not in overdue_futures:
            _requeue(index, attempt, 0.0)
    inflight.clear()
    return pool if pool.replace() else None


def _serial_from_attempt(state: _BatchState, index: int,
                         first_attempt: int) -> None:
    """Serial retry loop starting at a given attempt number."""
    job = state.batch[index]
    attempt = max(1, first_attempt)
    while True:
        signum = state.interrupt_check()
        if signum is not None:
            _finalize_interrupt(state, signum)
        outcome = run_attempt(index, job, attempt, state.job_timeout)
        if _is_result(outcome):
            state.succeed(index, outcome)
            state.deliver()
            return
        failure = _coerce_failure(outcome)
        if state.should_retry(attempt):
            state.note_retry()
            time.sleep(backoff_delay(job.noise_seed, index, attempt))
            attempt += 1
            continue
        state.fail(index, attempt, failure)
        state.deliver()
        return
