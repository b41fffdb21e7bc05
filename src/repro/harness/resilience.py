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
* **Checkpoint/resume** — ``checkpoint=path`` journals every completed
  :class:`~repro.harness.engine.JobResult` keyed by a digest of the
  batch's content, so an interrupted sweep resumes by recomputing only
  the unfinished jobs.
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
import zlib
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from .. import obs
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

#: v2 wraps every record in a CRC-validated frame so a corrupt *middle*
#: of the journal (bit rot, torn write) is detected, not unpickled.
_CHECKPOINT_SCHEMA = "repro.checkpoint/v2"


class BatchInterrupted(RuntimeError):
    """The operator interrupted a batch (SIGTERM/SIGINT).

    Raised by :func:`execute_batch` after an orderly stop: in-flight
    pool workers are killed, every completed job is already fsync'd in
    the checkpoint journal (when one is active), and a final forced
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

    The checkpoint journal needs no explicit flush — every record was
    written as one fsync'd frame at completion time.
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
# Checkpoint journal
# ---------------------------------------------------------------------------


def job_digest(job) -> bytes:
    """Stable digest of one job's full identity (program + run config)."""
    from .engine import CompileRequest

    digest = hashlib.sha256()
    program = job.program
    if isinstance(program, CompileRequest):
        digest.update(program.cache_key().encode())
    else:
        if "_fastpath_digest" in vars(program):
            # The fast path caches its program digest on the instance
            # (a parent-side schedule pre-warm sets it); identity must
            # not depend on which process touched the program first.
            program = copy.copy(program)
            del program._fastpath_digest
        digest.update(hashlib.sha256(pickle.dumps(program)).digest())
    digest.update(repr((job.inputs, job.des_pair, job.noise_sigma,
                        job.noise_seed, job.label, job.collect_components,
                        job.operand_isolation, job.max_cycles)).encode())
    digest.update(repr(job.params).encode())
    return digest.digest()


def batch_digest(batch: Sequence) -> str:
    """Content digest of a whole batch — the checkpoint's identity key."""
    digest = hashlib.sha256()
    digest.update(str(len(batch)).encode())
    for job in batch:
        digest.update(job_digest(job))
    return digest.hexdigest()[:32]


class CheckpointJournal:
    """Append-only journal of completed jobs for one batch.

    The file holds consecutive pickle frames: a header
    ``{"schema", "digest", "total"}`` followed by record frames
    ``(crc32, payload)`` where ``payload`` pickles to
    ``(index, JobResult)``.  Appends write one complete frame and fsync,
    so a crash can only truncate the tail; the CRC additionally catches
    a corrupt frame in the *middle* of the file (bit rot, torn write on
    a weird filesystem).  The loader trusts records strictly up to the
    first bad frame — everything at and after it is recomputed, never
    returned as garbage.  A journal whose header schema or digest does
    not match the batch (older format, or the sweep's content changed)
    is discarded and rewritten, never partially reused.
    """

    def __init__(self, path: Union[str, Path], digest: str,
                 completed: dict[int, object], total: int):
        self.path = Path(path)
        self.digest = digest
        self.completed = completed
        self.total = total
        self._warned = False

    @classmethod
    def open(cls, path: Union[str, Path],
             batch: Sequence) -> "CheckpointJournal":
        digest = batch_digest(batch)
        path = Path(path)
        completed: dict[int, object] = {}
        fresh = True
        if path.exists():
            try:
                with path.open("rb") as stream:
                    header = pickle.load(stream)
                    if (isinstance(header, dict)
                            and header.get("schema") == _CHECKPOINT_SCHEMA
                            and header.get("digest") == digest):
                        fresh = False
                        while True:
                            try:
                                frame = pickle.load(stream)
                            except EOFError:
                                break
                            except (pickle.PickleError, ValueError,
                                    TypeError, AttributeError):
                                logger.warning(
                                    "checkpoint %s: unreadable frame after "
                                    "%d record(s) (truncated tail or "
                                    "corruption); recomputing the rest",
                                    path, len(completed))
                                break
                            record = cls._decode_frame(frame)
                            if record is None:
                                logger.warning(
                                    "checkpoint %s: CRC mismatch after %d "
                                    "record(s); trusting nothing past it",
                                    path, len(completed))
                                break
                            index, result = record
                            if isinstance(index, int) \
                                    and 0 <= index < len(batch):
                                completed[index] = result
                    else:
                        logger.warning(
                            "checkpoint %s: schema or batch digest "
                            "mismatch (older format or stale sweep "
                            "definition); starting fresh", path)
            except (OSError, pickle.PickleError, EOFError):
                logger.warning("checkpoint %s: unreadable; starting fresh",
                               path)
        if fresh:
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("wb") as stream:
                pickle.dump({"schema": _CHECKPOINT_SCHEMA, "digest": digest,
                             "total": len(batch)}, stream)
                stream.flush()
                os.fsync(stream.fileno())
        return cls(path, digest, completed, total=len(batch))

    @staticmethod
    def _decode_frame(frame):
        """``(index, result)`` from a v2 frame, or ``None`` if corrupt.

        The CRC is checked *before* the payload is unpickled, so a
        flipped bit can only ever be rejected — never deserialized into
        a plausible-looking result.
        """
        if (not isinstance(frame, tuple) or len(frame) != 2
                or not isinstance(frame[1], (bytes, bytearray))
                or zlib.crc32(frame[1]) != frame[0]):
            return None
        try:
            record = pickle.loads(frame[1])
        except (pickle.PickleError, ValueError, TypeError,
                AttributeError, EOFError):
            return None
        if not isinstance(record, tuple) or len(record) != 2:
            return None
        return record

    @staticmethod
    def _encode_frame(index: int, result) -> bytes:
        payload = pickle.dumps((index, result))
        return pickle.dumps((zlib.crc32(payload), payload))

    def record(self, index: int, result) -> None:
        """Append one completed job; best-effort (never fails the batch)."""
        if index in self.completed:
            return
        try:
            frame = self._encode_frame(index, result)
            with self.path.open("ab") as stream:
                stream.write(frame)
                stream.flush()
                os.fsync(stream.fileno())
            self.completed[index] = result
        except (OSError, pickle.PickleError) as error:
            if not self._warned:
                logger.warning("checkpoint %s: append failed (%s); "
                               "resume will recompute", self.path, error)
                self._warned = True


# ---------------------------------------------------------------------------
# Batch executor
# ---------------------------------------------------------------------------


def _obs_counter(name: str, help_text: str = ""):
    return obs.counter(name, help_text) if obs.enabled() else None


class _BatchState:
    """Bookkeeping shared by the serial and pool schedulers."""

    def __init__(self, batch: Sequence, progress, failure_policy: str,
                 max_attempts: int, job_timeout: Optional[float],
                 journal: Optional[CheckpointJournal]):
        self.batch = list(batch)
        self.total = len(self.batch)
        self.progress = progress
        self.failure_policy = failure_policy
        self.max_attempts = max_attempts
        self.job_timeout = job_timeout
        self.journal = journal
        self.slots: list = [None] * self.total
        self.done = 0
        #: Zero-arg callable → received signal number or ``None``;
        #: installed by :func:`execute_batch`'s interrupt guard.
        self.interrupt_check: Callable[[], Optional[int]] = lambda: None

    def skip_completed(self) -> list[int]:
        """Fill slots from the journal; returns the indices still to run."""
        if self.journal and self.journal.completed:
            for index, result in self.journal.completed.items():
                self.slots[index] = result
                self.done += 1
            if obs.enabled():
                obs.counter("checkpoint_jobs_skipped",
                            "jobs resumed from a checkpoint journal") \
                    .inc(self.done)
            if self.progress is not None:
                self.progress(self.done, self.total)
        return [index for index in range(self.total)
                if self.slots[index] is None]

    def succeed(self, index: int, result) -> None:
        self.slots[index] = result
        self.done += 1
        if self.journal is not None:
            self.journal.record(index, result)
            if obs.enabled():
                obs.counter("checkpoint_jobs_recorded",
                            "jobs appended to a checkpoint journal").inc()
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
        self.slots[index] = record
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
                  checkpoint: Optional[Union[str, Path]] = None) -> list:
    """Run a batch under a failure policy; the engine's implementation.

    Returns one entry per job in submission order: a ``JobResult``, or a
    :class:`JobFailure` in that job's slot under ``collect``/``retry``
    when it ultimately failed.  ``raise`` re-raises the first failure
    (seed-compatible) after cancelling pending work.

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
    journal = CheckpointJournal.open(checkpoint, batch) \
        if checkpoint is not None else None
    state = _BatchState(batch, progress, failure_policy, max_attempts,
                        job_timeout, journal)
    pending = state.skip_completed()
    if not pending:
        return state.slots
    with _interrupt_guard() as check:
        state.interrupt_check = check
        if jobs <= 1 or len(pending) <= 1:
            _run_serial(state, pending)
        else:
            _run_pool(state, pending, jobs)
    return state.slots


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
            while queue and len(inflight) < workers and queue[0][0] <= now:
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
            return
        failure = _coerce_failure(outcome)
        if state.should_retry(attempt):
            state.note_retry()
            time.sleep(backoff_delay(job.noise_seed, index, attempt))
            attempt += 1
            continue
        state.fail(index, attempt, failure)
        return
