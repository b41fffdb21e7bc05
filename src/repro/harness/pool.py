"""Persistent shared worker pool: warm process workers across batches.

Every ``run_jobs`` call used to build and tear down a fresh
:class:`~concurrent.futures.ProcessPoolExecutor`, so a long-lived
caller (the ``repro serve`` daemon, a chunked ``run_stream`` campaign)
paid fork + import + cache-warm costs on every chunk of every request.
This module keeps **one pool per process** alive between batches and
hands it out through short-lived :class:`PoolLease` objects:

* **Exclusive leasing** — at most one batch holds the pool at a time,
  so a wedged-pool kill or a ``BrokenProcessPool`` rebuild only ever
  destroys the leaseholder's own workers.  A concurrent batch (or one
  arriving after shutdown) gets ``None`` and runs serially in-process
  instead of waiting on another request's campaign; such refusals are
  counted as ``serial_overflows``.
* **Generation rebuilds** — :meth:`PoolLease.replace` kills the current
  worker generation and forks a fresh one in its place.  The resilience
  scheduler's recovery machinery (parent-side deadline reaping,
  broken-pool resubmission, serial degradation) runs on top of the
  lease and never builds or kills an executor itself.
* **Environment fingerprinting** — workers are forked processes and
  never see the parent's *later* environment changes, so the pool
  remembers the fingerprint (:data:`FINGERPRINT_KEYS`: fault plan,
  compile-cache dir, engine selection, observability flags) it was
  built under and rebuilds when an acquire arrives under a different
  one.
* **Warm initializer** — new workers import the simulation stack and
  open the process-wide compile cache *before* the first job arrives,
  so first-job latency is an IPC round-trip, not an import storm.
* **Stats** — :meth:`SharedWorkerPool.stats` feeds service manifests
  (lease/rebuild accounting, stranded-worker count).
* **Deterministic shutdown** — :func:`shutdown_shared_pool` waits for
  the active lease (bounded by a grace period), joins every worker,
  and reports how many refused to die (``stranded_workers``, expected
  0), so a drain manifest can prove the daemon leaked nothing.
"""

from __future__ import annotations

import atexit
import logging
import os
import threading
import time
from typing import Optional

from .. import obs

logger = logging.getLogger("repro.harness.pool")

#: Environment variables a forked worker snapshots at birth.  An acquire
#: whose current environment disagrees with the generation's recorded
#: fingerprint cannot safely reuse those workers (fault plans, cache
#: directories, and engine selection are all read inside the worker).
FINGERPRINT_KEYS = ("REPRO_FAULT_PLAN", "REPRO_COMPILE_CACHE_DIR",
                    "REPRO_ENGINE", "REPRO_OBS", "REPRO_ATTRIBUTION")

#: Default grace (seconds) a shutdown grants the active lease.
DEFAULT_SHUTDOWN_GRACE_S = 30.0


def environment_fingerprint() -> tuple:
    """The parent-side environment snapshot a worker generation inherits."""
    return tuple(os.environ.get(key) for key in FINGERPRINT_KEYS)


def _orphan_watchdog(birth_ppid: int) -> None:  # pragma: no cover
    """Exit the worker once its parent process disappears.

    Warm workers are long-lived, so a SIGKILL'd parent orphans them
    mid-task: siblings hold each other's queue-pipe write ends, so no
    EOF ever reaches the call-queue read and the worker wedges forever
    while still holding the parent's stdout/stderr.  Polling the ppid
    is the only reliable signal — PR_SET_PDEATHSIG tracks the forking
    *thread*, which in ProcessPoolExecutor is a transient submit
    thread.
    """
    while True:
        time.sleep(1.0)
        if os.getppid() != birth_ppid:
            os._exit(2)


def _warm_worker() -> None:  # pragma: no cover - runs inside workers
    """Pre-warm a freshly forked worker: imports + compile-cache open.

    A worker inherits only the modules its parent had imported, and the
    package namespaces are lazy, so this imports the whole job path
    (``execute_job`` → ``run_with_trace`` → replay) itself: a warm
    worker's first job imports nothing.  Defensive by design — a
    warm-up failure must degrade to a cold first job, never to a broken
    pool.
    """
    try:
        watchdog = threading.Thread(target=_orphan_watchdog,
                                    args=(os.getppid(),),
                                    name="repro-orphan-watchdog",
                                    daemon=True)
        watchdog.start()
    except Exception:
        pass
    try:
        from . import engine, resilience, runner  # noqa: F401
        from ..machine import engines, fastpath  # noqa: F401

        engine.default_cache()
    except Exception:
        pass


def _kill_executor(executor) -> None:
    """Forcibly stop an executor whose workers may be wedged."""
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except (OSError, AttributeError):
            pass
    executor.shutdown(wait=False, cancel_futures=True)


def _build_executor(workers: int):
    """Fork a warm executor, or ``None`` where the platform refuses one."""
    from concurrent.futures import ProcessPoolExecutor

    try:
        return ProcessPoolExecutor(max_workers=workers,
                                   initializer=_warm_worker)
    except (OSError, ValueError, NotImplementedError,
            PermissionError) as error:
        logger.warning("shared process pool unavailable (%s); degrading "
                       "to serial execution", error)
        if obs.enabled():
            obs.counter("pool_serial_degradations",
                        "batches that fell back to serial execution").inc()
        return None


class PoolLease:
    """A batch's exclusive handle on the shared pool.

    Duck-types the slice of :class:`ProcessPoolExecutor` the resilience
    scheduler needs (``submit``), and routes every destructive operation
    through the shared pool so a recovering batch replaces the whole
    generation instead of leaving half-dead workers for the next lease.

    The lease tracks only its *pending* futures (for :meth:`release` to
    cancel): a future leaves the set the moment it is done, so a
    finished job's result is owned by the scheduler alone and freed once
    the scheduler has handed it on.
    """

    def __init__(self, pool: "SharedWorkerPool", executor, workers: int):
        self._pool = pool
        self._executor = executor
        self.workers = workers
        self._released = False
        self._futures: set = set()
        # Done-callbacks run on the executor's management thread.
        self._futures_lock = threading.Lock()

    def submit(self, fn, *args):
        executor = self._executor
        if executor is None:
            from concurrent.futures.process import BrokenProcessPool

            raise BrokenProcessPool("pool lease has no live executor")
        future = executor.submit(fn, *args)
        with self._futures_lock:
            self._futures.add(future)
        future.add_done_callback(self._forget)
        return future

    def _forget(self, future) -> None:
        with self._futures_lock:
            self._futures.discard(future)

    def _take_futures(self) -> list:
        with self._futures_lock:
            futures = list(self._futures)
            self._futures.clear()
        return futures

    def kill(self) -> None:
        """Kill this lease's worker generation (wedged or broken)."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        self._pool._kill_generation(executor)
        self._take_futures()

    def replace(self) -> bool:
        """Kill this generation and fork a fresh one in its place.

        Returns False — with the lease already released — when no fresh
        generation can be built; the batch then finishes serially.
        """
        self.kill()
        if obs.enabled():
            obs.counter("pool_rebuilds",
                        "process pools rebuilt after breaking").inc()
        self._executor = self._pool._rebuild_for(self)
        if self._executor is None:
            self.release()
            return False
        return True

    def release(self) -> None:
        """Return the pool.  Idempotent; called exactly once per batch."""
        if self._released:
            return
        self._released = True
        pending = self._take_futures()
        for future in pending:
            future.cancel()
        stragglers = [f for f in pending
                      if not (f.done() or f.cancelled())]
        if stragglers and self._executor is not None:
            # A batch abandoned running work (raise-policy failure) —
            # retire the generation rather than hand a busy executor to
            # the next lease or block the release waiting on it.
            self.kill()
        self._executor = None
        self._pool._release(self)


class SharedWorkerPool:
    """The process-wide pool of warm simulation workers."""

    def __init__(self):
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._executor = None
        self._workers = 0
        self._fingerprint: Optional[tuple] = None
        self._generation = 0
        self._dead = False
        self._active: Optional[PoolLease] = None
        self._shutdown = False
        self._stats = {"leases": 0, "serial_overflows": 0,
                       "warm_acquires": 0, "cold_builds": 0, "rebuilds": 0,
                       "fingerprint_rebuilds": 0, "stranded_workers": 0}

    # -- leasing ------------------------------------------------------------

    def acquire(self, workers: int) -> Optional[PoolLease]:
        """Lease the warm pool; ``None`` → run the batch serially.

        ``None`` means another batch holds the lease, the pool was shut
        down (both counted as ``serial_overflows``), or the platform
        refuses to build a pool at all.
        """
        workers = max(1, int(workers))
        with self._lock:
            if self._shutdown or self._active is not None:
                self._stats["serial_overflows"] += 1
                return None
            fingerprint = environment_fingerprint()
            stale = (self._executor is None or self._dead
                     or self._workers < workers
                     or self._fingerprint != fingerprint)
            if stale:
                if (self._executor is not None and not self._dead
                        and self._workers >= workers):
                    self._stats["fingerprint_rebuilds"] += 1
                self._retire_locked()
                executor = self._build_locked(max(workers, self._workers))
            else:
                executor = self._executor
                self._stats["warm_acquires"] += 1
            if executor is None:
                return None
            lease = PoolLease(self, executor, workers)
            self._active = lease
            self._stats["leases"] += 1
            return lease

    def _release(self, lease: PoolLease) -> None:
        with self._cv:
            if self._active is lease:
                self._active = None
                if self._dead or self._shutdown:
                    self._retire_locked()
                self._cv.notify_all()

    def _kill_generation(self, executor) -> None:
        with self._lock:
            if self._executor is executor:
                self._dead = True
        _kill_executor(executor)

    def _rebuild_for(self, lease: PoolLease):
        with self._lock:
            if self._active is not lease or self._shutdown:
                return None
            self._retire_locked()
            return self._build_locked(max(lease.workers, self._workers),
                                      rebuild=True)

    # -- internals (self._lock held) ----------------------------------------

    def _build_locked(self, workers: int, rebuild: bool = False):
        executor = _build_executor(workers)
        if executor is None:
            return None
        self._executor = executor
        self._workers = workers
        self._fingerprint = environment_fingerprint()
        self._generation += 1
        self._dead = False
        self._stats["rebuilds" if rebuild else "cold_builds"] += 1
        return executor

    def _retire_locked(self) -> None:
        executor, self._executor = self._executor, None
        if executor is None:
            return
        if self._dead:
            _kill_executor(executor)
        else:
            executor.shutdown(wait=False, cancel_futures=True)
        self._dead = False

    # -- stats ----------------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return self._stats_locked()

    def _stats_locked(self) -> dict:
        return dict(self._stats, workers=self._workers,
                    generation=self._generation,
                    live=self._executor is not None and not self._dead,
                    leased=self._active is not None,
                    shut_down=self._shutdown)

    # -- shutdown -----------------------------------------------------------

    def shutdown(self, grace_s: float = DEFAULT_SHUTDOWN_GRACE_S) -> dict:
        """Drain leases, join every worker, report stranded processes.

        Idempotent.  Waits up to ``grace_s`` for the active lease to
        release; a lease that outlives the grace has its generation
        killed (counted, never leaked).  Returns the final stats dict —
        ``stranded_workers`` is the number of worker processes still
        alive after the join, and must be 0 for a clean drain.
        """
        with self._cv:
            if self._shutdown:
                # _lock is not reentrant: read the stats in place
                # rather than deadlocking on self.stats().
                return self._stats_locked()
            self._shutdown = True
            deadline = time.monotonic() + max(0.0, grace_s)
            while self._active is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cv.wait(min(0.25, remaining))
            forced = self._active is not None
            self._active = None
            executor, self._executor = self._executor, None
            dead = self._dead
            self._dead = False
        stranded = 0
        if executor is not None:
            if forced or dead:
                _kill_executor(executor)
            executor.shutdown(wait=True, cancel_futures=True)
            processes = getattr(executor, "_processes", None) or {}
            stranded = sum(1 for process in processes.values()
                           if process.is_alive())
        with self._lock:
            self._stats["stranded_workers"] = stranded
            if forced:
                logger.warning("shared pool shutdown forced past a live "
                               "lease after %.1fs grace", grace_s)
        return self.stats()


# -- process-wide singleton -------------------------------------------------

_POOL: Optional[SharedWorkerPool] = None
_POOL_LOCK = threading.Lock()


def shared_pool() -> SharedWorkerPool:
    """The process-wide pool, created on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = SharedWorkerPool()
            atexit.register(_shutdown_at_exit)
        return _POOL


def acquire_lease(workers: int) -> Optional[PoolLease]:
    """Lease workers for one batch; ``None`` → run it serially."""
    return shared_pool().acquire(workers)


def pool_stats() -> Optional[dict]:
    """Stats for manifests, or ``None`` if no pool was ever created."""
    with _POOL_LOCK:
        pool = _POOL
    return pool.stats() if pool is not None else None


def shutdown_shared_pool(
        grace_s: float = DEFAULT_SHUTDOWN_GRACE_S) -> Optional[dict]:
    """Deterministically drain and join the shared pool, if one exists."""
    with _POOL_LOCK:
        pool = _POOL
    return pool.shutdown(grace_s) if pool is not None else None


def reset_shared_pool() -> None:
    """Tear down the singleton (tests); the next use builds a fresh one."""
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown(grace_s=5.0)


def _shutdown_at_exit() -> None:  # pragma: no cover - interpreter teardown
    try:
        shutdown_shared_pool(grace_s=5.0)
    except Exception:
        pass
