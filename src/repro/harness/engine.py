"""Parallel batch execution engine for independent simulations.

Every headline result in this reproduction is built from many *independent*
cycle-accurate runs: DPA collects one trace per plaintext, the sensitivity
sweep re-measures the four masking policies at 35 parameter points, and the
experiment registry re-runs the same few programs with varied inputs.  This
module fans such batches across a :class:`~concurrent.futures.ProcessPoolExecutor`
while keeping the results **bit-identical** to the serial path:

* jobs are declarative :class:`SimJob` records, so the work ships cleanly
  to worker processes and each job carries its own noise seed — the
  injected Gaussian noise stream never depends on scheduling order;
* results come back as :class:`JobResult` in **submission order**, whatever
  order the workers finish in;
* a :class:`CompileCache` is the one artifact store: compiled programs,
  bound cycle schedules and verdict documents share one byte-budgeted
  memory LRU over an on-disk layer (atomic writes) and one key rule
  (:func:`~repro.fingerprint.artifact_key`), so a pool of workers
  compiles each ``(spec, masking, policy, optimize)`` variant once
  instead of once per sweep point per process;
* batches survive faults: ``failure_policy``/``retries``/``job_timeout``
  and the ``checkpoint`` journal delegate to
  :mod:`repro.harness.resilience`, so one crashed worker, one runaway
  simulation, or one ``BrokenProcessPool`` no longer discards the batch.

``run_jobs(batch, jobs=1)`` is the single entry point; ``jobs=1`` executes
in-process with behavior identical to calling the runner directly.
"""

from __future__ import annotations

import logging
import os
import pickle
import sys
import tempfile
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .. import obs
from ..obs import progress as obs_progress
from ..energy.params import DEFAULT_PARAMS, EnergyParams
from ..energy.trace import EnergyTrace
from ..fingerprint import artifact_key
from ..isa.program import Program
from ..masking.policy import MaskingPolicy, apply_policy

logger = logging.getLogger("repro.harness.engine")

#: Memory budget of one :class:`CompileCache`, shared by programs, bound
#: schedules and verdict documents.  A program or schedule counts its
#: pickled bytes (a 16-round DES schedule pickles to well under 1 MiB); a
#: verdict, held as a decoded JSON tree, counts its resident bytes
#: (:func:`resident_size`, ~6.5-7x its pickle: ~7 KiB for a 1-round pair).
DEFAULT_MAX_BYTES = 32 * 1024 * 1024


def resident_size(value: object) -> int:
    """Bytes a JSON-like tree holds in memory: ``sys.getsizeof`` summed
    over every dict, list, tuple and leaf it reaches, each object once.

    Interned leaves (small ints, one-character strings) are counted
    although they are shared, so the figure errs high.
    """
    seen: set[int] = set()
    total = 0
    stack = [value]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return total


@dataclass(frozen=True)
class CompileRequest:
    """Identity of a compilable program variant — the compile-cache key.

    ``spec`` is a frozen :class:`~repro.programs.des_source.DesProgramSpec`
    (or :class:`~repro.programs.aes_source.AesProgramSpec` with
    ``cipher="aes"``); ``None`` means the cipher's default spec.  ``policy``
    optionally applies an assembly-level masking rewrite *after*
    compilation (the Section 4.3 whole-program policies).
    """

    cipher: str = "des"
    spec: Optional[object] = None
    masking: str = "selective"
    policy: Optional[MaskingPolicy] = None
    optimize: int = 0

    def cache_key(self) -> str:
        """Stable digest of everything the compiled artifact depends on."""
        policy = self.policy.name if self.policy is not None else "-"
        return artifact_key("program", self.cipher, repr(self.spec),
                            self.masking, policy, self.optimize)

    def compile(self) -> Program:
        """Compile (uncached) the requested program image."""
        from ..programs.workloads import compile_aes, compile_des

        if self.cipher == "des":
            from ..programs.des_source import DesProgramSpec

            spec = self.spec if self.spec is not None else DesProgramSpec()
            compiled = compile_des(spec, masking=self.masking,
                                   optimize=self.optimize)
        elif self.cipher == "aes":
            from ..programs.aes_source import AesProgramSpec

            spec = self.spec if self.spec is not None else AesProgramSpec()
            compiled = compile_aes(spec, masking=self.masking,
                                   optimize=self.optimize)
        else:
            raise ValueError(f"unknown cipher {self.cipher!r}")
        program = compiled.program
        if self.policy is not None:
            program = apply_policy(program, self.policy)
        return program


@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`CompileCache` instance."""

    hits: int = 0
    misses: int = 0
    #: Disk-layer write failures (EACCES, ENOSPC, ...).  The first one
    #: degrades the instance to memory-only writes.
    disk_errors: int = 0


class ArtifactMemory:
    """The store's memory layer: live artifacts in LRU order, bounded by
    the size each entry was stored with (see
    :meth:`CompileCache.store_artifact`).

    One lock guards it; callers never hold it across disk I/O, a compile
    or a schedule recording.  :meth:`clear` resets the byte total too, so
    the accounting survives a direct ``cache.memory.clear()``.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES):
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = max_bytes
        self.bytes = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, tuple[object, int]] = OrderedDict()
        _MEMORIES.add(self)

    def _after_fork(self) -> None:
        """A pool worker forked while another thread held the lock would
        inherit it held forever: the child starts with a fresh lock and
        a byte total recounted from its entries."""
        self._lock = threading.Lock()
        self.bytes = sum(size for _, size in self._entries.values())

    def get(self, key: str) -> Optional[object]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: str, value: object, size: int) -> int:
        """Keep ``value`` as the newest entry; returns how many older
        entries were evicted.  An entry larger than the whole budget is
        not kept (and evicts nothing)."""
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.bytes -= old[1]
            if size > self.max_bytes:
                return 0
            self._entries[key] = (value, size)
            self.bytes += size
            evicted = 0
            while self.bytes > self.max_bytes:
                _, (_, dropped) = self._entries.popitem(last=False)
                self.bytes -= dropped
                evicted += 1
            self.evictions += evicted
            return evicted

    def discard(self, prefix: str) -> int:
        """Drop every entry whose key starts with ``prefix``."""
        with self._lock:
            doomed = [key for key in self._entries if key.startswith(prefix)]
            for key in doomed:
                self.bytes -= self._entries.pop(key)[1]
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


#: Every live memory layer, for :func:`_reset_after_fork`.
_MEMORIES: "weakref.WeakSet[ArtifactMemory]" = weakref.WeakSet()


def _reset_after_fork() -> None:
    for memory in list(_MEMORIES):
        memory._after_fork()


os.register_at_fork(after_in_child=_reset_after_fork)


class CompileCache:
    """Process-safe artifact store: compiled programs, bound cycle
    schedules and verdict documents.

    Two layers: an :class:`ArtifactMemory` LRU bounded by ``max_bytes``,
    and a shared on-disk layer of pickled artifacts written atomically
    (temp file + ``os.replace``) so concurrent pool workers never observe
    a partial artifact.  A durable entry is pickled once on store; those
    bytes set its memory size and go to disk.  Every key comes from
    :func:`~repro.fingerprint.artifact_key` (package version, a
    fingerprint of the package sources, the artifact kind and its
    identity), so a stale cache directory can only ever miss, not serve
    wrong code.  The directory defaults to ``$REPRO_COMPILE_CACHE_DIR``
    or ``<tmpdir>/repro-compile-cache``; setting the variable to an empty
    string disables the disk layer (memory only).

    Corrupt artifacts are **quarantined**: an entry that exists but does
    not unpickle is renamed to ``<key>.corrupt`` (best-effort) so every
    later process recompiles once instead of re-reading the bad file
    forever; stale ``*.tmp`` files left by crashed writers are swept on
    construction.

    A disk layer that stops accepting writes (read-only mount → EACCES,
    full volume → ENOSPC) **degrades to memory-only writes** after the
    first failure — one warning, a ``compile_cache_disk_errors`` obs
    counter, and no further write attempts — instead of paying a failed
    syscall per compile forever.  Reads are still attempted: a read-only
    cache keeps serving hits.
    """

    #: ``*.tmp`` files older than this are presumed orphaned by a crashed
    #: writer (a live writer holds its temp file for milliseconds).
    STALE_TMP_S = 300.0

    def __init__(self, directory: Optional[Path] = None,
                 max_bytes: int = DEFAULT_MAX_BYTES):
        if directory is None:
            configured = os.environ.get("REPRO_COMPILE_CACHE_DIR")
            if configured == "":
                directory = None
            elif configured:
                directory = Path(configured)
            else:
                directory = Path(tempfile.gettempdir()) \
                    / "repro-compile-cache"
        self.directory = Path(directory) if directory is not None else None
        self.memory = ArtifactMemory(max_bytes)
        self.stats = CacheStats()
        #: Set after the first disk write failure; writes stop, reads
        #: continue (see the class docstring).
        self.disk_write_disabled = False
        self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> None:
        """Delete orphaned writer temp files (crashed mid-store)."""
        if self.directory is None:
            return
        try:
            candidates = list(self.directory.glob("*.tmp"))
        except OSError:
            return
        cutoff = time.time() - self.STALE_TMP_S
        for candidate in candidates:
            try:
                if candidate.stat().st_mtime < cutoff:
                    candidate.unlink()
            except OSError:
                pass  # another process may have swept it first

    def program_for(self, request: CompileRequest) -> Program:
        """Return the compiled image, from memory, disk, or a fresh build."""
        key = request.cache_key()
        program = self.artifact(key)
        if program is not None:
            self.stats.hits += 1
            return program
        program = request.compile()
        self.stats.misses += 1
        self.store_artifact(key, program)
        return program

    def artifact(self, key: str) -> Optional[object]:
        """Look up an artifact by its full key; memory first, then the
        disk layer.  Misses return ``None`` and are not counted in
        :attr:`stats` — artifact producers handle their own
        build-on-miss.
        """
        artifact = self.memory.get(key)
        if artifact is not None:
            return artifact
        loaded = self._load(key)
        if loaded is None:
            return None
        artifact, size = loaded
        self.memory.put(key, artifact, size)
        return artifact

    def store_artifact(self, key: str, artifact: object,
                       durable: bool = True) -> int:
        """Store ``artifact`` under ``key`` in memory and, when
        ``durable``, on disk; returns how many memory entries the store
        evicted.

        A durable artifact is pickled for the disk, and those bytes size
        its memory entry.  A memory-only one (a decoded verdict document)
        is never pickled and counts its :func:`resident_size`.
        """
        if not durable:
            return self.memory.put(key, artifact, resident_size(artifact))
        payload = pickle.dumps(artifact)
        evicted = self.memory.put(key, artifact, len(payload))
        self._store(key, payload)
        return evicted

    def discard(self, prefix: str) -> int:
        """Drop the memory entries whose key starts with ``prefix`` (an
        artifact kind such as ``"verdict-"``, or a longer key prefix);
        returns how many went."""
        return self.memory.discard(prefix)

    def _load(self, key: str) -> Optional[tuple[object, int]]:
        """``(artifact, pickled size)`` from the disk layer, or ``None``."""
        if self.directory is None:
            return None
        path = self.directory / f"{key}.pkl"
        try:
            payload = path.read_bytes()
        except OSError:
            return None  # plain miss (or unreadable: nothing to salvage)
        try:
            return pickle.loads(payload), len(payload)
        except (pickle.PickleError, EOFError, AttributeError, ValueError,
                TypeError, IndexError, ImportError):
            self._quarantine(path)
            return None

    @staticmethod
    def _quarantine(path: Path) -> None:
        """Move a corrupt artifact aside so it is recompiled exactly once.

        ``os.replace`` is atomic, so concurrent readers either still see
        the corrupt file (and also try to quarantine it — idempotent) or
        see a clean miss.  Best-effort: on a read-only cache the corrupt
        entry simply stays a per-process miss.
        """
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            pass

    def _store(self, key: str, payload: bytes) -> None:
        if self.directory is None or self.disk_write_disabled:
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            handle, temp_name = tempfile.mkstemp(dir=self.directory,
                                                 suffix=".tmp")
            with os.fdopen(handle, "wb") as stream:
                stream.write(payload)
            os.replace(temp_name, self.directory / f"{key}.pkl")
        except OSError as error:
            # Caching is best-effort (the compile already succeeded), but
            # a dead disk layer should fail once, loudly, not per store.
            self.disk_write_disabled = True
            self.stats.disk_errors += 1
            logger.warning(
                "compile cache %s: disk write failed (%s); continuing "
                "memory-only for this process", self.directory, error)
            if obs.enabled():
                obs.counter("compile_cache_disk_errors",
                            "compile caches degraded to memory-only after "
                            "a disk write failure").inc()


_DEFAULT_CACHE: Optional[CompileCache] = None


def default_cache() -> CompileCache:
    """The process-wide cache used for :class:`CompileRequest` jobs."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = CompileCache()
    return _DEFAULT_CACHE


@dataclass
class SimJob:
    """One independent simulation: what to run, on what, under what model.

    ``program`` is either a prebuilt :class:`~repro.isa.program.Program`
    (pickled to the worker as-is) or a :class:`CompileRequest` resolved
    through the worker's :class:`CompileCache`.  ``des_pair`` is the
    ``(key64, plaintext64)`` convenience encoding used by the DES/AES
    workloads; ``inputs`` writes raw symbol words.  ``noise_seed`` is fixed
    per job so parallel execution replays the exact serial noise stream.
    """

    program: Union[Program, CompileRequest]
    inputs: Optional[dict[str, list[int]]] = None
    des_pair: Optional[tuple[int, int]] = None
    params: EnergyParams = DEFAULT_PARAMS
    noise_sigma: float = 0.0
    noise_seed: int = 0
    label: str = ""
    collect_components: bool = False
    operand_isolation: bool = True
    max_cycles: int = 50_000_000
    #: Execution engine: a :mod:`repro.machine.engines` name
    #: (``"fast"`` — schedule replay with automatic reference fallback,
    #: ``"reference"``), or ``None`` for the ambient default
    #: (``$REPRO_ENGINE``, else ``"fast"``).
    engine: Optional[str] = None
    #: Force the observability sink on for this job regardless of the
    #: process-wide flag.  Rides on the pickled job, so pool workers —
    #: fresh processes that never saw the submitter's thread-local
    #: forced scope — still record and ship their span trees.  The
    #: request-scoped tracing path of the service daemon sets this.
    observe: bool = False
    #: Force per-PC energy attribution on for this job (implies
    #: ``observe``); same propagation story as ``observe``.
    attribute: bool = False


@dataclass
class JobResult:
    """A finished :class:`SimJob`, reduced to picklable observables.

    Carries everything the batch callers consume — the per-cycle energy
    vector, phase markers, per-component totals — plus the observability
    fields: per-job wall time and whether the compile cache hit
    (``cache_hit is None`` when the job shipped a prebuilt program).

    When the observability sink is enabled (:mod:`repro.obs`), the worker
    additionally serializes its scoped metrics snapshot and span tree
    here; :func:`run_jobs` merges them into the parent's registry in
    submission order, so the aggregate is deterministic regardless of
    worker scheduling.
    """

    label: str
    cycles: int
    energy: np.ndarray
    markers: tuple[tuple[int, int], ...] = ()
    totals: dict[str, float] = field(default_factory=dict)
    components: Optional[np.ndarray] = None
    wall_time_s: float = 0.0
    cache_hit: Optional[bool] = None
    #: Scoped per-job metrics snapshot (observability sink enabled only).
    metrics: Optional[dict] = None
    #: Scoped per-job span tree (observability sink enabled only).
    spans: Optional[list] = None
    #: Per-component event counts (accesses/operations) of the run.
    counts: dict[str, int] = field(default_factory=dict)
    #: Scoped per-job attribution snapshot (attribution enabled only).
    attribution: Optional[dict] = None
    #: Engine that actually produced the trace: ``"fast"`` or
    #: ``"reference"``, or ``"fast-fallback"`` when the fast replay
    #: declined the run and it was re-run on the reference engine.
    engine: str = "reference"

    @property
    def total_pj(self) -> float:
        return float(self.energy.sum())

    @property
    def total_uj(self) -> float:
        return self.total_pj * 1e-6

    @property
    def average_pj(self) -> float:
        return self.total_pj / self.cycles if self.cycles else 0.0

    @property
    def trace(self) -> EnergyTrace:
        """The run's energy trace, reconstructed for phase navigation."""
        return EnergyTrace(energy=self.energy, markers=self.markers,
                           components=self.components, label=self.label)


def execute_job(job: SimJob) -> JobResult:
    """Run one job in the current process (the workers' entry point).

    With the observability sink enabled — process-wide, via the calling
    thread's forced scope, or via the job's own ``observe``/``attribute``
    flags — the job runs inside a fresh :func:`repro.obs.scope` — a
    ``job`` span wrapping ``compile`` and ``execute`` — and ships the
    scoped snapshot/span tree back on the :class:`JobResult` for the
    parent to merge.
    """
    force = job.observe or job.attribute
    if (not force and not obs.enabled()
            and not obs.attribution_enabled()):
        return _execute_job_inner(job)
    with obs.scope(force=force, attribution=job.attribute) as scoped:
        with obs.span("job", label=job.label):
            result = _execute_job_inner(job)
        result.metrics = scoped.registry.snapshot()
        result.spans = scoped.tracer.tree()
        if scoped.attribution:
            result.attribution = scoped.attribution.snapshot()
    return result


def _execute_job_inner(job: SimJob) -> JobResult:
    from .runner import run_with_trace

    observing = obs.enabled()
    start = time.perf_counter()
    cache_hit = None
    program = job.program
    if isinstance(program, CompileRequest):
        with obs.span("compile", cipher=job.program.cipher,
                      masking=job.program.masking):
            cache = default_cache()
            hits_before = cache.stats.hits
            program = cache.program_for(job.program)
            cache_hit = cache.stats.hits > hits_before
        if observing:
            obs.counter("compile_cache_lookups",
                        "compile cache resolutions by outcome") \
                .inc(result="hit" if cache_hit else "miss")
    elif observing:
        obs.counter("jobs_prebuilt",
                    "jobs that shipped a prebuilt program").inc()
    inputs = dict(job.inputs) if job.inputs else {}
    if job.des_pair is not None:
        from ..programs.workloads import key_words, plaintext_words

        key64, plaintext64 = job.des_pair
        inputs["key"] = key_words(key64)
        if "plaintext" in program.symbols:
            inputs["plaintext"] = plaintext_words(plaintext64)
    run = run_with_trace(program, inputs=inputs or None, params=job.params,
                         collect_components=job.collect_components,
                         label=job.label, max_cycles=job.max_cycles,
                         noise_sigma=job.noise_sigma,
                         noise_seed=job.noise_seed,
                         operand_isolation=job.operand_isolation,
                         engine=job.engine)
    return JobResult(label=job.label, cycles=run.cycles,
                     energy=run.trace.energy, markers=run.trace.markers,
                     totals=dict(run.tracker.totals),
                     components=run.trace.components,
                     wall_time_s=time.perf_counter() - start,
                     cache_hit=cache_hit,
                     counts=dict(run.tracker.counts),
                     engine=run.engine)


def run_jobs(batch: Sequence[SimJob], jobs: int = 1,
             progress: Optional[Callable[[int, int], None]] = None, *,
             failure_policy: str = "raise", retries: int = 2,
             job_timeout: Optional[float] = None,
             checkpoint: Optional[Union[str, Path]] = None,
             engine: Optional[str] = None,
             consume: Optional[Callable[[int, "JobResult"], None]] = None
             ) -> Union[list, int]:
    """Execute a batch of independent jobs, preserving submission order.

    ``jobs=1`` (the default) runs serially in-process — identical to
    calling the runner in a loop.  ``jobs>1`` fans the batch across a
    process pool; because every job is self-contained and carries its own
    noise seed, the collected results are bit-identical to the serial path
    regardless of worker scheduling.  ``progress(done, total)`` is invoked
    after each completion (in completion order under a pool).

    Fault tolerance (see :mod:`repro.harness.resilience`):

    * ``failure_policy`` — ``"raise"`` (default) re-raises the first
      failure after cancelling pending work; ``"collect"`` puts a
      :class:`~repro.harness.resilience.JobFailure` in the failed job's
      slot and keeps going; ``"retry"`` re-runs failures up to
      ``retries`` more times with deterministic jittered backoff, then
      collects whatever still fails.
    * ``job_timeout`` — per-job wall-clock bound (seconds): an alarm
      inside the worker plus a parent-side deadline that kills and
      rebuilds a wedged pool.
    * ``checkpoint`` — path to an append-only journal keyed by the
      batch's content digest; completed jobs are skipped on resume.

    A broken pool is rebuilt and only unfinished jobs are resubmitted;
    if the pool cannot be created at all the batch degrades to serial
    execution with a logged warning.

    ``engine`` (a :mod:`repro.machine.engines` name) overrides
    the execution engine of every job in the batch; ``None`` leaves each
    job's own setting (and the ambient ``$REPRO_ENGINE`` default) in
    effect.

    Before a batch fans out across the pool, each distinct program whose
    jobs replay a cycle schedule has it recorded once here, in the
    parent, so no worker ever records it (see :func:`_prewarm_schedules`).

    ``consume(index, result)``, when given, receives each slot in
    submission order as soon as every earlier slot is final, and the
    batch keeps no reference to it afterwards; ``run_jobs`` then returns
    the number of slots consumed instead of the list.  Under a pool the
    slots waiting for the consumer share the worker window, so the
    parent holds at most ``jobs + 1`` results at each consume.
    Observability is merged per slot, just before it is consumed, in
    the same order as the list path.
    """
    from .resilience import execute_batch

    batch = list(batch)
    if engine is not None:
        from ..machine.engines import resolve

        resolved = resolve(engine)
        for job in batch:
            job.engine = resolved
    # Opt-in live telemetry: $REPRO_PROGRESS turns the batch into a
    # heartbeat source.  No reporter is built when the env is unset or an
    # outer campaign already owns one (run_stream's chunks must not
    # double-count), so the default path is untouched.
    reporter = obs_progress.reporter_from_env(len(batch), label="run_jobs")
    if reporter is not None:
        user_progress = progress

        def progress(done, total, _reporter=reporter,
                     _chained=user_progress):
            _reporter.job_done(done, total)
            if _chained is not None:
                _chained(done, total)

    deliver = None
    if consume is not None:
        def deliver(index, result):
            _merge_observability((result,))
            consume(index, result)

    with obs_progress.active(reporter):
        if jobs > 1 and len(batch) > 1:
            _prewarm_schedules(batch)
        results = execute_batch(batch, jobs=jobs, progress=progress,
                                failure_policy=failure_policy,
                                retries=retries, job_timeout=job_timeout,
                                checkpoint=checkpoint, consume=deliver)
    if consume is None:
        _merge_observability(results)
    if reporter is not None:
        reporter.finish()
    return results


def _prewarm_schedules(batch: Sequence[SimJob]) -> None:
    """Record (or load) each program's cycle schedule parent-side.

    Called before a pool lease: workers then inherit the schedule on fork
    or load it from the shared disk cache instead of each recording it.
    Covers every distinct prebuilt program whose job resolves to the
    ``fast`` engine (``SimJob.engine``, else the ambient default);
    reference-engine jobs, attribution jobs (which the runner pins to the
    reference engine) and :class:`CompileRequest` jobs, which the workers
    compile themselves, are left alone.
    """
    from ..machine import engines, fastpath

    if obs.attribution_enabled():
        return
    seen = set()
    for job in batch:
        program = job.program
        if not isinstance(program, Program) or job.attribute:
            continue
        try:
            engine = engines.resolve(job.engine)
        except ValueError:
            continue  # the per-job path raises the canonical error
        key = (id(program), job.operand_isolation)
        if engine != "fast" or key in seen:
            continue
        seen.add(key)
        fastpath.ensure_schedule(program,
                                 operand_isolation=job.operand_isolation,
                                 max_cycles=job.max_cycles)


def run_stream(batch: Sequence[SimJob],
               consume: Callable[[int, JobResult], None], jobs: int = 1, *,
               chunk_size: int = 64) -> int:
    """Execute a batch in bounded memory, streaming results to a consumer.

    The campaign-scale twin of :func:`run_jobs`: the batch is executed in
    chunks of ``chunk_size`` jobs, and each finished
    :class:`JobResult` is handed to ``consume(index, result)`` — in
    submission order, under any ``jobs`` count — as soon as every
    earlier job has been consumed, then dropped.  Results waiting for
    the consumer count against the worker window, so at every consume
    the parent holds the consumer's own state and at most ``jobs + 1``
    results (the one being consumed, the others running or waiting),
    whatever ``chunk_size`` and the campaign length.  So a 10⁶-trace
    TVLA campaign folds into streaming accumulators
    (:mod:`repro.obs.streaming`) without ever materializing the trace
    matrix.  Because consumption order is fixed,
    accumulator state — and therefore the campaign statistics — is
    bit-identical for ``jobs=1`` and ``jobs=N``.

    ``chunk_size`` bounds the scheduler's per-batch bookkeeping and sets
    the heartbeat cadence: with ``$REPRO_PROGRESS`` set, a forced
    heartbeat is emitted at every chunk boundary, so long campaigns
    report at least once per ``chunk_size`` jobs even when the
    rate-limit interval has not elapsed.  A failed job raises, as under
    :func:`run_jobs`' default policy.  Returns the number of slots
    consumed.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    batch = list(batch)
    total = len(batch)
    reporter = obs_progress.reporter_from_env(total, label="run_stream")
    consumed = 0
    with obs_progress.active(reporter):
        for start in range(0, total, chunk_size):
            chunk = batch[start:start + chunk_size]
            progress = None
            if reporter is not None:
                def progress(done, _chunk_total, _base=start):
                    reporter.job_done(_base + done, total)

            def deliver(offset, result, _base=start):
                consume(_base + offset, result)

            consumed += run_jobs(chunk, jobs=jobs, progress=progress,
                                 consume=deliver)
            if reporter is not None:
                reporter.done = start + len(chunk)
                reporter.heartbeat(force=True)
    if reporter is not None:
        reporter.finish()
    return consumed


def _merge_observability(results: Sequence) -> None:
    """Fold per-job scoped metrics/spans into the caller's context.

    Called in submission order (for a whole batch, or slot by slot ahead
    of a consumer), so the aggregated registry and span tree are
    identical for ``jobs=1`` and any worker count.  Additionally
    records a wall-time histogram of the batch's jobs.  Failure slots
    (:class:`~repro.harness.resilience.JobFailure`) carry no scoped
    metrics and are skipped.
    """
    if not obs.enabled() and not obs.attribution_enabled():
        return
    registry = obs.registry()
    tracer = obs.tracer()
    attribution = obs.attribution()
    wall = registry.histogram("job_wall_seconds",
                              "per-job wall time inside the worker")
    for result in results:
        if not isinstance(result, JobResult):
            continue
        wall.observe(result.wall_time_s)
        if result.metrics:
            registry.merge_snapshot(result.metrics)
        if result.spans:
            tracer.attach(result.spans)
        if result.attribution:
            attribution.merge_snapshot(result.attribution)
