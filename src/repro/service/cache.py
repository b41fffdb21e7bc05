"""Content-addressed verdict cache: identical requests, one simulation.

A leakage verdict is a pure function of the program variant and the
acquisition parameters — the whole stack is deterministic by
construction (seeded noise, seeded plaintexts, versioned toolchain).
:class:`VerdictCache` exploits that: the service keys each **successful**
result document through :func:`~repro.fingerprint.artifact_key` — the
request's ``program_key()``, the effective engine, and every parameter
that shapes the traces — and serves repeat submissions bit-identical to
a cold run, without touching the worker pool.

Identity deliberately **excludes** scheduling/observability fields
(``client``, ``priority``, ``deadline_s``, ``attribution``, ``cache``):
two tenants asking the same question share one answer.

Properties:

* **One store** — documents live in the service's artifact store
  (:class:`~repro.harness.engine.CompileCache`) next to its programs and
  schedules, under the store's one memory budget (sized by their
  resident bytes), as one canonical JSON-decoded document plus the
  wall-clock time it was stored.  They are stored memory-only: the disk
  layer has no eviction, so one file per unique request would grow
  without bound.
* **One shared canonical document** — the document is canonicalised
  once on store (a ``sort_keys`` JSON round trip, so hits carry lists,
  never tuples).  Every hit and every coalesced joiner gets that stored
  document itself, never a copy, and must treat it as read-only: a
  served :class:`~repro.service.protocol.RequestRecord` keeps a
  reference plus its own envelope (``age_s``, ``wall_s``) and renders a
  fresh copy on each read of its ``result``.  The leader's record keeps
  the stored document too (:meth:`complete` returns it), so its reply
  has the stored ``sort_keys`` order.  No request re-parses JSON or
  keeps a second decoded copy.
* **Single-flight coalescing** — concurrent identical requests elect a
  leader (:meth:`begin` → ``"lead"``); joiners block on the flight and
  receive the leader's document.  A failing leader wakes its joiners
  empty-handed and they compute independently — errors are never
  cached, and one leader's failure is not propagated to a neighbor.
* **Explicit invalidation** — :meth:`invalidate` drops every verdict or
  one ``program_key``'s (the key starts with a per-program prefix
  precisely so this is possible).
* **First-class stats** — hits/misses/coalesces/stores/invalidations
  plus the store's entry/byte/eviction figures, consumed by the service
  registry, ``/metrics`` and the dashboard.

Thread-safe behind one lock for the flights; the blocking join path
waits *outside* it on a per-flight event.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from typing import Optional

from ..fingerprint import artifact_key
from ..harness.engine import CompileCache
from ..machine.engines import resolve as resolve_engine
from .protocol import AssessRequest

#: Bump when the key derivation or stored-document shape changes.
CACHE_SCHEMA = "repro.service.cache/v1"


def verdict_prefix(program_key: str) -> str:
    """The key prefix shared by every verdict of one program variant."""
    return artifact_key("verdict", program_key) + ":"


def verdict_key(request: AssessRequest) -> str:
    """``verdict-<program digest>:<identity digest>`` for one request.

    The first segment (:func:`verdict_prefix`) covers ``program_key()``
    alone so per-program invalidation can match on the prefix; the
    second covers every trace-shaping parameter.  The *effective* engine
    is resolved now (explicit request field, else ``$REPRO_ENGINE``,
    else the default) because the environment may change between
    requests.
    """
    program_key = request.program_key()
    identity = {
        "schema": CACHE_SCHEMA,
        "engine": resolve_engine(request.engine),
        "mode": request.mode,
        "n_traces": request.n_traces,
        "key": request.key,
        "key_b": request.key_b,
        "plaintext": request.plaintext,
        "seed": request.seed,
        "noise_sigma": request.noise_sigma,
        "budget_pj": request.budget_pj,
        "budget_t": request.budget_t,
        "max_cycles": request.max_cycles,
    }
    blob = json.dumps(identity, sort_keys=True).encode()
    return verdict_prefix(program_key) + hashlib.sha256(blob).hexdigest()


class _Flight:
    """One in-progress computation other requests may coalesce onto."""

    __slots__ = ("event", "document")

    def __init__(self):
        self.event = threading.Event()
        self.document: Optional[dict] = None


class VerdictCache:
    """Single-flight verdict/result cache over an artifact store."""

    def __init__(self, store: CompileCache):
        self.store = store
        self._lock = threading.Lock()
        self._flights: dict[str, _Flight] = {}
        self._stats = {"hits": 0, "misses": 0, "coalesced": 0,
                       "coalesced_misses": 0, "stores": 0,
                       "invalidations": 0}

    # -- lookup / single-flight -----------------------------------------

    def begin(self, key: str):
        """Start one request's cache interaction.

        Returns ``("hit", (document, age_s))`` on a cache hit — the
        stored document (read-only) and its age in seconds —
        ``("join", flight)`` when an identical computation is already in
        flight, or ``("lead", flight)`` when the caller must compute
        and then :meth:`complete` (or :meth:`abandon`) the flight.
        """
        with self._lock:
            entry = self.store.memory.get(key)
            if entry is not None:
                self._stats["hits"] += 1
                document, stored = entry
                return "hit", (document,
                               round(max(time.time() - stored, 0.0), 6))
            flight = self._flights.get(key)
            if flight is not None:
                self._stats["coalesced"] += 1
                return "join", flight
            flight = _Flight()
            self._flights[key] = flight
            self._stats["misses"] += 1
            return "lead", flight

    def wait(self, flight: _Flight,
             timeout: Optional[float] = None) -> Optional[dict]:
        """Block on a joined flight; the leader's stored document
        (read-only), or ``None`` when the leader failed/abandoned (the
        joiner computes itself) or the timeout elapsed."""
        if not flight.event.wait(timeout):
            return None
        if flight.document is None:
            with self._lock:
                self._stats["coalesced_misses"] += 1
            return None
        return flight.document

    def complete(self, key: str, flight: _Flight,
                 document: dict) -> tuple[dict, int]:
        """Leader succeeded: store the canonical document, wake the
        joiners.  Returns the stored document (read-only, the leader
        serves it like a hit, so no request keeps a second decoded
        copy) and the number of store entries the store evicted."""
        canonical = json.loads(json.dumps(document, sort_keys=True))
        evicted = self.store.store_artifact(key, (canonical, time.time()),
                                            durable=False)
        flight.document = canonical
        with self._lock:
            self._stats["stores"] += 1
            self._flights.pop(key, None)
        flight.event.set()
        return canonical, evicted

    def abandon(self, key: str, flight: _Flight) -> None:
        """Leader failed: wake joiners empty-handed, cache nothing."""
        with self._lock:
            self._flights.pop(key, None)
        flight.event.set()

    # -- invalidation ---------------------------------------------------

    def invalidate(self, program_key: Optional[str] = None) -> int:
        """Drop every verdict, or only one program variant's.

        Returns the number of entries removed.  In-flight computations
        are unaffected (their eventual store repopulates the cache with
        a result that was correct when computed).
        """
        prefix = "verdict-" if program_key is None \
            else verdict_prefix(program_key)
        dropped = self.store.discard(prefix)
        with self._lock:
            self._stats["invalidations"] += dropped
        return dropped

    # -- introspection --------------------------------------------------

    def stats(self) -> dict:
        """The flight counters plus the whole store's occupancy:
        ``entries``/``bytes``/``max_bytes``/``evictions`` describe
        programs, schedules and verdicts together."""
        memory = self.store.memory
        with self._lock:
            return dict(self._stats, entries=len(memory),
                        bytes=memory.bytes, max_bytes=memory.max_bytes,
                        evictions=memory.evictions,
                        inflight=len(self._flights))

