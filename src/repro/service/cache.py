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
  never tuples).  Every hit gets that stored document itself, never a
  copy, and must treat it as read-only: a served
  :class:`~repro.service.protocol.RequestRecord` keeps a reference plus
  its own envelope (``age_s``, ``wall_s``) and renders a fresh copy on
  each read of its ``result``.  The request that computed it keeps the
  stored document too (:meth:`put` returns it), so its reply has the
  stored ``sort_keys`` order.  No request re-parses JSON or keeps a
  second decoded copy.
* **No single-flight** — the service simulates one request at a time,
  in queue order, so an identical request queued behind the one that
  computes its answer finds the stored document when it is taken off
  the queue; the service also probes at admission, where a hit never
  takes a queue slot.  Errors are never cached.
* **Explicit invalidation** — :meth:`invalidate` drops every verdict or
  one ``program_key``'s (the key starts with a per-program prefix
  precisely so this is possible).
* **First-class stats** — hits/misses/stores/invalidations plus the
  store's entry/byte/eviction figures, consumed by the service
  registry, ``/metrics`` and the dashboard.

Thread-safe: the counters sit behind one lock, the documents behind the
store's own.
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


class VerdictCache:
    """Verdict/result cache over an artifact store."""

    def __init__(self, store: CompileCache):
        self.store = store
        self._lock = threading.Lock()
        self._stats = {"hits": 0, "misses": 0, "stores": 0,
                       "invalidations": 0}

    # -- lookup / store -------------------------------------------------

    def lookup(self, key: str, count_miss: bool = True) \
            -> Optional[tuple[dict, float]]:
        """``(document, age_s)`` on a hit — the stored document
        (read-only) and its age in seconds — else ``None``.

        Every hit counts.  A miss counts only with ``count_miss``: the
        service probes at admission without it, so a request that then
        queues counts one miss, when the executor finds it unanswered.
        """
        entry = self.store.memory.get(key)
        with self._lock:
            if entry is None:
                if count_miss:
                    self._stats["misses"] += 1
                return None
            self._stats["hits"] += 1
        document, stored = entry
        return document, round(max(time.time() - stored, 0.0), 6)

    def put(self, key: str, document: dict) -> tuple[dict, int]:
        """Store the canonical form of a computed document.  Returns the
        stored document (read-only; the computing request serves it like
        a hit, so no request keeps a second decoded copy) and the number
        of store entries the store evicted."""
        canonical = json.loads(json.dumps(document, sort_keys=True))
        evicted = self.store.store_artifact(key, (canonical, time.time()),
                                            durable=False)
        with self._lock:
            self._stats["stores"] += 1
        return canonical, evicted

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
        """The lookup counters plus the whole store's occupancy:
        ``entries``/``bytes``/``max_bytes``/``evictions`` describe
        programs, schedules and verdicts together."""
        memory = self.store.memory
        with self._lock:
            return dict(self._stats, entries=len(memory),
                        bytes=memory.bytes, max_bytes=memory.max_bytes,
                        evictions=memory.evictions)

