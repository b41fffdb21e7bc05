"""Bounded admission queue with priority and per-client fairness.

The queue is where the daemon stays *available under overload*: depth is
bounded, so a flood of submissions turns into fast typed 429s
(:class:`~repro.service.errors.AdmissionRejected` with a ``Retry-After``
estimate) instead of unbounded memory growth and minute-long latency
tails.  Scheduling is two-level:

* **priority** — ``high`` > ``normal`` > ``low``; a higher bucket is
  always served first (an interactive design-loop query never waits
  behind a bulk sweep);
* **fairness** — within a bucket, clients are served round-robin: each
  client owns a FIFO sub-queue and the scheduler rotates over clients,
  so one chatty client queueing 50 requests cannot starve another's
  single request (it waits behind at most one request per other client,
  not fifty).

On top of backpressure, admission enforces **per-tenant quotas**: each
client owns a token bucket (``quota_rps`` refill, ``quota_burst``
capacity) consulted *before* a queue slot is considered, so one tenant
burning its budget raises a typed :class:`~repro.service.errors.\
QuotaExceeded` — a 429 whose ``code`` distinguishes "your budget is
spent" (``quota_exceeded``, Retry-After = time to the next token) from
"the service is saturated" (``admission_rejected``).

Everything is thread-safe behind one lock + condition; ``close()`` flips
the queue into drain mode, where ``admit``, ``enqueue`` and ``put`` raise
:class:`~repro.service.errors.ShuttingDown` and ``drain()`` hands back
whatever was still queued so the daemon can fail it *typed*, never
silently.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Callable, Optional

from .errors import AdmissionRejected, QuotaExceeded, ShuttingDown
from .protocol import PRIORITIES, RequestRecord

#: Distinct tenants tracked by the rate limiter before LRU eviction
#: (an evicted tenant simply starts over with a full bucket).
MAX_TRACKED_TENANTS = 4096


class TokenBucket:
    """One tenant's admission budget: ``rate`` tokens/s, ``burst`` cap.

    Clock-injectable and lock-free — the owning :class:`RateLimiter`
    serializes access.  Buckets start full, so a tenant's first burst
    is always admitted.
    """

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float, now: float):
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = now

    def try_take(self, now: float) -> float:
        """Take one token; 0.0 on success, else seconds until one
        accrues (the typed Retry-After)."""
        elapsed = max(now - self.updated, 0.0)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return 0.0
        return (1.0 - self.tokens) / self.rate


class RateLimiter:
    """Per-client token buckets with bounded tenant tracking."""

    def __init__(self, rate: float, burst: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0:
            raise ValueError(f"quota rate must be > 0, got {rate}")
        self.rate = float(rate)
        self.burst = max(1.0, float(burst) if burst is not None
                         else max(1.0, 2.0 * rate))
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()

    def admit(self, client: str) -> float:
        """One admission attempt; 0.0 when allowed, else the wait in
        seconds until this tenant's next token."""
        now = self._clock()
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, now)
                self._buckets[client] = bucket
                while len(self._buckets) > MAX_TRACKED_TENANTS:
                    self._buckets.popitem(last=False)
            self._buckets.move_to_end(client)
            return bucket.try_take(now)


class AdmissionQueue:
    """Bounded, priority-bucketed, client-fair request queue."""

    def __init__(self, max_depth: int = 64,
                 clock: Callable[[], float] = time.monotonic,
                 quota_rps: Optional[float] = None,
                 quota_burst: Optional[float] = None):
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self.limiter = RateLimiter(quota_rps, quota_burst, clock) \
            if quota_rps else None
        self._clock = clock
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        #: One bucket per priority rank; each maps client -> FIFO.  The
        #: OrderedDict order *is* the round-robin order.
        self._buckets: list[OrderedDict[str, deque]] = [
            OrderedDict() for _ in PRIORITIES]
        self._depth = 0
        self._closed = False
        #: Recent service-time estimate feeding the Retry-After hint.
        self._mean_service_s = 1.0

    # -- producer side --------------------------------------------------

    def put(self, record: RequestRecord) -> int:
        """:meth:`admit` then :meth:`enqueue` one request; returns the
        queue depth after admission."""
        self.admit(record.request.client)
        return self.enqueue(record)

    def admit(self, client: str) -> None:
        """The gates before a queue slot: raises :class:`ShuttingDown`
        once the queue is closed and :class:`QuotaExceeded` when
        ``client``'s token bucket is empty (one token is taken)."""
        with self._lock:
            if self._closed:
                raise ShuttingDown("service is draining; request not "
                                   "admitted")
        if self.limiter is not None:
            wait_s = self.limiter.admit(client)
            if wait_s > 0:
                raise QuotaExceeded(
                    f"client {client!r} exceeded its rate quota of "
                    f"{self.limiter.rate:g} requests/s; the service has "
                    "capacity, but this tenant's budget is spent",
                    retry_after_s=max(wait_s, 0.05))

    def enqueue(self, record: RequestRecord) -> int:
        """Queue one admitted request; returns the queue depth after.

        Raises :class:`AdmissionRejected` (with a ``retry_after_s``
        estimate of when a slot should free up) when full, and
        :class:`ShuttingDown` once the queue is closed.
        """
        with self._available:
            if self._closed:
                raise ShuttingDown("service is draining; request not "
                                   "admitted")
            if self._depth >= self.max_depth:
                raise AdmissionRejected(
                    f"admission queue is full "
                    f"({self._depth}/{self.max_depth} queued)",
                    retry_after_s=self.retry_after_hint())
            bucket = self._buckets[record.request.priority_rank()]
            client_queue = bucket.get(record.request.client)
            if client_queue is None:
                client_queue = bucket[record.request.client] = deque()
            client_queue.append(record)
            self._depth += 1
            self._available.notify()
            return self._depth

    def retry_after_hint(self) -> float:
        """Seconds until a queue slot plausibly frees up.

        A full queue drains one slot per completed request, so the hint
        is one recent mean service time, floored at a second to keep
        eager clients from hammering the daemon.
        """
        return max(1.0, self._mean_service_s)

    def observe_service_time(self, seconds: float) -> None:
        """Feed one completed request's wall time into the hint (EWMA)."""
        with self._lock:
            self._mean_service_s = (0.8 * self._mean_service_s
                                    + 0.2 * max(float(seconds), 0.0))

    # -- consumer side --------------------------------------------------

    def take(self, timeout: Optional[float] = None) \
            -> Optional[RequestRecord]:
        """Pop the next request by (priority, client round-robin) order.

        Blocks up to ``timeout`` seconds; returns ``None`` on timeout or
        once the queue is closed *and* empty.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._available:
            while True:
                record = self._pop_locked()
                if record is not None:
                    return record
                if self._closed:
                    return None
                remaining = None if deadline is None \
                    else deadline - self._clock()
                if remaining is not None and remaining <= 0:
                    return None
                self._available.wait(remaining)

    def _pop_locked(self) -> Optional[RequestRecord]:
        for bucket in self._buckets:
            while bucket:
                client, client_queue = next(iter(bucket.items()))
                if not client_queue:
                    del bucket[client]  # client drained; drop its slot
                    continue
                record = client_queue.popleft()
                # Rotate: the served client goes to the back of the
                # round-robin, keeping its remaining requests queued.
                bucket.move_to_end(client)
                if not client_queue:
                    del bucket[client]
                self._depth -= 1
                return record
        return None

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Stop admitting; wake every blocked consumer."""
        with self._available:
            self._closed = True
            self._available.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def drain(self) -> list[RequestRecord]:
        """Close and return every still-queued request (service order).

        The caller owns failing them with a typed shutdown error —
        nothing queued is ever silently dropped.
        """
        self.close()
        remaining = []
        with self._lock:
            while True:
                record = self._pop_locked()
                if record is None:
                    break
                remaining.append(record)
        return remaining

    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth

    def clients(self) -> list[str]:
        """Distinct clients currently queued (diagnostics)."""
        with self._lock:
            seen: dict[str, None] = {}
            for bucket in self._buckets:
                for client, client_queue in bucket.items():
                    if client_queue:
                        seen.setdefault(client, None)
            return list(seen)
