"""Circuit breaker: quarantine programs that repeatedly crash workers.

A single malformed or adversarial program variant that hard-crashes pool
workers (``os._exit`` deep in native code, OOM kills) would otherwise
burn the daemon's whole retry budget on every submission, rebuilding
process pools in a loop while honest requests queue behind it.  The
breaker gives each program variant (keyed by its compile-cache key, so
identical requests share a breaker) the classic three-state lifecycle:

* **closed** — healthy; crashes increment a consecutive-failure count.
* **open** — ``threshold`` consecutive crash-failures trip the breaker:
  submissions are rejected at admission with a typed
  :class:`~repro.service.errors.ProgramQuarantined` (503 + Retry-After)
  until ``cooldown_s`` elapses.
* **half-open** — after the cool-down, exactly **one** probe request is
  admitted; success closes the breaker, another crash re-opens it for a
  fresh cool-down.

Only *worker-crash* failures count — an assessment that fails cleanly
(cycle-limit exceeded, validation) is the program's honest result, not
pool abuse, and must not quarantine it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import ProgramQuarantined

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass
class _Breaker:
    state: str = CLOSED
    consecutive_crashes: int = 0
    opened_at: float = 0.0
    #: A probe is in flight (half-open admits exactly one).
    probing: bool = False
    trips: int = 0


@dataclass
class BreakerSnapshot:
    """Point-in-time view of one program's breaker (diagnostics/metrics)."""

    key: str
    state: str
    consecutive_crashes: int
    trips: int
    retry_after_s: Optional[float] = None


class CircuitBreaker:
    """Per-program-variant crash breaker shared by the whole daemon."""

    def __init__(self, threshold: int = 3, cooldown_s: float = 30.0,
                 clock: Callable[[], float] = time.monotonic):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown_s <= 0:
            raise ValueError(f"cooldown_s must be > 0, got {cooldown_s}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: dict[str, _Breaker] = {}

    def _get(self, key: str) -> _Breaker:
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = self._breakers[key] = _Breaker()
        return breaker

    # -- admission-time gate -------------------------------------------

    def admit(self, key: str) -> None:
        """Allow the request through, or raise :class:`ProgramQuarantined`.

        In the half-open window the first caller becomes the probe; until
        its success/crash verdict lands, everyone else keeps getting the
        typed rejection (one probe at a time bounds the blast radius).
        """
        with self._lock:
            breaker = self._get(key)
            if breaker.state == CLOSED:
                return
            now = self._clock()
            elapsed = now - breaker.opened_at
            if breaker.state == OPEN and elapsed >= self.cooldown_s:
                breaker.state = HALF_OPEN
                breaker.probing = False
            if breaker.state == HALF_OPEN and not breaker.probing:
                breaker.probing = True  # this request is the probe
                return
            retry_after = max(self.cooldown_s - elapsed, 1.0) \
                if breaker.state == OPEN else self.cooldown_s
            digest = key.rpartition("-")[2]
            raise ProgramQuarantined(
                f"program {digest[:12]}… is quarantined after "
                f"{breaker.consecutive_crashes} worker-crashing "
                f"request(s); probe in {retry_after:.0f}s",
                retry_after_s=retry_after)

    # -- execution verdicts --------------------------------------------

    def record_success(self, key: str) -> None:
        with self._lock:
            breaker = self._get(key)
            breaker.state = CLOSED
            breaker.consecutive_crashes = 0
            breaker.probing = False

    def record_crash(self, key: str) -> bool:
        """Count one worker-crashing request; True when this trips it."""
        with self._lock:
            breaker = self._get(key)
            breaker.consecutive_crashes += 1
            tripped = False
            if breaker.state == HALF_OPEN \
                    or breaker.consecutive_crashes >= self.threshold:
                if breaker.state != OPEN:
                    breaker.trips += 1
                    tripped = True
                breaker.state = OPEN
                breaker.opened_at = self._clock()
                breaker.probing = False
            return tripped

    # -- introspection --------------------------------------------------

    def snapshot(self) -> list[BreakerSnapshot]:
        with self._lock:
            now = self._clock()
            out = []
            for key, breaker in sorted(self._breakers.items()):
                retry_after = None
                if breaker.state == OPEN:
                    retry_after = max(
                        self.cooldown_s - (now - breaker.opened_at), 0.0)
                out.append(BreakerSnapshot(
                    key=key, state=breaker.state,
                    consecutive_crashes=breaker.consecutive_crashes,
                    trips=breaker.trips, retry_after_s=retry_after))
            return out

    def open_count(self) -> int:
        with self._lock:
            return sum(1 for breaker in self._breakers.values()
                       if breaker.state == OPEN)
