"""repro.service — the long-lived leakage-assessment daemon.

Secure-design flows iterate (compile → assess → adjust masking →
repeat); this package turns the batch harness into a daemon that serves
those assessment queries over a threaded HTTP JSON API with warm compile
caches shared across requests — and, more importantly, a **robust
request lifecycle**: bounded admission with typed 429s, per-client
fairness + priority scheduling, per-request deadlines, a circuit
breaker quarantining worker-crashing programs, graceful SIGTERM drain,
``/healthz``/``/readyz``, SLO metrics, and a durable request journal
that accounts for every request across a kill.  See ``docs/SERVICE.md``.

Layering (each importable alone)::

    errors      typed failure taxonomy (shared across transports)
    protocol    AssessRequest / RequestRecord lifecycle
    queue       bounded, priority + client-fair admission queue with
                per-tenant token-bucket quotas
    cache       content-addressed, single-flight verdict/result cache
    breaker     per-program circuit breaker
    journal     restart journal (accounting events) + restart replay
    executor    request -> result on the batch engine (bit-identical
                to ``repro submit --local``)
    core        LeakageService: lifecycle orchestration, SLO metrics
    server      stdlib threaded HTTP JSON API + graceful drain
    client      stdlib HTTP client raising the same typed errors
"""

from .breaker import CircuitBreaker
from .cache import VerdictCache, verdict_key
from .client import ServiceClient
from .core import LeakageService, ServiceConfig
from .errors import (AdmissionRejected, DeadlineExceeded, InvalidRequest,
                     ProgramQuarantined, QuotaExceeded, RequestFailed,
                     RequestNotFound, ServiceError, ShuttingDown,
                     error_from_dict)
from .executor import execute_assessment
from .journal import RecoveryReport
from .protocol import (AssessRequest, RequestRecord, TERMINAL_STATES)
from .queue import AdmissionQueue, RateLimiter, TokenBucket
from .server import ServiceServer, serve

__all__ = [
    "AdmissionQueue", "AdmissionRejected", "AssessRequest",
    "CircuitBreaker", "DeadlineExceeded", "InvalidRequest",
    "LeakageService", "ProgramQuarantined", "QuotaExceeded",
    "RateLimiter", "RecoveryReport", "RequestFailed", "RequestNotFound",
    "RequestRecord", "ServiceClient",
    "ServiceConfig", "ServiceError", "ServiceServer", "ShuttingDown",
    "TERMINAL_STATES", "TokenBucket", "VerdictCache", "error_from_dict",
    "execute_assessment", "serve", "verdict_key",
]
