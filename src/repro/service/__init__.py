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

from .._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    ".breaker": ("CircuitBreaker",),
    ".cache": ("VerdictCache", "verdict_key"),
    ".client": ("ServiceClient",),
    ".core": ("LeakageService", "ServiceConfig"),
    ".errors": ("AdmissionRejected", "DeadlineExceeded", "InvalidRequest",
                "ProgramQuarantined", "QuotaExceeded", "RequestFailed",
                "RequestNotFound", "ServiceError", "ShuttingDown",
                "error_from_dict"),
    ".executor": ("execute_assessment",),
    ".journal": ("RecoveryReport",),
    ".protocol": ("AssessRequest", "RequestRecord", "TERMINAL_STATES"),
    ".queue": ("AdmissionQueue", "RateLimiter", "TokenBucket"),
    ".server": ("ServiceServer", "serve"),
})
