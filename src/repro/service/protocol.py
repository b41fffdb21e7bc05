"""Request/response protocol of the leakage-assessment service.

An :class:`AssessRequest` is the unit of work a client submits: "compile
this program variant, collect N traces under this noise/engine policy,
and return the leakage verdict plus trace digest".  The dataclass is the
single source of truth for validation and for the JSON wire form, and it
maps 1:1 onto the batch stack (:class:`~repro.harness.engine.CompileRequest`
plus a :func:`~repro.attacks.dpa.collect_traces`-shaped job batch), so a
request executed by the daemon is **bit-identical** to the same request
executed locally by ``repro submit --local``.

:class:`RequestRecord` is the server-side lifecycle wrapper: every
admitted request moves through ``queued -> running -> <terminal>`` where
the terminal states are exactly one of ``done``, ``failed``,
``timed_out``, ``rejected``, or ``shutdown`` — there is no state in
which a submitted request silently disappears.
"""

from __future__ import annotations

import itertools
import re
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Optional

from ..obs.events import compact_entry, render_entry
from .errors import InvalidRequest, ServiceError

#: Wire schema identifier carried on results and trace documents.
SCHEMA = "repro.service/v1"

#: Assessment modes (what verdict the request asks for).
MODES = ("pair", "population")

#: Assembly-level masking policies a request may name.  The compiler-
#: driven ones (``selective``, ``annotate-only``) are chosen by ``masking``.
POLICIES = ("none", "all-loads-stores", "all")

#: Priority names in descending service order.
PRIORITIES = ("high", "normal", "low")

#: Ceiling on traces per request: admission control protects the worker
#: pool from a single request monopolizing it for hours.
MAX_TRACES = 4096

#: Ceiling on the per-simulation cycle budget a request may ask for.
MAX_CYCLES_CEILING = 50_000_000

_DEF_KEY_A = 0x133457799BBCDFF1
_DEF_KEY_B = 0x0E329232EA6D0D73
_DEF_PLAINTEXT = 0x0123456789ABCDEF


def _parse_word64(value, name: str) -> int:
    """Accept ints or (hex) strings; reject anything outside 64 bits."""
    if isinstance(value, bool):
        raise InvalidRequest(f"{name} must be a 64-bit integer")
    if isinstance(value, str):
        try:
            value = int(value, 0)
        except ValueError:
            raise InvalidRequest(
                f"{name} must be an integer or hex string, got {value!r}")
    if not isinstance(value, int):
        raise InvalidRequest(f"{name} must be a 64-bit integer")
    if not 0 <= value < (1 << 64):
        raise InvalidRequest(f"{name} out of 64-bit range")
    return value


@dataclass(frozen=True, slots=True)
class AssessRequest:
    """One leakage-assessment work item, fully validated.

    ``mode="pair"`` runs the paper's differential form — the same
    plaintext under ``key``/``key_b`` — and judges the per-region
    max |Δ| against ``budget_pj`` (Figs. 7–9).  ``mode="population"``
    collects ``n_traces`` acquisitions of ``key`` over seeded random
    plaintexts, partitions them by plaintext LSB, and judges the peak
    Welch-t against ``budget_t`` (TVLA-style).
    """

    mode: str = "population"
    cipher: str = "des"
    masking: str = "selective"
    policy: Optional[str] = None
    rounds: int = 16
    n_traces: int = 16
    key: int = _DEF_KEY_A
    key_b: int = _DEF_KEY_B
    plaintext: int = _DEF_PLAINTEXT
    seed: int = 2003
    noise_sigma: float = 0.0
    engine: Optional[str] = None
    budget_pj: float = 0.0
    budget_t: float = 4.5
    max_cycles: int = 2_000_000
    #: Fairness/scheduling fields (not part of the result identity).
    client: str = "anonymous"
    priority: str = "normal"
    deadline_s: Optional[float] = None
    #: Collect per-PC energy attribution for this request (observability
    #: only — the energy result stays bit-identical either way).
    attribution: bool = False
    #: Allow the verdict cache to serve/store this request.  ``False``
    #: forces a fresh simulation (and never stores the result).  Not
    #: part of the result identity.
    cache: bool = True

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise InvalidRequest(
                f"mode must be one of {MODES}, got {self.mode!r}")
        if self.cipher != "des":
            raise InvalidRequest(
                f"cipher must be 'des' (got {self.cipher!r}); AES "
                "assessment lands once its spec grows a rounds knob")
        if self.masking not in ("selective", "annotate-only", "none"):
            raise InvalidRequest(f"unknown masking {self.masking!r}")
        if self.policy is not None and self.policy not in POLICIES:
            raise InvalidRequest(
                f"policy must be one of {POLICIES}, got {self.policy!r}; "
                "compiler-driven masking is chosen with masking=")
        if not 1 <= self.rounds <= 16:
            raise InvalidRequest("rounds must be in 1..16")
        if not 1 <= self.n_traces <= MAX_TRACES:
            raise InvalidRequest(
                f"n_traces must be in 1..{MAX_TRACES} "
                f"(admission control), got {self.n_traces}")
        if self.mode == "population" and self.n_traces < 2:
            raise InvalidRequest("population mode needs n_traces >= 2")
        if self.noise_sigma < 0:
            raise InvalidRequest("noise_sigma must be >= 0")
        if self.engine is not None:
            from ..machine.engines import resolve

            try:
                resolve(self.engine)
            except ValueError as error:
                raise InvalidRequest(str(error))
        if not 1 <= self.max_cycles <= MAX_CYCLES_CEILING:
            raise InvalidRequest(
                f"max_cycles must be in 1..{MAX_CYCLES_CEILING}")
        if self.priority not in PRIORITIES:
            raise InvalidRequest(
                f"priority must be one of {PRIORITIES}, "
                f"got {self.priority!r}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise InvalidRequest("deadline_s must be > 0")
        if not self.client or not isinstance(self.client, str):
            raise InvalidRequest("client must be a non-empty string")
        if not isinstance(self.attribution, bool):
            raise InvalidRequest("attribution must be a boolean")
        if not isinstance(self.cache, bool):
            raise InvalidRequest("cache must be a boolean")

    # -- wire form ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "mode": self.mode, "cipher": self.cipher,
            "masking": self.masking, "policy": self.policy,
            "rounds": self.rounds, "n_traces": self.n_traces,
            "key": f"0x{self.key:016X}", "key_b": f"0x{self.key_b:016X}",
            "plaintext": f"0x{self.plaintext:016X}", "seed": self.seed,
            "noise_sigma": self.noise_sigma, "engine": self.engine,
            "budget_pj": self.budget_pj, "budget_t": self.budget_t,
            "max_cycles": self.max_cycles, "client": self.client,
            "priority": self.priority, "deadline_s": self.deadline_s,
            "attribution": self.attribution, "cache": self.cache,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AssessRequest":
        if not isinstance(payload, dict):
            raise InvalidRequest("request body must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise InvalidRequest(f"unknown request fields: {unknown}")
        values = dict(payload)
        for word in ("key", "key_b", "plaintext"):
            if word in values:
                values[word] = _parse_word64(values[word], word)
        for number, kind in (("rounds", int), ("n_traces", int),
                             ("seed", int), ("max_cycles", int),
                             ("noise_sigma", float), ("budget_pj", float),
                             ("budget_t", float)):
            if number in values and values[number] is not None:
                try:
                    values[number] = kind(values[number])
                except (TypeError, ValueError):
                    raise InvalidRequest(
                        f"{number} must be a {kind.__name__}")
        if values.get("deadline_s") is not None:
            try:
                values["deadline_s"] = float(values["deadline_s"])
            except (TypeError, ValueError):
                raise InvalidRequest("deadline_s must be a number")
        try:
            return cls(**values)
        except TypeError as error:
            raise InvalidRequest(str(error))

    def priority_rank(self) -> int:
        """Numeric service order: lower ranks are served first."""
        return PRIORITIES.index(self.priority)

    def program_key(self) -> str:
        """Cache key of the program variant — the circuit breaker's key."""
        return self.compile_request().cache_key()

    def compile_request(self):
        from ..harness.engine import CompileRequest
        from ..masking.policy import MaskingPolicy
        from ..programs.des_source import DesProgramSpec

        policy = MaskingPolicy(self.policy) if self.policy else None
        return CompileRequest(cipher=self.cipher,
                              spec=DesProgramSpec(rounds=self.rounds),
                              masking=self.masking, policy=policy)


# -- lifecycle --------------------------------------------------------------

#: Non-terminal states.
QUEUED = "queued"
RUNNING = "running"
#: Terminal states — exactly one per submitted request.
DONE = "done"
FAILED = "failed"
TIMED_OUT = "timed_out"
REJECTED = "rejected"
SHUTDOWN = "shutdown"

TERMINAL_STATES = (DONE, FAILED, TIMED_OUT, REJECTED, SHUTDOWN)

_request_counter = itertools.count(1)


def next_request_id(prefix: str = "req") -> str:
    return f"{prefix}-{next(_request_counter):06d}"


#: Charset/length contract for client-supplied trace IDs
#: (``X-Repro-Trace-Id`` header, ``--trace-id`` flag, ``REPRO_TRACE_ID``).
TRACE_ID_RE = re.compile(r"^[A-Za-z0-9._:-]{1,128}$")


def make_trace_id(candidate: Optional[str] = None) -> str:
    """Validate a client-supplied trace ID or mint a fresh one.

    Invalid candidates raise :class:`InvalidRequest` rather than being
    silently replaced — a client that sends a trace ID wants to find the
    request by it later.
    """
    if candidate is None or candidate == "":
        return f"tr-{uuid.uuid4().hex[:20]}"
    if not isinstance(candidate, str) or not TRACE_ID_RE.match(candidate):
        raise InvalidRequest(
            "trace id must match [A-Za-z0-9._:-]{1,128}")
    return candidate


#: Guards every record's terminal transition and waiter registration.
#: One lock for the whole service, so a record needs no synchronization
#: object of its own (see :meth:`RequestRecord.wait`).
_terminal_lock = threading.Lock()


def _copy_containers(node):
    """Copy a JSON tree's dicts and lists; share its leaves."""
    if isinstance(node, dict):
        return {key: _copy_containers(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_copy_containers(value) for value in node]
    return node


@dataclass(eq=False, slots=True)
class RequestRecord:
    """Server-side lifecycle of one admitted (or rejected) request.

    Beyond the state machine, the record carries the request's
    observability: the trace ID (client-supplied or minted), a
    **timeline** of lifecycle events (:meth:`mark` — received, admitted,
    started, chunks, deadline checks, terminal), and — when request
    tracing is on — the grafted span tree and attribution snapshot the
    executor captured.  :meth:`trace_document` is the JSON the
    ``GET /v1/requests/<id>/trace`` endpoint serves.

    A terminal record sits in the service's request history until
    ``history_limit`` evicts it, so it keeps facts and renders documents
    on read: the timeline is stored as compact tuples, a verdict-cache
    hit references the store's shared document plus its own envelope
    (:attr:`cache_hit`), and no synchronization object survives the
    terminal transition.  :attr:`result` and :attr:`timeline` are
    rendered afresh on every read, so a caller may mutate what it gets
    without touching the record or the verdict cache.
    """

    request: AssessRequest
    id: str = field(default_factory=next_request_id)
    state: str = QUEUED
    error: Optional[ServiceError] = None
    submitted_monotonic: float = field(default_factory=time.monotonic)
    started_monotonic: Optional[float] = None
    finished_monotonic: Optional[float] = None
    trace_id: str = field(default_factory=make_trace_id)
    #: Request-scoped span forest (request tracing enabled only).
    spans: Optional[list] = None
    #: Whether the span forest was compacted into an aggregated frame
    #: tree to bound history memory (see ``ServiceConfig.span_tree_limit``).
    spans_compacted: bool = False
    #: Per-PC attribution snapshot (``request.attribution`` only).
    attribution_snapshot: Optional[dict] = None
    #: A verdict-cache hit's envelope, ``(age_s, wall_s)``: the stored
    #: entry's age and this request's wall time.  The result is then
    #: the store's shared document, which nothing mutates; :attr:`result`
    #: stamps the envelope on read.
    cache_hit: Optional[tuple] = field(default=None, init=False)
    _result: Optional[dict] = field(default=None, init=False, repr=False)
    #: Lifecycle events in occurrence order, each the
    #: :func:`~repro.obs.events.compact_entry` of its event record
    #: (``t_s`` relative to submission).
    _timeline: list = field(default_factory=list, init=False, repr=False)
    #: Created only for a waiter that arrives before the terminal
    #: transition, and dropped by it.
    _waiter: Optional[threading.Event] = field(default=None, init=False,
                                               repr=False)

    @property
    def deadline_monotonic(self) -> Optional[float]:
        if self.request.deadline_s is None:
            return None
        return self.submitted_monotonic + self.request.deadline_s

    @property
    def terminal(self) -> bool:
        return self.finished_monotonic is not None

    def start(self) -> None:
        self.state = RUNNING
        self.started_monotonic = time.monotonic()

    def finish(self, state: str, result: Optional[dict] = None,
               error: Optional[ServiceError] = None,
               cache_hit: Optional[tuple] = None) -> None:
        """Move to a terminal state exactly once (later calls are no-ops,
        so a drain racing a normal completion cannot double-count).

        ``cache_hit`` marks ``result`` as the verdict store's shared
        document served to this request (see :attr:`cache_hit`).
        """
        with _terminal_lock:
            if self.terminal:
                return
            assert state in TERMINAL_STATES, state
            self.state = state
            self._result = result
            self.cache_hit = cache_hit
            self.error = error
            self.finished_monotonic = time.monotonic()
            waiter, self._waiter = self._waiter, None
        if waiter is not None:
            waiter.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until terminal (or timeout); True when terminal."""
        with _terminal_lock:
            if self.terminal:
                return True
            if self._waiter is None:
                self._waiter = threading.Event()
            waiter = self._waiter
        return waiter.wait(timeout)

    @property
    def result(self) -> Optional[dict]:
        """The result document, a fresh copy on every read."""
        if self._result is None:
            return None
        document = _copy_containers(self._result)
        if self.cache_hit is not None:
            age_s, wall_s = self.cache_hit
            document["verdict_cache"] = {"hit": True, "age_s": age_s}
            document["request"] = self.request.to_dict()
            document["wall_s"] = wall_s
        return document

    @property
    def latency_s(self) -> Optional[float]:
        if self.finished_monotonic is None:
            return None
        return self.finished_monotonic - self.submitted_monotonic

    @property
    def queued_s(self) -> Optional[float]:
        """Queue wait: submission to execution start (None if never
        started — rejected at admission, or drained while queued)."""
        if self.started_monotonic is None:
            return None
        return self.started_monotonic - self.submitted_monotonic

    def mark(self, event_record: dict) -> None:
        """Append one lifecycle event record to the timeline."""
        self._timeline.append(compact_entry(
            event_record, time.monotonic() - self.submitted_monotonic))

    @property
    def timeline(self) -> list[dict]:
        """The lifecycle events as :func:`~repro.obs.events.timeline_entry`
        dicts, rendered on read."""
        return [render_entry(entry) for entry in self._timeline]

    def to_dict(self, include_request: bool = True) -> dict:
        document: dict = {"schema": SCHEMA, "id": self.id,
                          "trace_id": self.trace_id,
                          "state": self.state,
                          "terminal": self.terminal}
        if include_request:
            document["request"] = self.request.to_dict()
        if self.latency_s is not None:
            document["latency_s"] = round(self.latency_s, 6)
        result = self.result
        if result is not None:
            document["result"] = result
        if self.error is not None:
            document.update(self.error.to_dict())
        return document

    def trace_document(self) -> dict:
        """Span tree + timeline JSON for ``GET /v1/requests/<id>/trace``."""
        document: dict = {"schema": SCHEMA, "id": self.id,
                          "trace_id": self.trace_id,
                          "state": self.state,
                          "terminal": self.terminal,
                          "request": self.request.to_dict(),
                          "timeline": self.timeline}
        if self.queued_s is not None:
            document["queued_s"] = round(self.queued_s, 6)
        if self.latency_s is not None:
            document["latency_s"] = round(self.latency_s, 6)
        if self.spans is not None:
            document["spans"] = self.spans
            document["spans_compacted"] = self.spans_compacted
        if self.attribution_snapshot is not None:
            document["attribution"] = self.attribution_snapshot
        if self.error is not None:
            document.update(self.error.to_dict())
        return document
