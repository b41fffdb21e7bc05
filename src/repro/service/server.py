"""Threaded HTTP JSON API over :class:`~repro.service.core.LeakageService`.

Stdlib-only (``http.server``); one thread per connection on top of the
service's one executor thread.  A submission the verdict cache answers
finishes on its connection thread, without a queue slot.  Endpoints:

========================  ==================================================
``POST /v1/requests``     submit; ``?wait=SECONDS`` blocks for the result.
                          Terminal states map to typed statuses (200 done,
                          429 queue full + ``Retry-After``, 503 quarantined/
                          draining, 504 deadline, 500 failed); a request
                          still running when ``wait`` expires answers 202.
                          ``X-Repro-Trace-Id`` on the request names the
                          trace; the response echoes it (or the minted one).
``GET /v1/requests``      recent request summaries (lifecycle audit).
``GET /v1/requests/<id>`` one request; ``?wait=SECONDS`` to block.
``GET /v1/requests/<id>/trace``        span tree + lifecycle timeline JSON.
``GET /v1/requests/<id>/report.html``  self-contained HTML request report.
``GET /v1/requests/<id>/attribution``  per-PC attribution snapshot (typed
                          404 unless submitted with ``attribution: true``).
``GET /healthz``          liveness + drain state; always 200 while the
                          process can answer at all.
``GET /readyz``           admission readiness: 200, or 503 while draining
                          or with no live executor thread.
``GET /metrics``          SLO metrics snapshot (p50/p95/p99 latency, queue
                          depth, goodput, rejections, breaker state);
                          ``?format=prometheus`` for text exposition.
``GET /dashboard``        self-contained auto-refreshing HTML SLO page.
``GET /v1/recovery``      restart journal accounting (what a previous,
                          killed daemon left behind).
``GET /v1/cache``         verdict-cache stats (hits, misses, stores,
                          invalidations) plus the artifact store's
                          evictions and live entry/byte gauges.
``POST /v1/cache/invalidate``  drop cached verdicts; an optional JSON
                          body ``{"program_key": ...}`` restricts the
                          drop to one program variant.
========================  ==================================================

``serve()`` installs SIGTERM/SIGINT handlers that run the graceful
drain: stop admitting (``readyz`` flips first), let in-flight requests
finish, fail queued ones with typed shutdown errors, write the SLO
manifest, close the journal, exit 0.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import threading
from collections import deque
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

from ..obs import prom
from .core import LeakageService, ServiceConfig
from .errors import InvalidRequest, RequestNotFound, ServiceError
from .protocol import DONE, SCHEMA, RequestRecord

#: Trace-ID propagation header (request and response).
TRACE_HEADER = "X-Repro-Trace-Id"

#: Dashboard rolling-history samples kept for the sparklines.
DASHBOARD_HISTORY = 120

logger = logging.getLogger("repro.service.server")

#: Longest single ``?wait=`` a client may ask for (long-polling bound).
MAX_WAIT_S = 600.0
#: Submission bodies larger than this are rejected unread (413, and the
#: connection closes: the unread body must not be parsed as a request).
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """Maps the service core onto HTTP; all state lives in the service."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> LeakageService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing -------------------------------------------------------

    def log_message(self, format: str, *args) -> None:
        logger.debug("%s - %s", self.address_string(), format % args)

    def _send_json(self, status: int, document: dict,
                   headers: Optional[dict] = None) -> None:
        body = json.dumps(document, sort_keys=True).encode()
        self._send_body(status, body, "application/json", headers)

    def _send_text(self, status: int, text: str, content_type: str,
                   headers: Optional[dict] = None) -> None:
        self._send_body(status, text.encode("utf-8"), content_type,
                        headers)

    def _send_body(self, status: int, body: bytes, content_type: str,
                   headers: Optional[dict] = None) -> None:
        """Status line, headers and body in one write.

        ``end_headers()`` followed by a body write would be two sends:
        Nagle's algorithm then holds the body back until the client's
        delayed ACK fires (~40 ms on Linux) on every reply.
        """
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.request_version == "HTTP/0.9":  # no status line, no headers
            self.wfile.write(body)
            return
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _send_error_typed(self, error: ServiceError) -> None:
        headers = {}
        if error.retry_after_s is not None:
            headers["Retry-After"] = str(max(1, round(error.retry_after_s)))
        if error.trace_id is not None:
            headers[TRACE_HEADER] = error.trace_id
        self._send_json(error.http_status, error.to_dict(), headers)

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """Replies to requests that never reach a route (400 malformed
        request line or ``Content-Length``, 413 oversized body, 414
        over-long line, 501 unsupported method, ...).

        The inherited version writes its headers and an HTML body in two
        sends; this one answers with a typed JSON error through
        :meth:`_send_body`, in one write, and closes the connection.
        """
        status = HTTPStatus(code)
        self.log_error("code %d, message %s", code, message)
        error = ServiceError(message or status.phrase)
        error.code = status.name.lower()
        body = json.dumps(error.to_dict(), sort_keys=True).encode()
        self._send_body(code, b"" if self.command == "HEAD" else body,
                        "application/json", {"Connection": "close"})

    def _wait_seconds(self, query: dict) -> Optional[float]:
        raw = (query.get("wait") or [None])[0]
        if raw is None:
            return None
        try:
            return min(max(float(raw), 0.0), MAX_WAIT_S)
        except ValueError:
            return None

    def _record_response(self, record: RequestRecord) -> None:
        """Answer with the record's current lifecycle view."""
        trace_header = {TRACE_HEADER: record.trace_id}
        if not record.terminal:
            self._send_json(202, record.to_dict(), trace_header)
        elif record.state == DONE:
            self._send_json(200, record.to_dict(), trace_header)
        else:
            error = record.error or ServiceError("request ended without "
                                                 "result or error")
            document = record.to_dict()
            headers = dict(trace_header)
            if error.retry_after_s is not None:
                headers["Retry-After"] = str(
                    max(1, round(error.retry_after_s)))
            self._send_json(error.http_status, document, headers)

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        try:
            if parsed.path == "/healthz":
                self._send_json(200, self.service.health())
            elif parsed.path == "/readyz":
                ready, reason = self.service.ready()
                self._send_json(200 if ready else 503,
                                {"ready": ready, "reason": reason})
            elif parsed.path == "/metrics":
                format_name = (query.get("format") or ["json"])[0]
                snapshot = self.service.metrics_snapshot()
                if format_name == "prometheus":
                    self._send_text(200, prom.render_prometheus(snapshot),
                                    prom.CONTENT_TYPE)
                else:
                    self._send_json(200, snapshot)
            elif parsed.path == "/dashboard":
                self._send_text(200, self._dashboard(),
                                "text/html; charset=utf-8")
            elif parsed.path == "/v1/recovery":
                report = self.service.recovery_report()
                if report is None:
                    self._send_json(200, {"journal": None})
                else:
                    self._send_json(200, report)
            elif parsed.path == "/v1/cache":
                self._send_json(200, {
                    "stats": self.service.verdict_cache_stats()})
            elif parsed.path == "/v1/requests":
                self._send_json(200, {"requests": [
                    record.to_dict(include_request=False)
                    for record in self.service.records()]})
            elif parsed.path.startswith("/v1/requests/"):
                self._request_subresource(parsed.path, query)
            else:
                self._send_json(404, {"error": {
                    "code": "not_found",
                    "message": f"no route {parsed.path}"}})
        except ServiceError as error:
            self._send_error_typed(error)

    def _request_subresource(self, path: str, query: dict) -> None:
        parts = [part for part in
                 path[len("/v1/requests/"):].split("/") if part]
        if not parts or len(parts) > 2:
            raise RequestNotFound(f"no route {path}")
        record = self.service.get(parts[0])
        trace_header = {TRACE_HEADER: record.trace_id}
        sub = parts[1] if len(parts) == 2 else None
        if sub is None:
            wait = self._wait_seconds(query)
            if wait:
                record.wait(wait)
            self._record_response(record)
        elif sub == "trace":
            self._send_json(200, record.trace_document(), trace_header)
        elif sub == "report.html":
            from ..obs.report import request_report_html

            document = record.trace_document()
            if record.result is not None:
                document["result"] = record.result
            self._send_text(200, request_report_html(document),
                            "text/html; charset=utf-8", trace_header)
        elif sub == "attribution":
            if record.attribution_snapshot is None:
                raise RequestNotFound(
                    f"no attribution recorded for {record.id!r}; submit "
                    'with "attribution": true to collect it')
            self._send_json(200, {"schema": SCHEMA, "id": record.id,
                                  "trace_id": record.trace_id,
                                  "attribution":
                                      record.attribution_snapshot},
                            trace_header)
        else:
            raise RequestNotFound(f"no route {path}")

    def _dashboard(self) -> str:
        from ..obs.report import dashboard_html, latency_quantiles

        health = self.service.health()
        snapshot = self.service.metrics_snapshot()
        goodput = sum(
            series.get("value", 0.0) for series in
            snapshot.get("service_goodput_traces_total",
                         {}).get("series", []))
        sample = {"queue_depth": health.get("queue_depth", 0),
                  "inflight": health.get("inflight", 0),
                  "p95_s": latency_quantiles(snapshot).get("p95", 0.0),
                  "goodput": goodput}
        history = self.server.record_dashboard_sample(sample)  # type: ignore[attr-defined]
        return dashboard_html(health, snapshot, history)

    def do_POST(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        raw_length = self.headers.get("Content-Length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            self.send_error(400, f"invalid Content-Length {raw_length!r}")
            return
        if length > MAX_BODY_BYTES:
            self.send_error(413, f"request body of {length} bytes exceeds "
                                 f"the {MAX_BODY_BYTES}-byte limit")
            return
        try:
            try:
                payload = json.loads(self.rfile.read(length) or b"{}")
            except json.JSONDecodeError as error:
                raise InvalidRequest(f"body is not valid JSON: {error}")
            if parsed.path == "/v1/cache/invalidate":
                # Absent or null means "every verdict"; anything else that
                # is not a string must not widen (or silently miss) the drop.
                if not isinstance(payload, dict):
                    raise InvalidRequest("body must be a JSON object")
                program_key = payload.get("program_key")
                if program_key is not None \
                        and not isinstance(program_key, str):
                    raise InvalidRequest("program_key must be a string")
                dropped = self.service.invalidate_verdict_cache(
                    program_key)
                self._send_json(200, {"invalidated": dropped})
                return
            if parsed.path != "/v1/requests":
                self._send_json(404, {"error": {
                    "code": "not_found",
                    "message": f"no route POST {parsed.path}"}})
                return
            record = self.service.submit(
                payload, trace_id=self.headers.get(TRACE_HEADER))
        except ServiceError as error:
            self._send_error_typed(error)
            return
        wait = self._wait_seconds(query)
        if wait:
            record.wait(wait)
        self._record_response(record)


class ServiceServer(ThreadingHTTPServer):
    """HTTP front end owning a :class:`LeakageService`."""

    daemon_threads = True

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 config: Optional[ServiceConfig] = None,
                 service: Optional[LeakageService] = None):
        self.service = service or LeakageService(config)
        self._dashboard_lock = threading.Lock()
        self._dashboard_history: deque = deque(maxlen=DASHBOARD_HISTORY)
        super().__init__((host, port), _Handler)

    def record_dashboard_sample(self, sample: dict) -> list[dict]:
        """Append one SLO sample; returns the rolling history window."""
        with self._dashboard_lock:
            self._dashboard_history.append(sample)
            return list(self._dashboard_history)

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]


def serve(host: str = "127.0.0.1", port: int = 0,
          config: Optional[ServiceConfig] = None,
          announce=None, install_signal_handlers: bool = True) -> dict:
    """Run the daemon until SIGTERM/SIGINT, then drain gracefully.

    ``announce(event_dict)`` is called once with the bound address (the
    CLI prints it as a JSON line so scripts can discover an ephemeral
    port).  Returns the drain summary.
    """
    server = ServiceServer(host=host, port=port, config=config)
    stop = threading.Event()

    def _drain_then_stop():
        # Drain while the HTTP server still answers: /healthz reports
        # "draining", and clients polling queued/in-flight requests
        # receive their typed terminal states instead of a dead socket.
        # Only then stop the listener.
        server.service.drain()
        server.shutdown()

    def _trigger_shutdown(signum=None, frame=None):
        if stop.is_set():
            return
        stop.set()
        # serve_forever() must be stopped from another thread; the
        # signal handler runs on the main thread mid-poll.
        threading.Thread(target=_drain_then_stop, daemon=True).start()

    if install_signal_handlers:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, _trigger_shutdown)
    bound_host, bound_port = server.address
    if announce is not None:
        announce({"event": "listening", "host": bound_host,
                  "port": bound_port, "pid": os.getpid()})
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        # Idempotent: the signal path already drained; an external
        # shutdown() call reaches a fresh drain here.
        summary = server.service.drain()
        server.server_close()
    if announce is not None:
        announce({"event": "drained", **summary})
    return summary
