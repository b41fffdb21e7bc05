"""HTTP adapter + typed client against a real in-process server."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service.client import ServiceClient
from repro.service.core import ServiceConfig
from repro.service.errors import (InvalidRequest, RequestNotFound,
                                  ServiceError)
from repro.service.server import MAX_BODY_BYTES, ServiceServer

from .conftest import pair_payload, population_payload


@pytest.fixture
def server():
    instance = ServiceServer(
        host="127.0.0.1", port=0,
        config=ServiceConfig(queue_depth=8))
    thread = threading.Thread(target=instance.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()
    instance.service.drain(grace_s=30.0)
    thread.join(timeout=10.0)


@pytest.fixture
def client(server):
    host, port = server.address
    with ServiceClient(f"http://{host}:{port}") as instance:
        yield instance


def test_health_ready_and_metrics_endpoints(client):
    health = client.health()
    assert health["status"] == "ok"
    assert health["workers_alive"] == 1
    ready, document = client.ready()
    assert ready and document["ready"]
    assert "service_queue_depth" in client.metrics()


def test_submit_with_wait_returns_the_result_document(client):
    result = client.assess(pair_payload(), timeout_s=120.0)
    assert result["n_traces"] == 2
    assert result["verdict"]["mode"] == "pair"
    assert len(result["trace_digest"]) == 64


def test_async_submit_then_poll_lifecycle(client):
    document = client.submit(population_payload(n_traces=4))
    assert document["state"] in ("queued", "running")
    assert document["id"].startswith("req-")
    final = client.status(document["id"], wait_s=120.0)
    assert final["terminal"] and final["state"] == "done"
    listing = client.requests()
    assert any(entry["id"] == document["id"] for entry in listing)


def test_invalid_request_raises_typed_400(client):
    with pytest.raises(InvalidRequest, match="rounds"):
        client.submit(pair_payload(rounds=99))


def test_unknown_request_id_raises_typed_404(client):
    with pytest.raises(RequestNotFound):
        client.status("req-999999")


def test_unknown_route_is_a_json_404(client, server):
    host, port = server.address
    status, document = client._call_raw("GET", "/v2/nope")
    assert status == 404
    assert document["error"]["code"] == "not_found"


def test_malformed_json_body_is_typed_not_a_stack_trace(server):
    host, port = server.address
    request = urllib.request.Request(
        f"http://{host}:{port}/v1/requests", data=b"{definitely not json",
        method="POST", headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            raise AssertionError(f"unexpected {response.status}")
    except urllib.error.HTTPError as error:
        assert error.code == 400
        document = json.loads(error.read())
        assert document["error"]["code"] == "invalid_request"


def test_cache_invalidate_scopes_and_rejects_malformed_bodies(client):
    from repro.service.protocol import AssessRequest

    client.invalidate_cache()                 # absent key: every verdict
    client.assess(pair_payload(), timeout_s=120.0)
    client.assess(pair_payload(masking="none"), timeout_s=120.0)
    entries = client.cache_stats()["entries"]
    # A non-object body or a non-string key is a typed 400 that drops
    # nothing, not an "invalidate everything" or a silent no-op.
    status, document = client._call_raw("POST", "/v1/cache/invalidate", [])
    assert status == 400
    assert document["error"]["code"] == "invalid_request"
    with pytest.raises(InvalidRequest, match="program_key"):
        client.invalidate_cache(123)
    assert client.cache_stats()["entries"] == entries
    program_key = AssessRequest.from_dict(pair_payload()).program_key()
    assert client.invalidate_cache(program_key) == 1
    assert client.cache_stats()["entries"] == entries - 1
    other = client.assess(pair_payload(masking="none"), timeout_s=120.0)
    assert other["verdict_cache"]["hit"]


def test_unreachable_daemon_is_a_retryable_typed_error():
    client = ServiceClient("http://127.0.0.1:9")  # discard port: refused
    with pytest.raises(ServiceError) as excinfo:
        client.health()
    assert excinfo.value.retry_after_s is not None


def test_recovery_endpoint_without_journal(client):
    assert client.recovery() == {"journal": None}


def test_every_response_is_one_socket_write(client, monkeypatch):
    """Status line, headers and body leave in one send.  A separate body
    send is held back by Nagle's algorithm until the client's delayed
    ACK fires (~40 ms on Linux), on every reply."""
    import socketserver

    writes = []
    write = socketserver._SocketWriter.write

    def counting_write(self, data):
        writes.append(len(data))
        return write(self, data)

    monkeypatch.setattr(socketserver._SocketWriter, "write",
                        counting_write)
    request_id = client.submit(pair_payload(), wait_s=120.0)["id"]
    replies = {
        "json": client.health,
        "request json": lambda: client.status(request_id),
        "report.html": lambda: client.report_html(request_id),
        "prometheus": client.metrics_text,
        "dashboard": client.dashboard,
        "trace": lambda: client.trace(request_id),
    }
    for name, fetch in replies.items():
        writes.clear()
        fetch()
        assert len(writes) == 1, f"{name}: {len(writes)} writes {writes}"


@pytest.mark.parametrize("request_bytes, status, code", [
    (b"PUT /healthz HTTP/1.1\r\nHost: x\r\n\r\n", 501, "not_implemented"),
    (b"GET / extra HTTP/1.1\r\n\r\n", 400, "bad_request"),
    # Exactly one byte over the 65,536-byte line limit and no newline,
    # so the server reads everything sent before it closes.
    (b"GET /" + b"a" * 65532, 414, "request_uri_too_long"),
], ids=["501-method", "400-request-line", "414-long-line"])
def test_protocol_errors_are_one_socket_write(server, monkeypatch,
                                              request_bytes, status, code):
    """Requests that never reach a route are answered by ``send_error``;
    its replies are typed JSON errors in one send too, and close the
    connection."""
    import socket
    import socketserver

    writes = []
    write = socketserver._SocketWriter.write

    def counting_write(self, data):
        writes.append(len(data))
        return write(self, data)

    monkeypatch.setattr(socketserver._SocketWriter, "write",
                        counting_write)
    with socket.create_connection(server.address, timeout=30) as sock:
        sock.sendall(request_bytes)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    assert len(writes) == 1, f"{status}: {len(writes)} writes {writes}"
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0].startswith(b"HTTP/1.1 %d " % status)
    assert b"\r\nConnection: close" in head
    error = json.loads(body)["error"]
    assert error["code"] == code and error["retryable"] is False


@pytest.mark.parametrize("length, body, status, code", [
    (b"abc", b"{}", 400, "bad_request"),
    # A negative length once read until the client hung up.
    (b"-1", b"{}", 400, "bad_request"),
    # An oversized body is left unread; before the connection closed, a
    # body holding a request line was answered as the next request.
    (b"%d" % (MAX_BODY_BYTES + 1),
     b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", 413,
     "request_entity_too_large"),
], ids=["400-not-a-number", "400-negative", "413-too-large"])
def test_bad_content_length_is_typed_and_closes(server, length, body,
                                                status, code):
    """A ``Content-Length`` the handler cannot honour is answered with a
    typed JSON error and ``Connection: close``, at once and only once:
    nothing after the headers is read or parsed as a request."""
    import socket

    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(b"POST /v1/requests HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Length: " + length + b"\r\n\r\n" + body)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, rest = reply.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0].startswith(b"HTTP/1.1 %d " % status)
    assert b"\r\nConnection: close" in head
    assert reply.count(b"HTTP/1.1 ") == 1, reply
    error = json.loads(rest)["error"]
    assert error["code"] == code and error["retryable"] is False


def test_http_0_9_request_gets_the_bare_body(server):
    """An HTTP/0.9 request line (no version) is answered with the body
    alone, no status line or headers, then the connection closes."""
    import socket

    with socket.create_connection(server.address, timeout=30) as sock:
        sock.sendall(b"GET /healthz\r\n\r\n")
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    assert json.loads(reply)["status"] == "ok"
