"""The HTTP edge: routes, error mapping, and idempotency passthrough."""

import asyncio
import http.client
import json
import logging
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.plugin import CompileOptions
from repro.lang.canonical import spec_to_json
from repro.lang.secrets import SecretSpec
from repro.monad.policy import size_above
from repro.server.edge import HttpEdge, _to_edge_error
from repro.server.gateway import (
    DeclassificationServer,
    ServerConfig,
    ServerDegraded,
    ServerOverloaded,
)
from repro.server.journal import RequestJournal
from repro.server.store import SQLiteStore
from repro.server.supervise import ShardCrash, ShardTimeout
from repro.server.workers import ShardOverloaded
from repro.service.api import CompileRequest

SPEC = SecretSpec.declare("EdgeLoc", x=(0, 199), y=(0, 199))
OPTIONS = CompileOptions(domain="interval", modes=("under", "over"))


@pytest.fixture(scope="module")
def edge():
    server = DeclassificationServer(
        size_above(100),
        options=OPTIONS,
        budget_floor=size_above(4000),
        config=ServerConfig(inline_compiles=True),
        journal=RequestJournal(SQLiteStore(":memory:")),
    )
    with HttpEdge(server) as running:
        yield running


def call(edge, method, path, body=None, key=None):
    host, port = edge.address
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", data=data, method=method
    )
    request.add_header("Content-Type", "application/json")
    if key is not None:
        request.add_header("Idempotency-Key", key)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.load(response), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error), dict(error.headers)


def test_healthz(edge):
    status, body, _ = call(edge, "GET", "/v1/healthz")
    assert status == 200 and body["status"] == "ok"
    assert body["degraded_fraction"] == 0.0
    assert body["breakers_open"] == 0


def test_full_session_lifecycle_over_http(edge):
    status, receipt, _ = call(
        edge,
        "POST",
        "/v1/queries",
        {"name": "west", "query": "x <= 99", "secret": spec_to_json(SPEC)},
    )
    assert status == 200
    assert receipt["name"] == "west" and receipt["verified"]

    status, opened, _ = call(
        edge,
        "POST",
        "/v1/sessions",
        {
            "session_id": "h1",
            "user_id": "alice",
            "secret": {"spec": spec_to_json(SPEC), "value": [30, 40]},
        },
    )
    assert status == 201
    assert opened == {"session_id": "h1", "secret": "EdgeLoc"}

    status, result, _ = call(
        edge,
        "POST",
        "/v1/downgrades",
        {"session_id": "h1", "query_name": "west"},
        key="edge/d1",
    )
    assert status == 200
    assert result["authorized"] and result["response"] is True

    # Same Idempotency-Key: the journal answers, the budget is not
    # re-charged, and the body is byte-identical.
    status, duplicate, _ = call(
        edge,
        "POST",
        "/v1/downgrades",
        {"session_id": "h1", "query_name": "west"},
        key="edge/d1",
    )
    assert status == 200 and duplicate == result
    assert edge.server.stats.journal_duplicates >= 1
    assert edge.server.ledger.remaining("alice", SPEC) == 20_000

    status, audit, _ = call(edge, "GET", "/v1/audit")
    assert status == 200
    assert audit["journal"]["duplicates"] >= 1

    status, epoch, _ = call(edge, "POST", "/v1/epochs", {"epochs": 1})
    # No decay policy on this server: advancing epochs is a 400, mapped
    # from the gateway's ValueError — still a structured body.
    assert status == 400 and epoch["error"] == "bad_request"

    status, closed, _ = call(edge, "DELETE", "/v1/sessions/h1")
    assert status == 200
    assert closed == {"session_id": "h1", "closed": True, "downgrades": 1}


def test_missing_fields_and_bad_json_are_400(edge):
    status, body, _ = call(edge, "POST", "/v1/downgrades", {"session_id": "x"})
    assert status == 400
    assert body == {"error": "bad_request", "detail": "missing field 'query_name'"}

    host, port = edge.address
    request = urllib.request.Request(
        f"http://{host}:{port}/v1/downgrades", data=b"not json", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30)
    assert excinfo.value.code == 400
    assert json.load(excinfo.value)["error"] == "bad_request"


@pytest.mark.parametrize(
    "query",
    [
        "z <= 3",  # parses, but names a field the secret does not declare
        "x <=",  # does not parse
        "x $ 3",  # does not lex
    ],
)
def test_invalid_compile_is_400_and_never_journaled(edge, query):
    journal = edge.server.journal
    journaled = len(journal)
    status, body, _ = call(
        edge,
        "POST",
        "/v1/queries",
        {"name": "bad", "query": query, "secret": spec_to_json(SPEC)},
        key=f"edge/bad/{query}",
    )
    assert status == 400 and body["error"] == "bad_request"
    assert len(journal) == journaled


def test_unknown_route_is_404_with_structured_body(edge):
    status, body, _ = call(edge, "GET", "/v1/nope")
    assert status == 404
    assert body["error"] == "not_found" and "/v1/nope" in body["detail"]


def test_unknown_session_is_a_domain_refusal_not_an_http_error(edge):
    # The gateway answers with an unauthorized result (a *decision*,
    # journaled and replayable) rather than an exception; the edge must
    # not second-guess it into an error status.
    status, body, _ = call(
        edge,
        "POST",
        "/v1/downgrades",
        {"session_id": "ghost", "query_name": "west"},
    )
    assert status == 200
    assert body["authorized"] is False and "ghost" in body["reason"]


# ---------------------------------------------------------------------------
# Error mapping, unit-level (no live server needed)
# ---------------------------------------------------------------------------


def test_degraded_maps_to_503_with_retry_after():
    error = _to_edge_error(ServerDegraded("shed", retry_after=0.25))
    assert error.status == 503
    assert error.headers == {"Retry-After": "1"}  # ceil, never 0
    assert error.body["error"] == "degraded"
    assert error.body["retry_after"] == 0.25


@pytest.mark.parametrize("exc", [ServerOverloaded("full"), ShardOverloaded("full")])
def test_overload_maps_to_503(exc):
    error = _to_edge_error(exc)
    assert error.status == 503 and error.body["error"] == "overloaded"


@pytest.mark.parametrize(
    "exc", [ShardCrash("died", shard=2, site="serve"), ShardTimeout("slow", shard=0)]
)
def test_shard_failures_map_to_502_with_typed_payload(exc):
    error = _to_edge_error(exc)
    assert error.status == 502
    assert error.body["error"] == "shard_failure"
    assert error.body["kind"] == exc.kind
    assert error.body["shard"] == exc.shard


def test_unexpected_exception_maps_to_500():
    error = _to_edge_error(RuntimeError("boom"))
    assert error.status == 500 and error.body["error"] == "internal"


# ---------------------------------------------------------------------------
# Persistent connections: framing, reuse, shutdown
# ---------------------------------------------------------------------------


def raw_exchange(sock, request: bytes) -> tuple[int, dict, bytes]:
    """Send one raw request; read one response off the socket's stream."""
    sock.sendall(request)
    reader = sock.makefile("rb")
    status = int(reader.readline().split()[1])
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", 0)))
    return status, headers, body


def open_socket(edge):
    return socket.create_connection(edge.address, timeout=5)


def test_unknown_route_body_is_consumed_before_the_next_request(edge):
    body = b'{"padding": "GET /v1/healthz HTTP/1.1"}'
    with open_socket(edge) as sock:
        status, _, _ = raw_exchange(
            sock,
            b"POST /v1/nope HTTP/1.1\r\nHost: edge\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
        )
        assert status == 404
        status, headers, payload = raw_exchange(
            sock, b"GET /v1/healthz HTTP/1.1\r\nHost: edge\r\n\r\n"
        )
    assert status == 200 and headers.get("connection") != "close"
    assert json.loads(payload)["status"] == "ok"


@pytest.mark.parametrize("length", [b"-1", b"abc", b"+5"])
def test_invalid_content_length_is_400_and_closes(edge, length):
    with open_socket(edge) as sock:
        status, headers, payload = raw_exchange(
            sock,
            b"POST /v1/downgrades HTTP/1.1\r\nHost: edge\r\n"
            b"Content-Length: " + length + b"\r\n\r\n",
        )
        assert status == 400 and headers["connection"] == "close"
        assert json.loads(payload)["error"] == "bad_request"
        assert sock.recv(1) == b""  # the edge hung up


def test_transfer_encoding_is_411_and_closes(edge):
    with open_socket(edge) as sock:
        status, headers, payload = raw_exchange(
            sock,
            b"POST /v1/downgrades HTTP/1.1\r\nHost: edge\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        )
        assert status == 411 and headers["connection"] == "close"
        assert json.loads(payload)["error"] == "length_required"
        assert sock.recv(1) == b""


def test_routes_ignore_the_query_string(edge):
    status, body, _ = call(edge, "GET", "/v1/healthz?probe=1")
    assert status == 200 and body["status"] == "ok"


def test_requests_reuse_one_connection(edge):
    conn = http.client.HTTPConnection(*edge.address, timeout=30)
    try:
        conn.request("GET", "/v1/healthz")
        assert conn.getresponse().read()
        first = conn.sock
        conn.request("GET", "/v1/healthz")
        response = conn.getresponse()
        assert response.status == 200 and json.loads(response.read())
        assert first is not None and conn.sock is first
    finally:
        conn.close()


def test_sequential_requests_on_one_connection_do_not_stall(edge):
    # A Nagle stall (headers and body in two writes, the second held
    # back for the client's delayed ACK) costs ~40 ms a request.
    conn = http.client.HTTPConnection(*edge.address, timeout=30)
    try:
        started = time.perf_counter()
        for _ in range(50):
            conn.request("GET", "/v1/healthz")
            assert conn.getresponse().read()
        assert time.perf_counter() - started < 1.0
    finally:
        conn.close()


def small_edge(**kwargs) -> HttpEdge:
    server = DeclassificationServer(
        size_above(100), options=OPTIONS, config=ServerConfig(inline_compiles=True)
    )
    return HttpEdge(server, **kwargs)


def test_stop_closes_idle_connections_and_ends_their_tasks():
    edge = small_edge()
    edge.start()
    sock = open_socket(edge)
    try:
        status, _, _ = raw_exchange(sock, b"GET /v1/healthz HTTP/1.1\r\n\r\n")
        assert status == 200
        connections = list(edge._connections)
        assert len(connections) == 1
        started = time.perf_counter()
        edge.stop()
        assert time.perf_counter() - started < 2.0
        assert all(task.done() for task in connections)
        assert not edge._connections
        assert sock.recv(1) == b""
    finally:
        sock.close()
        edge.server.shutdown()


def test_idle_connections_time_out_after_the_edge_timeout():
    with small_edge(timeout=0.5) as edge:
        with open_socket(edge) as sock:
            status, _, _ = raw_exchange(sock, b"GET /v1/healthz HTTP/1.1\r\n\r\n")
            assert status == 200
            started = time.perf_counter()
            assert sock.recv(1) == b""
            assert time.perf_counter() - started < 2.0
    edge.server.shutdown()


def test_connections_the_edge_ends_log_no_cancelled_error(caplog):
    """A connection past ``timeout`` and one idle at ``stop()`` both end
    without asyncio logging an "Exception in callback" traceback."""
    caplog.set_level(logging.DEBUG, logger="asyncio")
    edge = small_edge(timeout=0.3)
    edge.start()
    try:
        with open_socket(edge) as timed_out:
            assert raw_exchange(timed_out, b"GET /v1/healthz HTTP/1.1\r\n\r\n")[0] == 200
            assert timed_out.recv(1) == b""  # the deadline closed it
        with open_socket(edge) as idle:
            assert raw_exchange(idle, b"GET /v1/healthz HTTP/1.1\r\n\r\n")[0] == 200
            edge.stop()
            assert idle.recv(1) == b""
    finally:
        edge.server.shutdown()
    logged = [record.getMessage() for record in caplog.records]
    assert not [line for line in logged if "Exception in callback" in line], logged


# ---------------------------------------------------------------------------
# The request parser: the stdlib server's limits and HTTP/1.0, 100-continue
# ---------------------------------------------------------------------------


def refused_and_closed(sock, request: bytes) -> tuple[int, dict]:
    """Send a request the edge refuses; it must answer and hang up."""
    status, headers, payload = raw_exchange(sock, request)
    assert headers["connection"] == "close"
    assert sock.recv(1) == b""
    return status, json.loads(payload)


def test_malformed_request_line_is_400_and_closes(edge):
    with open_socket(edge) as sock:
        status, body = refused_and_closed(sock, b"GET /v1/healthz\r\n\r\n")
    assert status == 400 and body["error"] == "bad_request"


def test_request_line_over_64_kib_is_414_and_closes(edge):
    path = b"/v1/healthz?" + b"a" * 65536
    with open_socket(edge) as sock:
        status, body = refused_and_closed(sock, b"GET " + path + b" HTTP/1.1\r\n\r\n")
    assert status == 414 and body["error"] == "uri_too_long"


def test_header_line_over_64_kib_is_431_and_closes(edge):
    with open_socket(edge) as sock:
        status, body = refused_and_closed(
            sock, b"GET /v1/healthz HTTP/1.1\r\nX-Big: " + b"a" * 65536 + b"\r\n\r\n"
        )
    assert status == 431 and body["error"] == "headers_too_large"


def test_more_than_100_headers_is_431_and_closes(edge):
    head = b"".join(b"X-H%d: 1\r\n" % i for i in range(101))
    with open_socket(edge) as sock:
        status, body = refused_and_closed(
            sock, b"GET /v1/healthz HTTP/1.1\r\n" + head + b"\r\n"
        )
    assert status == 431 and body["error"] == "headers_too_large"


def test_100_headers_are_served(edge):
    head = b"".join(b"X-H%d: 1\r\n" % i for i in range(100))
    with open_socket(edge) as sock:
        status, _, _ = raw_exchange(sock, b"GET /v1/healthz HTTP/1.1\r\n" + head + b"\r\n")
    assert status == 200


def test_http_1_0_without_keep_alive_closes_after_its_response(edge):
    with open_socket(edge) as sock:
        status, _, payload = raw_exchange(sock, b"GET /v1/healthz HTTP/1.0\r\n\r\n")
        assert status == 200 and json.loads(payload)["status"] == "ok"
        assert sock.recv(1) == b""


def test_http_1_0_with_keep_alive_stays_open(edge):
    request = b"GET /v1/healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
    with open_socket(edge) as sock:
        assert raw_exchange(sock, request)[0] == 200
        assert raw_exchange(sock, request)[0] == 200


def test_expect_100_continue_is_answered_before_the_body_is_sent(edge):
    body = json.dumps({"session_id": "ghost", "query_name": "west"}).encode()
    with open_socket(edge) as sock:
        sock.sendall(
            b"POST /v1/downgrades HTTP/1.1\r\nHost: edge\r\n"
            b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n" % len(body)
        )
        reader = sock.makefile("rb")
        assert reader.readline().split()[1] == b"100"
        assert reader.readline() == b"\r\n"
        status, _, payload = raw_exchange(sock, body)
    assert status == 200 and json.loads(payload)["authorized"] is False


def test_unrouted_method_is_501_and_closes(edge):
    with open_socket(edge) as sock:
        status, body = refused_and_closed(sock, b"PUT /v1/healthz HTTP/1.1\r\n\r\n")
    assert status == 501 and body["error"] == "not_implemented"


def on_loop(edge, work):
    """Run a coroutine (or a plain call) on the edge's loop; its result."""
    if not asyncio.iscoroutine(work):
        call = work

        async def wrapped():
            return call()

        work = wrapped()
    return asyncio.run_coroutine_threadsafe(work, edge._loop).result(30)


def serving_edge() -> HttpEdge:
    """A started edge with query ``west`` and session ``s`` in place."""
    edge = small_edge()
    edge.start()
    server = edge.server
    on_loop(edge, server.register_query(CompileRequest("west", "x <= 99", SPEC)))
    on_loop(edge, lambda: server.open_session("s", (SPEC, (10, 10))))
    return edge


DOWNGRADE = json.dumps({"session_id": "s", "query_name": "west"}).encode()


def test_a_downgrade_in_flight_at_stop_still_gets_its_answer():
    edge = serving_edge()
    lock = edge.server._flush_lock
    try:
        # Hold the flush lock: the downgrade is queued, not yet served.
        on_loop(edge, lock.acquire())
        with open_socket(edge) as sock:
            sock.sendall(
                b"POST /v1/downgrades HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                % (len(DOWNGRADE), DOWNGRADE)
            )
            deadline = time.monotonic() + 5
            while not on_loop(edge, lambda: lock._waiters):
                assert time.monotonic() < deadline, "the downgrade never queued"
                time.sleep(0.01)
            edge._loop.call_soon_threadsafe(edge._loop.call_later, 0.2, lock.release)
            edge.stop()
            status, headers, payload = raw_exchange(sock, b"")
            assert status == 200 and json.loads(payload)["authorized"]
            assert headers["connection"] == "close"
            assert sock.recv(1) == b""
    finally:
        edge.server.shutdown()


# ---------------------------------------------------------------------------
# One thread serves a request
# ---------------------------------------------------------------------------


def test_a_started_edge_owns_one_thread_and_serves_batches_on_it():
    before = set(threading.enumerate())
    edge = serving_edge()
    server = edge.server
    serving_threads = []
    real_serve_batch = server.core.serve_batch

    def recording(query_name, session_ids, traces=None):
        serving_threads.append(threading.current_thread())
        return real_serve_batch(query_name, session_ids, traces)

    server.core.serve_batch = recording
    conns = [http.client.HTTPConnection(*edge.address, timeout=30) for _ in range(2)]
    try:
        for conn in conns:
            conn.request("POST", "/v1/downgrades", DOWNGRADE)
            assert conn.getresponse().read()
        assert set(threading.enumerate()) - before == {edge._loop_thread}
    finally:
        for conn in conns:
            conn.close()
        edge.stop()
        server.shutdown()
    assert len(serving_threads) == 2
    assert set(serving_threads) == {edge._loop_thread}
