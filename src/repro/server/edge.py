"""A minimal stdlib HTTP edge in front of the serving gateway.

The gateway (:class:`~repro.server.gateway.DeclassificationServer`) is
an asyncio object; real clients speak HTTP.  :class:`HttpEdge` bridges
the two with nothing beyond the standard library: a
:class:`http.server.ThreadingHTTPServer` accepts connections on worker
threads, and every request hops onto the gateway's dedicated event-loop
thread via ``asyncio.run_coroutine_threadsafe`` — the gateway's
single-loop concurrency assumptions (tick batching, in-flight
coalescing) stay intact no matter how many HTTP threads are talking.

The edge holds **zero domain rules**.  It decodes JSON with the codecs
in :mod:`repro.service.serialize` / :mod:`repro.lang.canonical`, passes
the ``Idempotency-Key`` header straight through to the journal layer,
and maps the runtime's typed failures onto transport semantics:

========================================  =====================================
condition                                 response
========================================  =====================================
:class:`ServerDegraded`                   ``503`` + ``Retry-After`` header
:class:`ServerOverloaded` / shard shed    ``503``
:class:`ShardFailure` (typed kinds)       ``502`` + ``exc.to_payload()`` body
``ValueError`` (malformed input)          ``400``
invalid query (lex/parse/validation)      ``400``, never journaled
``KeyError`` (unknown name/session)       ``404``
anything else                             ``500``
========================================  =====================================

Every error body is structured — ``{"error": ..., "detail": ...}`` —
so retrying clients never parse prose.

Connections are persistent (HTTP/1.1 keep-alive, ``TCP_NODELAY``), so a
client asking one question after another pays one connect, not one per
request.  Framing is strict because a byte left unread would be parsed
as the next request: every request's body is read in full before
routing (404s and errors included); a ``Content-Length`` that is not a
non-negative integer gets ``400`` and ``Transfer-Encoding`` gets
``411``, and both close the connection.  Routes match the path without
its query string.  Idle connections close after the edge's ``timeout``.

Routes (all JSON)::

    POST   /v1/queries     {name, query, secret, options?}  -> compile receipt
    POST   /v1/sessions    {session_id, secret{spec,value}, user_id?} -> 201
    DELETE /v1/sessions/X                                   -> close summary
    POST   /v1/downgrades  {session_id, query_name}         -> downgrade result
    POST   /v1/epochs      {epochs?}                        -> {"epoch": n}
    GET    /v1/audit                                        -> audit summary
    GET    /v1/healthz      -> {"status", "degraded_fraction", ...}
    GET    /statusz         -> gateway runtime introspection (JSON)
    GET    /metrics         -> Prometheus text exposition (text/plain)

Observability: the edge records ``anosy_edge_requests_total`` and
``anosy_edge_request_seconds`` into the gateway's hub, and an opt-in
structured access log (``access_log=True`` for stderr, or any
``Callable[[str], None]``) emits one JSON line per request — method,
route, status, latency, idempotency key, and the trace id the gateway
bound to that key.

See ``examples/http_edge.py`` for an end-to-end walkthrough and
``docs/OPERATIONS.md`` for the retry discipline journaled deployments
should follow (always send an ``Idempotency-Key``; a retried request is
answered from the journal, never re-charged).
"""

from __future__ import annotations

import asyncio
import json
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Coroutine

from repro.lang.canonical import spec_from_json
from repro.lang.lexer import LexError
from repro.lang.parser import ParseError
from repro.lang.validate import QueryValidationError
from repro.monad.protected import ProtectedSecret
from repro.obs.metrics import LazySeries
from repro.server.gateway import (
    DeclassificationServer,
    ServerDegraded,
    ServerOverloaded,
)
from repro.server.supervise import ShardFailure
from repro.server.workers import ShardOverloaded
from repro.service.api import CompileRequest
from repro.service.serialize import downgrade_result_to_json, options_from_json

__all__ = ["HttpEdge"]

_REQUESTS_TOTAL = LazySeries(
    "counter",
    "anosy_edge_requests_total",
    "HTTP requests served by the edge.",
    labels=("method", "route", "status"),
)
_REQUEST_SECONDS = LazySeries(
    "histogram",
    "anosy_edge_request_seconds",
    "Edge request latency (route-labeled).",
    labels=("route",),
    channel="timing",
)


def _route_path(path: str) -> str:
    """A request path without its query string or trailing slash."""
    return path.split("?", 1)[0].rstrip("/")


def _json_object(raw: bytes) -> dict[str, Any]:
    """Decode a request body as a JSON object (empty body = ``{}``)."""
    if not raw:
        return {}
    try:
        body = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _EdgeError(
            400, {"error": "bad_request", "detail": f"invalid JSON: {exc}"}
        ) from exc
    if not isinstance(body, dict):
        raise _EdgeError(
            400, {"error": "bad_request", "detail": "body must be a JSON object"}
        )
    return body


def _require(body: dict[str, Any], name: str) -> Any:
    """A required request field; missing means a 400, never a 404."""
    try:
        return body[name]
    except (KeyError, TypeError):
        raise _EdgeError(
            400, {"error": "bad_request", "detail": f"missing field {name!r}"}
        ) from None


class _EdgeError(Exception):
    """A transport-level refusal with a fixed status and JSON body."""

    def __init__(self, status: int, body: dict[str, Any], headers: dict | None = None):
        super().__init__(body.get("detail", ""))
        self.status = status
        self.body = body
        self.headers = headers or {}


def _to_edge_error(exc: Exception) -> _EdgeError:
    """Map one runtime failure onto transport semantics (see module doc)."""
    if isinstance(exc, ServerDegraded):
        return _EdgeError(
            503,
            {"error": "degraded", "detail": str(exc), "retry_after": exc.retry_after},
            {"Retry-After": str(max(1, int(exc.retry_after + 0.999)))},
        )
    if isinstance(exc, (ServerOverloaded, ShardOverloaded)):
        return _EdgeError(503, {"error": "overloaded", "detail": str(exc)})
    if isinstance(exc, ShardFailure):
        return _EdgeError(502, {"error": "shard_failure", **exc.to_payload()})
    if isinstance(exc, (ValueError, LexError, ParseError, QueryValidationError)):
        return _EdgeError(400, {"error": "bad_request", "detail": str(exc)})
    if isinstance(exc, KeyError):
        return _EdgeError(404, {"error": "not_found", "detail": str(exc)})
    return _EdgeError(500, {"error": "internal", "detail": str(exc)})


class _EdgeHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server that can close its live connections.

    Each accepted connection is registered with its handler thread
    before that thread starts, so :meth:`close_connections` never
    misses one that is still being set up.
    """

    def __init__(self, address: tuple[str, int], handler: type):
        super().__init__(address, handler)
        self._live: dict[socket.socket, threading.Thread] = {}
        self._live_lock = threading.Lock()

    def process_request(self, request: socket.socket, client_address: Any) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            daemon=True,
        )
        with self._live_lock:
            self._live[request] = thread
        thread.start()

    def shutdown_request(self, request: socket.socket) -> None:
        with self._live_lock:
            self._live.pop(request, None)
        super().shutdown_request(request)

    def close_connections(self, timeout: float) -> None:
        """End every live connection and join its handler thread.

        Shutting down only the read side lets a request in flight still
        write its response; the handler then reads end-of-stream where
        the next request would be, and exits.
        """
        with self._live_lock:
            live = list(self._live.items())
        for request, _thread in live:
            try:
                request.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already closed by its handler
        for _request, thread in live:
            thread.join(timeout)


class HttpEdge:
    """Serve one gateway over HTTP; owns the gateway's event loop.

    The edge starts two kinds of threads: one dedicated loop thread
    running the gateway's asyncio world, and the threading HTTP
    server's workers, one per persistent connection.  ``port=0`` binds
    an ephemeral port — read :attr:`address` after :meth:`start`.  Use
    as a context manager in tests::

        with HttpEdge(server) as edge:
            host, port = edge.address
            ...

    The edge never touches the gateway's store or journal directly; it
    forwards the ``Idempotency-Key`` header and lets the journal layer
    make duplicate deliveries exactly-once.
    """

    def __init__(
        self,
        server: DeclassificationServer,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 30.0,
        access_log: bool | Callable[[str], None] = False,
    ):
        self.server = server
        self.timeout = timeout
        if access_log is True:
            self._access_log: Callable[[str], None] | None = (
                lambda line: print(line, file=sys.stderr, flush=True)
            )
        elif access_log:
            self._access_log = access_log
        else:
            self._access_log = None
        self._loop = asyncio.new_event_loop()
        self._loop_thread: threading.Thread | None = None
        self._httpd = _EdgeHTTPServer((host, port), self._handler_class())
        self._http_thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the edge is bound to."""
        return self._httpd.server_address[:2]

    def start(self) -> None:
        """Start the gateway loop thread and the HTTP acceptor thread."""
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="edge-gateway-loop", daemon=True
        )
        self._loop_thread.start()
        self._submit(self.server.start())
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="edge-http", daemon=True
        )
        self._http_thread.start()

    def stop(self) -> None:
        """Stop accepting, close live connections, flush the gateway, and
        join every thread.  Requests in flight are answered first."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(self.timeout)
        self._httpd.close_connections(self.timeout)
        if self._loop_thread is not None:
            self._submit(self.server.stop())
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._loop_thread.join(self.timeout)
            self._loop.close()

    def __enter__(self) -> "HttpEdge":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- loop bridging -----------------------------------------------------
    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def _submit(self, coro: Coroutine[Any, Any, Any]) -> Any:
        """Run one coroutine on the gateway loop; block for its result.

        Synchronous gateway entry points are wrapped in coroutines and
        submitted too: every touch of gateway state happens on the loop
        thread, exactly as the gateway's concurrency model assumes.
        """
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(self.timeout)

    def _call(self, fn: Callable[[], Any]) -> Any:
        async def wrapped() -> Any:
            return fn()

        return self._submit(wrapped())

    # -- request handling --------------------------------------------------
    def _handler_class(self) -> type:
        edge = self

        class Handler(BaseHTTPRequestHandler):
            # Keep-alive, and no Nagle stall between headers and body.
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True
            # Idle keep-alive connections close after this long.
            timeout = edge.timeout

            # Tests hammer the edge; per-request stderr lines are noise.
            def log_message(self, *args: Any) -> None:
                pass

            def do_GET(self) -> None:
                edge._dispatch(self, "GET")

            def do_POST(self) -> None:
                edge._dispatch(self, "POST")

            def do_DELETE(self) -> None:
                edge._dispatch(self, "DELETE")

        return Handler

    def _dispatch(self, handler: BaseHTTPRequestHandler, method: str) -> None:
        started = time.perf_counter()
        raw = None
        try:
            raw = self._read_body(handler)
            status, body, headers = self._route(handler, method, raw)
        except _EdgeError as exc:
            status, body, headers = exc.status, exc.body, exc.headers
        except Exception as exc:  # noqa: BLE001 - mapped, never propagated
            if raw is None:
                raise  # the body never arrived: the connection is done
            err = _to_edge_error(exc)
            status, body, headers = err.status, err.body, err.headers
        if isinstance(body, str):
            payload = body.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            payload = json.dumps(body).encode("utf-8")
            content_type = "application/json"
        handler.send_response(status)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(payload)))
        for name, value in headers.items():
            handler.send_header(name, value)
        handler.end_headers()
        handler.wfile.write(payload)
        self._observe_request(handler, method, status, time.perf_counter() - started)

    # -- edge observability ------------------------------------------------
    def _observe_request(
        self,
        handler: BaseHTTPRequestHandler,
        method: str,
        status: int,
        elapsed: float,
    ) -> None:
        """Record one finished request: metric series + access-log line.

        Runs on the HTTP worker thread; the hub's registry is
        thread-safe, and the trace lookup only reads the bounded
        key → trace map.
        """
        route = self._route_label(handler.path)
        hub = self.server.hub
        registry = hub.registry
        if registry:
            _REQUESTS_TOTAL(registry, method, route, str(status)).inc()
            _REQUEST_SECONDS(registry, route).observe(elapsed)
        if self._access_log is not None:
            key = handler.headers.get("Idempotency-Key")
            self._access_log(
                json.dumps(
                    {
                        "ts": time.time(),
                        "method": method,
                        "route": route,
                        "path": handler.path,
                        "status": status,
                        "ms": round(elapsed * 1000.0, 3),
                        "idempotency_key": key,
                        "trace_id": hub.trace_for_key(key),
                    },
                    sort_keys=True,
                )
            )

    @staticmethod
    def _route_label(path: str) -> str:
        """Collapse a request path to a bounded-cardinality route label."""
        path = _route_path(path)
        if path.startswith("/v1/sessions/"):
            return "/v1/sessions/{id}"
        known = {
            "/v1/healthz",
            "/v1/audit",
            "/v1/queries",
            "/v1/sessions",
            "/v1/downgrades",
            "/v1/epochs",
            "/metrics",
            "/statusz",
        }
        return path if path in known else "other"

    def _healthz_body(self) -> dict[str, Any]:
        """Liveness plus the three signals that mean 'alive but hurting'."""
        server = self.server
        fraction = server.degraded_fraction()
        breakers_open = sum(
            1
            for shards in server.supervisor.describe_breakers().values()
            for info in shards.values()
            if info["state"] == "open"
        )
        pending = 0 if server.journal is None else server.journal.pending_count()
        return {
            "status": "degraded" if fraction > 0.0 else "ok",
            "degraded_fraction": fraction,
            "breakers_open": breakers_open,
            "journal_pending": pending,
        }

    def _route(
        self, handler: BaseHTTPRequestHandler, method: str, raw: bytes
    ) -> tuple[int, dict[str, Any] | str, dict[str, str]]:
        path = _route_path(handler.path)
        key = handler.headers.get("Idempotency-Key")
        if method == "GET" and path == "/v1/healthz":
            return 200, self._call(self._healthz_body), {}
        if method == "GET" and path == "/metrics":
            return 200, self._call(self.server.metrics_text), {}
        if method == "GET" and path == "/statusz":
            return 200, self._call(self.server.statusz), {}
        if method == "GET" and path == "/v1/audit":
            return 200, self._call(self.server.audit_summary), {}
        if method == "POST" and path == "/v1/queries":
            body = _json_object(raw)
            request = CompileRequest(
                name=str(_require(body, "name")),
                query=str(_require(body, "query")),
                secret=spec_from_json(_require(body, "secret")),
                options=(
                    None
                    if body.get("options") is None
                    else options_from_json(body["options"])
                ),
            )
            receipt = self._submit(
                self.server.register_query(request, idempotency_key=key)
            )
            return 200, receipt.to_json(), {}
        if method == "POST" and path == "/v1/sessions":
            body = _json_object(raw)
            sealed = _require(body, "secret")
            secret = ProtectedSecret.seal(
                spec_from_json(_require(sealed, "spec")),
                tuple(_require(sealed, "value")),
            )
            session = self._call(
                lambda: self.server.open_session(
                    str(_require(body, "session_id")),
                    secret,
                    user_id=body.get("user_id"),
                    idempotency_key=key,
                )
            )
            return (
                201,
                {
                    "session_id": session.session_id,
                    "secret": session.spec.name,
                },
                {},
            )
        if method == "DELETE" and path.startswith("/v1/sessions/"):
            session_id = path.rsplit("/", 1)[-1]
            session = self._call(
                lambda: self.server.close_session(session_id, idempotency_key=key)
            )
            return (
                200,
                {
                    "session_id": session_id,
                    "closed": True,
                    "downgrades": None if session is None else len(session.history),
                },
                {},
            )
        if method == "POST" and path == "/v1/downgrades":
            body = _json_object(raw)
            result = self._submit(
                self.server.downgrade(
                    str(_require(body, "session_id")),
                    str(_require(body, "query_name")),
                    idempotency_key=key,
                )
            )
            return 200, downgrade_result_to_json(result), {}
        if method == "POST" and path == "/v1/epochs":
            body = _json_object(raw)
            epoch = self._call(
                lambda: self.server.advance_epoch(
                    int(body.get("epochs", 1)), idempotency_key=key
                )
            )
            return 200, {"epoch": epoch}, {}
        raise _EdgeError(
            404, {"error": "not_found", "detail": f"no route {method} {path}"}
        )

    @staticmethod
    def _read_body(handler: BaseHTTPRequestHandler) -> bytes:
        """Read the request body in full, before routing.

        On a persistent connection an unread byte would be parsed as
        the next request, so a body whose length cannot be trusted is
        refused and its connection closed.
        """
        close = {"Connection": "close"}
        if handler.headers.get("Transfer-Encoding") is not None:
            raise _EdgeError(
                411,
                {"error": "length_required", "detail": "send Content-Length"},
                close,
            )
        lengths = set(handler.headers.get_all("Content-Length") or ["0"])
        value = lengths.pop().strip()
        if lengths or not (value.isascii() and value.isdigit()):
            raise _EdgeError(
                400,
                {"error": "bad_request", "detail": "invalid Content-Length"},
                close,
            )
        length = int(value)
        raw = handler.rfile.read(length) if length else b""
        if len(raw) != length:
            raise _EdgeError(
                400, {"error": "bad_request", "detail": "truncated body"}, close
            )
        return raw

