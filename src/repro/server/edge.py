"""A minimal stdlib HTTP edge in front of the serving gateway.

The gateway (:class:`~repro.server.gateway.DeclassificationServer`) is
an asyncio object; real clients speak HTTP.  :class:`HttpEdge` serves
HTTP/1.1 with :func:`asyncio.start_server` on the gateway's own event
loop, in one dedicated thread: each connection is a task on that loop,
and a request calls the gateway directly (``await server.downgrade(...)``
for downgrades, plain calls for the lifecycle and read routes).  No
request crosses a thread, and the gateway's single-loop concurrency
assumptions (tick batching, in-flight coalescing) hold by construction.

The edge holds **zero domain rules**.  It decodes JSON with the codecs
in :mod:`repro.service.serialize` / :mod:`repro.lang.canonical`, passes
the ``Idempotency-Key`` header straight through to the journal layer,
and maps the runtime's typed failures onto transport semantics:

========================================  =====================================
condition                                 response
========================================  =====================================
:class:`ServerDegraded`                   ``503`` + ``Retry-After`` header
:class:`ServerOverloaded` / shard shed    ``503``
:class:`JournalStopped`                   ``503`` until a successor recovers
:class:`ShardFailure` (typed kinds)       ``502`` + ``exc.to_payload()`` body
``ValueError`` (malformed input)          ``400``
invalid query (lex/parse/validation)      ``400``, never journaled
``KeyError`` (unknown name/session)       ``404``
anything else                             ``500``
========================================  =====================================

Every error body is structured — ``{"error": ..., "detail": ...}`` —
so retrying clients never parse prose.

Connections are persistent (HTTP/1.1 keep-alive, ``TCP_NODELAY``, each
response written in one piece), so a client asking one question after
another pays one connect, not one per request.  Framing is strict
because a byte left unread would be parsed as the next request: every
request's body is read in full before routing (404s and errors
included); a ``Content-Length`` that is not a non-negative integer gets
``400`` and ``Transfer-Encoding`` gets ``411``.  The request head keeps
the stdlib server's limits: a request line over 64 KiB gets ``414``; a
header line over 64 KiB, or more than 100 header lines, gets ``431``; a
malformed request line gets ``400``, and a method the edge does not
route gets ``501``.  All of these close the connection, as does an
HTTP/1.0 request without ``Connection: keep-alive``.  ``Expect:
100-continue`` gets an interim ``100 Continue`` before the body is
read.  Routes match the path without its query string.  A connection
closes when a request does not arrive in full within the edge's
``timeout``, and so an idle one closes after it.

Routes (all JSON)::

    POST   /v1/queries     {name, query, secret, options?}  -> compile receipt
    POST   /v1/sessions    {session_id, secret{spec,value}, user_id?} -> 201
    DELETE /v1/sessions/X                                   -> close summary
    POST   /v1/downgrades  {session_id, query_name}         -> downgrade result
    POST   /v1/epochs      {epochs?}                        -> {"epoch": n}
    GET    /v1/audit                                        -> audit summary
    GET    /v1/healthz      -> {"status", "degraded_fraction", "breakers_open"}
    GET    /statusz         -> gateway runtime introspection (JSON)
    GET    /metrics         -> Prometheus text exposition (text/plain)

Observability: the edge records ``anosy_edge_requests_total`` and
``anosy_edge_request_seconds`` into the gateway's hub, and an opt-in
structured access log (``access_log=True`` for stderr, or any
``Callable[[str], None]``) emits one JSON line per request — method,
route, status, latency, idempotency key, and the trace id the gateway
bound to that key.  The access log runs on the event loop, so a
callable passed there must be cheap.

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
from email.utils import formatdate
from http import HTTPStatus
from typing import Any, Callable, Coroutine

from repro.lang.canonical import spec_from_json
from repro.lang.lexer import LexError
from repro.lang.parser import ParseError
from repro.lang.validate import QueryValidationError
from repro.monad.protected import ProtectedSecret
from repro.obs.metrics import LazySeries
from repro.server.gateway import (
    DeclassificationServer,
    JournalStopped,
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

#: The stdlib server's limits on a request head: the longest request or
#: header line (with its line ending), and the most header lines.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_METHODS = frozenset({"GET", "POST", "DELETE"})
_CLOSE = {"Connection": "close"}
_REASONS = {status.value: status.phrase for status in HTTPStatus}


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


def _head_error(status: int, error: str, detail: str) -> _EdgeError:
    """A refusal of the request head itself; it always closes."""
    return _EdgeError(status, {"error": error, "detail": detail}, _CLOSE)


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
    if isinstance(exc, JournalStopped):
        return _EdgeError(503, {"error": "journal_stopped", "detail": str(exc)})
    if isinstance(exc, ShardFailure):
        return _EdgeError(502, {"error": "shard_failure", **exc.to_payload()})
    if isinstance(exc, (ValueError, LexError, ParseError, QueryValidationError)):
        return _EdgeError(400, {"error": "bad_request", "detail": str(exc)})
    if isinstance(exc, KeyError):
        return _EdgeError(404, {"error": "not_found", "detail": str(exc)})
    return _EdgeError(500, {"error": "internal", "detail": str(exc)})


class _Request:
    """One parsed request head."""

    __slots__ = ("method", "path", "headers", "keep_alive", "expects_continue")

    def __init__(
        self,
        method: str,
        path: str,
        headers: dict[str, list[str]],
        keep_alive: bool,
        expects_continue: bool,
    ):
        self.method = method
        self.path = path
        #: Lower-cased header name → its values, in arrival order.
        self.headers = headers
        self.keep_alive = keep_alive
        #: An HTTP/1.1 client waiting for ``100 Continue`` before its body.
        self.expects_continue = expects_continue

    def header(self, name: str) -> str | None:
        """The first value of header *name* (lower case), if sent."""
        values = self.headers.get(name)
        return values[0] if values else None


async def _read_line(
    reader: asyncio.StreamReader, too_long: tuple[int, str, str]
) -> bytes:
    """One head line, refused with *too_long* past the stdlib's limit."""
    try:
        line = await reader.readline()
    except ValueError:  # the stream's limit: no line ending in sight
        raise _head_error(*too_long) from None
    if len(line) > _MAX_LINE:
        raise _head_error(*too_long)
    return line


async def _read_head(reader: asyncio.StreamReader) -> _Request | None:
    """Parse one request line and its headers (``None``: the client left)."""
    line = await _read_line(reader, (414, "uri_too_long", "request line over 64 KiB"))
    words = line.decode("latin-1").split()
    if not words:
        return None  # end of stream, or a blank line: close quietly
    version = words[-1][5:].split(".") if words[-1].startswith("HTTP/") else []
    if len(words) != 3 or len(version) != 2 or not all(
        part.isascii() and part.isdigit() for part in version
    ):
        raise _head_error(400, "bad_request", f"bad request line {line[:80]!r}")
    if int(version[0]) != 1:
        raise _head_error(505, "version_not_supported", f"{words[2]} is not HTTP/1.x")
    headers: dict[str, list[str]] = {}
    too_large = (431, "headers_too_large", "header line over 64 KiB")
    count = 0
    while (line := await _read_line(reader, too_large)) not in (b"\r\n", b"\n"):
        if not line:
            return None  # the client left mid-head
        count += 1
        if count > _MAX_HEADERS:
            raise _head_error(
                431, "headers_too_large", f"more than {_MAX_HEADERS} headers"
            )
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or name != name.strip():
            raise _head_error(400, "bad_request", f"bad header line {line[:80]!r}")
        headers.setdefault(name.lower(), []).append(value.strip())
    tokens = {
        token.strip().lower()
        for value in headers.get("connection", ())
        for token in value.split(",")
    }
    http11 = int(version[1]) >= 1
    request = _Request(
        words[0],
        words[1],
        headers,
        keep_alive="close" not in tokens and (http11 or "keep-alive" in tokens),
        expects_continue=http11
        and any(value.lower() == "100-continue" for value in headers.get("expect", ())),
    )
    if request.method not in _METHODS:
        raise _head_error(
            501, "not_implemented", f"unsupported method {request.method!r}"
        )
    return request


def _body_length(request: _Request) -> int:
    """The request's trusted ``Content-Length`` (``0`` when absent).

    On a persistent connection an unread byte would be parsed as the
    next request, so a body whose length cannot be trusted is refused
    and its connection closed.
    """
    if "transfer-encoding" in request.headers:
        raise _EdgeError(
            411, {"error": "length_required", "detail": "send Content-Length"}, _CLOSE
        )
    lengths = set(request.headers.get("content-length", ["0"]))
    value = lengths.pop()
    if lengths or not (value.isascii() and value.isdigit()):
        raise _EdgeError(
            400, {"error": "bad_request", "detail": "invalid Content-Length"}, _CLOSE
        )
    return int(value)


def _response(
    status: int, body: dict[str, Any] | str, headers: dict[str, str], close: bool
) -> bytes:
    """Status line, headers and body, to be sent in one write."""
    if isinstance(body, str):
        payload = body.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        payload = json.dumps(body).encode("utf-8")
        content_type = "application/json"
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, '')}",
        f"Date: {formatdate(usegmt=True)}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
    ]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    if close and "Connection" not in headers:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload


class HttpEdge:
    """Serve one gateway over HTTP; owns the gateway's event loop.

    The edge starts exactly one thread, which runs the gateway's event
    loop; the listener and every connection are tasks on that loop.
    ``port=0`` binds an ephemeral port — read :attr:`address`.  Use as a
    context manager in tests::

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
        self._sock = socket.create_server((host, port))
        self._address: tuple[str, int] = self._sock.getsockname()[:2]
        self._listener: asyncio.AbstractServer | None = None
        #: Live connection tasks → their writers; the idle subset is
        #: waiting for a request head.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._idle: set[asyncio.Task] = set()
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the edge is bound to."""
        return self._address

    def start(self) -> None:
        """Start the loop thread; the gateway and listener start on it."""
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="edge-gateway-loop", daemon=True
        )
        self._loop_thread.start()
        self._on_loop(self._open())

    def stop(self) -> None:
        """Stop accepting, answer the requests in flight, close every
        connection, run the gateway's final flush, and join the loop
        thread."""
        if self._loop_thread is None:
            self._sock.close()
            return
        self._on_loop(self._close_connections())
        self._on_loop(asyncio.wait_for(self.server.stop(), self.timeout))
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._loop_thread.join(self.timeout)
        self._loop.close()

    def __enter__(self) -> "HttpEdge":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- the loop thread ---------------------------------------------------
    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def _on_loop(self, coro: Coroutine[Any, Any, Any]) -> Any:
        """Run one coroutine on the loop from the caller's thread.

        Every coroutine passed here bounds its own running time.
        """
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    async def _open(self) -> None:
        await self.server.start()
        self._listener = await asyncio.start_server(
            self._serve_connection, sock=self._sock, limit=_MAX_LINE
        )

    async def _close_connections(self) -> None:
        """End every connection: idle ones now, busy ones once answered
        (or after ``timeout``)."""
        self._stopping = True
        assert self._listener is not None
        self._listener.close()
        for task in self._idle:
            task.cancel()
        if self._connections:
            _done, late = await asyncio.wait(
                list(self._connections), timeout=self.timeout
            )
            for task in late:
                self._connections[task].transport.abort()
                task.cancel()
        await asyncio.sleep(0)  # let the transports' connection_lost run

    # -- connections -------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve requests on one connection until it closes.

        Each request must arrive in full within ``timeout`` of the edge
        starting to wait for it; otherwise the deadline cancels this
        task, which closes the connection (so does :meth:`stop`, for an
        idle connection).  Either cancel ends the task normally: a
        cancelled connection task would make Python 3.11's stream
        protocol log its ``CancelledError`` as an error.
        """
        # asyncio sets TCP_NODELAY on every TCP transport it creates.
        task = asyncio.current_task()
        assert task is not None
        self._connections[task] = writer
        loop = asyncio.get_running_loop()
        expired = False

        def expire() -> None:
            nonlocal expired
            expired = True
            task.cancel()

        try:
            while not self._stopping:
                deadline = loop.call_later(self.timeout, expire)
                self._idle.add(task)
                try:
                    request = await _read_head(reader)
                    self._idle.discard(task)
                    if request is None:
                        break
                    started = time.perf_counter()
                    raw = await self._read_body(request, reader, writer)
                except _EdgeError as exc:  # the head itself was refused
                    writer.write(_response(exc.status, exc.body, exc.headers, True))
                    await writer.drain()
                    break
                finally:
                    deadline.cancel()
                    self._idle.discard(task)
                status, body, headers = await self._answer(request, raw)
                close = (
                    not request.keep_alive or self._stopping or "Connection" in headers
                )
                writer.write(_response(status, body, headers, close))
                self._observe_request(
                    request, status, time.perf_counter() - started
                )
                await writer.drain()
                if close:
                    break
        except OSError:
            pass  # the client went away
        except asyncio.CancelledError:
            if not (expired or self._stopping):
                raise
        finally:
            del self._connections[task]
            try:
                if writer.can_write_eof():
                    writer.write_eof()
            except (OSError, RuntimeError):
                pass  # already closed
            writer.close()

    async def _read_body(
        self,
        request: _Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bytes | _EdgeError:
        """The request body, read in full before routing, or the framing
        error to answer instead."""
        try:
            length = _body_length(request)
        except _EdgeError as exc:
            return exc
        if request.expects_continue:
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        try:
            return await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            return _EdgeError(
                400, {"error": "bad_request", "detail": "truncated body"}, _CLOSE
            )

    async def _answer(
        self, request: _Request, raw: bytes | _EdgeError
    ) -> tuple[int, dict[str, Any] | str, dict[str, str]]:
        """Route one request; every failure becomes a structured answer."""
        try:
            if isinstance(raw, _EdgeError):
                raise raw
            return await self._route(request, raw)
        except _EdgeError as exc:
            return exc.status, exc.body, exc.headers
        except Exception as exc:  # noqa: BLE001 - mapped, never propagated
            err = _to_edge_error(exc)
            return err.status, err.body, err.headers

    # -- edge observability ------------------------------------------------
    def _observe_request(self, request: _Request, status: int, elapsed: float) -> None:
        """Record one finished request: metric series + access-log line."""
        route = self._route_label(request.path)
        hub = self.server.hub
        registry = hub.registry
        if registry:
            _REQUESTS_TOTAL(registry, request.method, route, str(status)).inc()
            _REQUEST_SECONDS(registry, route).observe(elapsed)
        if self._access_log is not None:
            key = request.header("idempotency-key")
            self._access_log(
                json.dumps(
                    {
                        "ts": time.time(),
                        "method": request.method,
                        "route": route,
                        "path": request.path,
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
        """Liveness plus the signals that mean 'alive but hurting'
        (``status``: ``stopped`` journal, ``degraded`` shards, or ``ok``)."""
        server = self.server
        fraction = server.degraded_fraction()
        breakers_open = sum(
            1
            for shards in server.supervisor.describe_breakers().values()
            for info in shards.values()
            if info["state"] == "open"
        )
        status = "degraded" if fraction > 0.0 else "ok"
        return {
            "status": "stopped" if server.journal_failure is not None else status,
            "degraded_fraction": fraction,
            "breakers_open": breakers_open,
        }

    async def _route(
        self, request: _Request, raw: bytes
    ) -> tuple[int, dict[str, Any] | str, dict[str, str]]:
        method = request.method
        path = _route_path(request.path)
        key = request.header("idempotency-key")
        if method == "GET" and path == "/v1/healthz":
            return 200, self._healthz_body(), {}
        if method == "GET" and path == "/metrics":
            return 200, self.server.metrics_text(), {}
        if method == "GET" and path == "/statusz":
            return 200, self.server.statusz(), {}
        if method == "GET" and path == "/v1/audit":
            return 200, self.server.audit_summary(), {}
        if method == "POST" and path == "/v1/queries":
            body = _json_object(raw)
            compile_request = CompileRequest(
                name=str(_require(body, "name")),
                query=str(_require(body, "query")),
                secret=spec_from_json(_require(body, "secret")),
                options=(
                    None
                    if body.get("options") is None
                    else options_from_json(body["options"])
                ),
            )
            receipt = await self.server.register_query(
                compile_request, idempotency_key=key
            )
            return 200, receipt.to_json(), {}
        if method == "POST" and path == "/v1/sessions":
            body = _json_object(raw)
            sealed = _require(body, "secret")
            secret = ProtectedSecret.seal(
                spec_from_json(_require(sealed, "spec")),
                tuple(_require(sealed, "value")),
            )
            session = self.server.open_session(
                str(_require(body, "session_id")),
                secret,
                user_id=body.get("user_id"),
                idempotency_key=key,
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
            session = self.server.close_session(session_id, idempotency_key=key)
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
            result = await self.server.downgrade(
                str(_require(body, "session_id")),
                str(_require(body, "query_name")),
                idempotency_key=key,
            )
            return 200, downgrade_result_to_json(result), {}
        if method == "POST" and path == "/v1/epochs":
            body = _json_object(raw)
            epoch = self.server.advance_epoch(
                int(body.get("epochs", 1)), idempotency_key=key
            )
            return 200, {"epoch": epoch}, {}
        raise _EdgeError(
            404, {"error": "not_found", "detail": f"no route {method} {path}"}
        )
