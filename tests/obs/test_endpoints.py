"""The edge's observability surface: /metrics, /statusz, access log.

Boots a journaled gateway behind an :class:`HttpEdge`, drives real
traffic over HTTP, then scrapes ``/metrics`` (validated with the small
parser in tests/obs/prom.py — the same check the CI ``metrics`` job
runs), reads ``/statusz``, and checks the structured access log stamps
each line with the trace id the gateway bound to its idempotency key.
"""

import json
import urllib.request

import pytest
from prom import parse_exposition

from repro.core.plugin import CompileOptions
from repro.lang.canonical import spec_to_json
from repro.lang.secrets import SecretSpec
from repro.monad.policy import size_above
from repro.server.edge import HttpEdge
from repro.server.gateway import DeclassificationServer, ServerConfig
from repro.server.journal import RequestJournal
from repro.server.store import SQLiteStore

SPEC = SecretSpec.declare("ObsLoc", x=(0, 199), y=(0, 199))
OPTIONS = CompileOptions(domain="interval", modes=("under", "over"))


@pytest.fixture(scope="module")
def stack():
    """One edge + its gateway + the captured access-log lines."""
    lines: list[str] = []
    server = DeclassificationServer(
        size_above(100),
        options=OPTIONS,
        budget_floor=size_above(4000),
        config=ServerConfig(inline_compiles=True),
        journal=RequestJournal(SQLiteStore(":memory:")),
    )
    with HttpEdge(server, access_log=lines.append) as edge:
        yield edge, server, lines


def call(edge, method, path, body=None, key=None):
    host, port = edge.address
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        f"http://{host}:{port}{path}", data=data, method=method
    )
    request.add_header("Content-Type", "application/json")
    if key is not None:
        request.add_header("Idempotency-Key", key)
    with urllib.request.urlopen(request, timeout=30) as response:
        raw = response.read()
        kind = response.headers.get("Content-Type", "")
        return (
            response.status,
            json.loads(raw) if kind.startswith("application/json") else raw,
            kind,
        )


@pytest.fixture(scope="module")
def traffic(stack):
    """Drive one full lifecycle through the edge; return the edge."""
    edge, _, _ = stack
    status, _, _ = call(
        edge,
        "POST",
        "/v1/queries",
        {"name": "west", "query": "x <= 99", "secret": spec_to_json(SPEC)},
        key="compile/west",
    )
    assert status == 200
    status, _, _ = call(
        edge,
        "POST",
        "/v1/sessions",
        {
            "session_id": "s1",
            "secret": {"spec": spec_to_json(SPEC), "value": [30, 40]},
            "user_id": "alice",
        },
        key="open/s1",
    )
    assert status == 201
    status, result, _ = call(
        edge,
        "POST",
        "/v1/downgrades",
        {"session_id": "s1", "query_name": "west"},
        key="dg/1",
    )
    assert status == 200 and result["authorized"] is True
    return edge


def test_metrics_scrape_is_valid_exposition(stack, traffic):
    edge = traffic
    status, raw, kind = call(edge, "GET", "/metrics")
    assert status == 200
    assert kind.startswith("text/plain")
    families = parse_exposition(raw.decode("utf-8"))
    # Series from every layer the tentpole threads through.
    assert ("anosy_gateway_compiles_total", frozenset({("outcome", "compiled")})) in families[
        "anosy_gateway_compiles_total"
    ].samples
    downgrades = families["anosy_gateway_downgrades_total"].samples
    assert downgrades[
        ("anosy_gateway_downgrades_total", frozenset({("kind", "ok")}))
    ] >= 1
    assert families["anosy_serve_path_total"].kind == "counter"
    assert families["anosy_journal_ack_seconds"].kind == "histogram"
    assert families["anosy_gateway_tick_seconds"].kind == "histogram"
    assert families["anosy_sessions_open"].samples[
        ("anosy_sessions_open", frozenset())
    ] == 1
    assert families["anosy_gateway_queue_depth"].kind == "gauge"
    edge_hits = families["anosy_edge_requests_total"].samples
    assert edge_hits[
        (
            "anosy_edge_requests_total",
            frozenset(
                {("method", "POST"), ("route", "/v1/downgrades"), ("status", "200")}
            ),
        )
    ] == 1


def test_statusz_reports_runtime_shape(stack, traffic):
    edge = traffic
    status, body, _ = call(edge, "GET", "/statusz")
    assert status == 200
    assert body["observe"] is True
    assert body["queue_depth"] == 0
    assert body["degraded"]["fraction"] == 0.0
    assert body["journal"]["stopped"] is False
    assert body["journal"]["entries"] >= 3
    assert body["stats"]["downgrades_served"] >= 1
    assert body["traces"]["retained"] >= 1
    assert isinstance(body["breakers"], dict)


def test_healthz_carries_degradation_signals(stack, traffic):
    status, body, _ = call(traffic, "GET", "/v1/healthz")
    assert status == 200
    assert body == {
        "status": "ok",
        "degraded_fraction": 0.0,
        "breakers_open": 0,
    }


def test_access_log_lines_carry_trace_ids(stack, traffic):
    _, server, lines = stack
    records = [json.loads(line) for line in lines]
    downgrade = next(
        r for r in records if r["route"] == "/v1/downgrades"
    )
    assert downgrade["method"] == "POST" and downgrade["status"] == 200
    assert downgrade["ms"] >= 0
    assert downgrade["idempotency_key"] == "dg/1"
    assert downgrade["trace_id"] == server.hub.trace_for_key("dg/1")
    assert downgrade["trace_id"] is not None
    # The trace the log points at is a real recorded tree.
    tree = server.hub.tracer.tree(downgrade["trace_id"])
    assert tree is not None and tree["name"] == "downgrade"
    # Requests without a key log a null trace id, never a fabricated one.
    plain = next(r for r in records if r["route"] == "/metrics")
    assert plain["idempotency_key"] is None
    assert plain["trace_id"] is None


def test_metrics_endpoint_is_empty_when_observation_is_off():
    server = DeclassificationServer(
        size_above(100),
        options=OPTIONS,
        config=ServerConfig(inline_compiles=True, observe=False),
    )
    with HttpEdge(server) as edge:
        status, raw, kind = call(edge, "GET", "/metrics")
        assert status == 200 and raw == b"" and kind.startswith("text/plain")
        status, body, _ = call(edge, "GET", "/statusz")
        assert status == 200 and body["observe"] is False
