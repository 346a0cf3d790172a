#!/usr/bin/env python3
"""Exactly-once over HTTP: the journaled edge, retries, and replay.

A real client talks to the serving runtime over HTTP and *will* retry:
timeouts, flaky proxies, duplicated deliveries.  This walkthrough runs
the full loop the journal was built for:

1. a journaled gateway behind the stdlib :class:`HttpEdge` — every
   state-changing request executes and is then written to the journal
   in one transaction, with the ledger bounds it charged, and every
   request of the walkthrough rides one persistent HTTP/1.1 connection;
2. a downgrade sent with an ``Idempotency-Key``, then *re-sent* with the
   same key — the duplicate is answered byte-identically from the
   journal and the privacy budget is not charged twice;
3. a second query refused by the budget floor — a refusal is a
   journaled decision, not a transport error (HTTP 200);
4. the observability surface: a structured JSON access log stamping
   each request with the trace id the gateway bound to its idempotency
   key, a ``/metrics`` scrape of the Prometheus exposition, and
   ``/statusz`` runtime introspection;
5. :func:`replay_journal` re-executing the recorded history against a
   fresh twin and confirming every decision, refusal, audit digest —
   and every trace tree — comes out bit-identical.

Run:  python examples/http_edge.py
"""

import http.client
import json

from repro import DeclassificationServer, SecretSpec, ServerConfig, size_above
from repro.core.plugin import CompileOptions
from repro.lang.canonical import spec_to_json
from repro.server.edge import HttpEdge
from repro.server.journal import RequestJournal
from repro.server.replay import replay_journal
from repro.server.store import SQLiteStore

SPEC = SecretSpec.declare("EdgeLoc", x=(0, 199), y=(0, 199))

#: Alice is at (30, 40); "west" keeps 20,000 locations possible, but
#: folding "south" on top would leave 10,000 — below the 15,000 floor.
QUERIES = [("west", "x <= 99"), ("south", "y <= 99")]


def request(conn, method, path, body=None, key=None):
    """One request on the persistent connection; returns (status, raw body)."""
    headers = {"Content-Type": "application/json"}
    if key is not None:
        headers["Idempotency-Key"] = key
    data = None if body is None else json.dumps(body).encode()
    conn.request(method, path, body=data, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def call(conn, method, path, body=None, key=None):
    """One JSON request against the edge; returns (status, decoded body)."""
    status, raw = request(conn, method, path, body, key)
    return status, json.loads(raw)


def scrape(conn, path):
    """One plain-text GET (``/metrics`` serves text, not JSON)."""
    return request(conn, "GET", path)[1].decode("utf-8")


def main() -> None:
    # No durable store needed here: an in-memory SQLite journal.
    journal = RequestJournal(SQLiteStore(":memory:"))
    server = DeclassificationServer(
        size_above(100),
        budget_floor=size_above(15_000),
        options=CompileOptions(domain="interval", modes=("under", "over")),
        config=ServerConfig(inline_compiles=True),
        journal=journal,
    )
    access_lines: list[str] = []

    with HttpEdge(server, access_log=access_lines.append) as edge:
        conn = http.client.HTTPConnection(*edge.address, timeout=30)
        for name, text in QUERIES:
            status, receipt = call(
                conn,
                "POST",
                "/v1/queries",
                {"name": name, "query": text, "secret": spec_to_json(SPEC)},
            )
            assert status == 200 and receipt["verified"], receipt
            print(f"compiled {name!r:<8} verified={receipt['verified']}")
        sock = conn.sock  # HTTP/1.1 keep-alive: every later request reuses it

        status, opened = call(
            conn,
            "POST",
            "/v1/sessions",
            {
                "session_id": "conn-1",
                "user_id": "alice",
                "secret": {"spec": spec_to_json(SPEC), "value": [30, 40]},
            },
        )
        assert status == 201, opened
        print(f"\nopened session {opened['session_id']!r} for alice")

        status, first = call(
            conn,
            "POST",
            "/v1/downgrades",
            {"session_id": "conn-1", "query_name": "west"},
            key="alice/west/1",
        )
        assert status == 200 and first["authorized"], first
        remaining = server.ledger.remaining("alice", SPEC)
        print(f"downgrade west: response={first['response']} "
              f"budget left={remaining:,}")

        # The client times out and retries with the same Idempotency-Key.
        # The journal answers; nothing re-executes, nothing is re-charged.
        status, retried = call(
            conn,
            "POST",
            "/v1/downgrades",
            {"session_id": "conn-1", "query_name": "west"},
            key="alice/west/1",
        )
        assert status == 200 and retried == first
        assert server.ledger.remaining("alice", SPEC) == remaining
        assert server.stats.journal_duplicates >= 1
        print(f"retry with same key: byte-identical answer, "
              f"budget still {remaining:,} "
              f"(journal duplicates: {server.stats.journal_duplicates})")

        # Composition is what exhausts the budget: "south" alone is fine,
        # but folded onto "west" it would corner alice below the floor.
        # The refusal is a journaled *decision* — HTTP 200, not an error.
        status, refused = call(
            conn,
            "POST",
            "/v1/downgrades",
            {"session_id": "conn-1", "query_name": "south"},
            key="alice/south/1",
        )
        assert status == 200 and not refused["authorized"]
        assert "budget exhausted" in refused["reason"]
        print(f"downgrade south: refused ({refused['reason']})")

        status, audit = call(conn, "GET", "/v1/audit")
        assert status == 200
        print(f"audit over HTTP: {audit['journal']['entries']} journal "
              f"entries, {audit['journal']['duplicates']} duplicates")

        # Scrape the telemetry the run just produced.  /metrics is the
        # Prometheus exposition; /statusz the structured twin; the
        # access log already captured one JSON line per request above.
        exposition = scrape(conn, "/metrics")
        refusal_lines = [
            line for line in exposition.splitlines()
            if line.startswith("anosy_ledger_refusals_total")
        ]
        assert refusal_lines, exposition
        print("\n/metrics (refusals):", *refusal_lines, sep="\n  ")

        status, statusz = call(conn, "GET", "/statusz")
        assert status == 200 and not statusz["journal"]["stopped"]
        print(f"/statusz: {statusz['stats']['downgrades_served']} served, "
              f"{statusz['journal']['duplicates']} journal duplicates, "
              f"{statusz['traces']['retained']} traces retained")

        refused_log = next(  # the "south" refusal's log line
            record
            for record in map(json.loads, access_lines)
            if record["idempotency_key"] == "alice/south/1"
        )
        assert refused_log["trace_id"] is not None
        print(f"access log: {refused_log['method']} {refused_log['route']} "
              f"{refused_log['status']} {refused_log['ms']}ms "
              f"trace={refused_log['trace_id']}")

        assert sock is not None and conn.sock is sock
        print("keep-alive: every request above rode one connection")
        conn.close()

    # The edge is down; the journal is the record.  Replay it against a
    # fresh twin and require bit-identical decisions — including the
    # trace trees, whose ids derive from (idempotency key, journal seq)
    # — the same check the CI `replay` job runs on crash histories.
    report = replay_journal(journal, trace_digest=server.hub.tracer.digest())
    assert report.conforms, report.divergences
    assert [r.query_name for r in report.refusals] == ["south"]
    assert report.replayed_trace_digest == report.recorded_trace_digest
    print(f"\nreplay: {report.replayed} entries re-executed, "
          f"{report.matched} matched, refusals={[r.query_name for r in report.refusals]}, "
          f"traces bit-identical={report.replayed_trace_digest == report.recorded_trace_digest}, "
          f"conforms={report.conforms}")


if __name__ == "__main__":
    main()
