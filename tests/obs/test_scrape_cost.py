"""A scrape never reads the whole journal.

``/metrics``, ``/statusz``, ``/v1/audit`` and ``/v1/healthz`` all report
on the journal: its size, its traffic, and whether it stopped.  The size
comes from one ``COUNT`` query on the journal's store and the rest from
counters, so a scrape costs the same on a journal of ten rows as on one
of a million.  The spy below makes any full-journal
read during a scrape a test failure, on a store-less (in-memory) journal
and on one sharing the ledger's store, before and after compaction.
"""

import asyncio
import json
import urllib.request
from concurrent.futures.process import BrokenProcessPool

import pytest
from prom import parse_exposition

from repro.core.plugin import CompileOptions
from repro.lang.secrets import SecretSpec
from repro.monad.policy import size_above
from repro.server import faults
from repro.server.edge import HttpEdge
from repro.server.faults import FaultPlan, FaultSpec
from repro.server.gateway import DeclassificationServer, ServerConfig
from repro.server.journal import RequestJournal
from repro.server.store import SQLiteStore
from repro.service.api import CompileRequest

SPEC = SecretSpec.declare("ScrapeLoc", x=(0, 199), y=(0, 199))
OPTIONS = CompileOptions(domain="interval", modes=("under", "over"))


class EntriesSpy:
    """A journal backend whose full-journal read fails once armed."""

    def __init__(self, inner):
        self.inner = inner
        self.armed = False

    def journal_entries(self):
        if self.armed:
            raise AssertionError("a scrape decoded the whole journal")
        return self.inner.journal_entries()

    def __getattr__(self, name):
        return getattr(self.inner, name)


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
        )


def appends_gauge(exposition):
    families = parse_exposition(exposition)
    return families["anosy_gateway_stat"].samples[
        ("anosy_gateway_stat", frozenset({("stat", "journal_appends")}))
    ]


def scrape(server, edge):
    """The journal counts every scrape surface reports, direct and over HTTP."""
    gauge = appends_gauge(server.metrics_text())
    statusz = server.statusz()["journal"]
    assert server.audit_summary()["journal"] == statusz
    status, raw = call(edge, "GET", "/metrics")
    assert status == 200 and appends_gauge(raw.decode("utf-8")) == gauge
    assert call(edge, "GET", "/statusz")[1]["journal"] == statusz
    assert call(edge, "GET", "/v1/audit")[1]["journal"] == statusz
    status, health = call(edge, "GET", "/v1/healthz")
    assert status == 200
    return {
        "gauge": int(gauge),
        "healthz": health["status"],
        "stopped": statusz["stopped"],
        "entries": statusz["entries"],
    }


async def traffic(server):
    """One served downgrade, then an open that dies before its write.

    The gateway "crashes" between executing the open and writing it, so
    nothing of it is durable and the journal stops.  Driven on the
    caller's loop without a ticker, so the fault fires exactly here.
    """
    await server.register_query(
        CompileRequest(name="west", query="x <= 99", secret=SPEC),
        idempotency_key="compile/west",
    )
    server.open_session("s1", (SPEC, (30, 40)), user_id="alice", idempotency_key="o1")
    result = await server.downgrade("s1", "west", idempotency_key="dg/1")
    assert result.authorized
    faults.install_fault_plan(
        FaultPlan([FaultSpec(site="journal", kind="crash_after_execute_before_ack")]),
        simulate=True,
    )
    try:
        with pytest.raises(BrokenProcessPool):
            server.open_session("s2", (SPEC, (1, 2)), user_id="alice", idempotency_key="o2")
    finally:
        faults.clear_fault_plan()


@pytest.mark.parametrize("backend", ["sqlite", "memory"])
def test_scrapes_count_without_reading_the_journal(backend):
    store = SQLiteStore(":memory:")
    spy = EntriesSpy(store)
    journal = RequestJournal(spy)
    server = DeclassificationServer(
        size_above(100),
        options=OPTIONS,
        budget_floor=size_above(4000),
        config=ServerConfig(inline_compiles=True),
        # "sqlite": the ledger shares the journal's store (the spy).
        store=spy if backend == "sqlite" else None,
        journal=journal,
    )
    asyncio.run(traffic(server))
    with HttpEdge(server) as edge:
        for compact in (False, True):
            spy.armed = False
            if compact:
                assert journal.compact() > 0
            expected_entries = len(journal.entries())
            assert journal.entry("o2") is None
            spy.armed = True
            assert scrape(server, edge) == {
                "gauge": server.stats.journal_appends,
                "healthz": "stopped",
                "stopped": True,
                "entries": expected_entries,
            }
            assert len(journal) == expected_entries
        spy.armed = False
    store.close()
