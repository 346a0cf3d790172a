"""The journal's layout is an output channel too: it must not leak the secret.

A journaled gateway writes one row per request and groups rows into
durable transactions.  Both are observable to whoever can read the store
or time its writes, so the net here runs one seeded schedule of single
downgrades from ⊤ under two secrets and asserts that the journal's
layout is a function of the schedule alone:

* every row matches in sequence number, idempotency key, kind, status
  and payload (the open-session payload's raw ``value`` aside: it *is*
  the secret, stored inside the TCB);
* a downgrade row differs only in the declassified ``response`` and
  ``knowledge_size`` of its recorded result, and so in its digest; every
  other row's digest is identical;
* the flush count is equal, and the store sees the same durable writes
  per tick and per request.

From ⊤ every user's admission is judged on the prior, so nothing the
gateway decides may depend on the secret (``test_secret_independence``
covers the metric and trace channels for the same kind of stream).
"""

import asyncio
import json
import os
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plugin import CompileOptions
from repro.lang.secrets import SecretSpec
from repro.monad.policy import size_above
from repro.server.gateway import DeclassificationServer, ServerConfig
from repro.server.journal import RequestJournal
from repro.server.store import SQLiteStore
from repro.service.api import CompileRequest

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "20220622"))

SPEC = SecretSpec.declare("JournalIndepLoc", x=(0, 199), y=(0, 199))
OPTIONS = CompileOptions(domain="interval", modes=("under", "over"))
QUERIES = (("west", "x <= 99"), ("south", "y <= 99"), ("inner", "x <= 49"))
QUERY_NAMES = tuple(name for name, _ in QUERIES) + ("ghost",)
#: Fields of a recorded downgrade result that carry the declassified answer.
DECLASSIFIED = {"response", "knowledge_size"}

secrets = st.tuples(st.integers(0, 199), st.integers(0, 199))
distinct_secret_pairs = st.tuples(secrets, secrets).filter(
    lambda pair: pair[0] != pair[1]
)


def seeded_schedule(seed):
    """Sequential single downgrades, then one gathered tick, one user each."""
    rng = random.Random(seed)
    sequential = [rng.choice(QUERY_NAMES) for _ in range(5)]
    gathered = [rng.choice(QUERY_NAMES) for _ in range(6)]
    return sequential, gathered


def run_journaled(secret, sequential, gathered):
    """One journaled run; returns its rows, tick count and write layout."""

    async def scenario():
        store = SQLiteStore(":memory:")
        writes = []
        label = ["boot"]
        real_write = store._write_txn

        def spy(fn):
            writes.append((label[0], server.stats.ticks if server else 0))
            return real_write(fn)

        server = None
        store._write_txn = spy
        server = DeclassificationServer(
            size_above(100),
            options=OPTIONS,
            budget_floor=size_above(4000),
            store=store,
            config=ServerConfig(inline_compiles=True),
            journal=RequestJournal(store),
        )
        for name, text in QUERIES:
            label[0] = f"compile/{name}"
            await server.register_query(
                CompileRequest(name, text, SPEC), idempotency_key=f"c/{name}"
            )
        users = len(sequential) + len(gathered)
        for i in range(users):
            label[0] = f"open/s{i}"
            server.open_session(
                f"s{i}", (SPEC, secret), user_id=f"u{i}", idempotency_key=f"o/s{i}"
            )
        for i, query_name in enumerate(sequential):
            label[0] = f"downgrade/s{i}"
            await server.downgrade(f"s{i}", query_name, idempotency_key=f"d/s{i}")
        label[0] = "gathered"
        await asyncio.gather(
            *(
                server.downgrade(
                    f"s{i}", query_name, idempotency_key=f"d/s{i}"
                )
                for i, query_name in enumerate(gathered, start=len(sequential))
            )
        )
        label[0] = "close"
        server.close_session("s0", idempotency_key="x/s0")
        ticks = server.stats.ticks
        server.shutdown()
        rows = store._conn.execute(
            "SELECT seq, idem_key, kind, payload, status, outcome_digest, response "
            "FROM request_journal ORDER BY seq"
        ).fetchall()
        store.close()
        return rows, ticks, writes

    return asyncio.run(scenario())


def public_payload(kind, payload_json):
    payload = json.loads(payload_json)
    if kind == "open_session":
        payload.pop("value")
    return payload


@settings(max_examples=5, deadline=None)
@given(pair=distinct_secret_pairs)
def test_journal_layout_is_independent_of_the_secret(pair):
    sequential, gathered = seeded_schedule(CHAOS_SEED)
    (rows_a, ticks_a, writes_a), (rows_b, ticks_b, writes_b) = (
        run_journaled(secret, sequential, gathered) for secret in pair
    )
    assert ticks_a == ticks_b
    assert writes_a == writes_b  # same durable writes, per tick and request
    assert len(rows_a) == len(rows_b)
    downgrades = 0
    for row_a, row_b in zip(rows_a, rows_b):
        seq, key, kind, payload, status, digest, response = row_a
        assert (seq, key, kind, status) == row_b[:3] + (row_b[4],)
        assert public_payload(kind, payload) == public_payload(kind, row_b[3])
        if kind != "downgrade":
            assert digest == row_b[5], key
            continue
        downgrades += 1
        result_a, result_b = json.loads(response), json.loads(row_b[6])
        public_a = {k: v for k, v in result_a.items() if k not in DECLASSIFIED}
        public_b = {k: v for k, v in result_b.items() if k not in DECLASSIFIED}
        assert public_a == public_b, key
        assert (digest == row_b[5]) == (result_a == result_b), key
    assert downgrades == len(sequential) + len(gathered)  # non-vacuous
