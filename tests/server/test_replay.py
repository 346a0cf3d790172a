"""Replay conformance, crash recovery, and exactly-once effects.

The kill-and-restart drill as tests: a journaled gateway dies in its one
crash window (after execution, before the request's durable write), a
fresh process recovers from the same store, the client's retry re-runs
the request from the same prior, retries of written keys get the
recorded responses, budgets are never double-charged, and
:class:`ReplaySession` re-derives the whole recorded history —
decisions, refusals, audit digests — bit-for-bit.

``CHAOS_SEED`` parameterizes the seeded fault schedules, same as the
chaos suite: CI runs pinned and randomized.
"""

import asyncio
import concurrent.futures
import json
import os
import pathlib
import sqlite3
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plugin import CompileOptions
from repro.lang.canonical import expr_to_json, spec_to_json
from repro.lang.parser import parse_bool
from repro.lang.secrets import SecretSpec
from repro.lang.validate import QueryValidationError
from repro.monad.policy import size_above
from repro.server import faults
from repro.server.faults import CRASH_EXIT_CODE, FaultPlan, FaultSpec
from repro.server.edge import _to_edge_error
from repro.server.gateway import DeclassificationServer, JournalStopped, ServerConfig
from repro.server.journal import RequestJournal
from repro.server.ledger import DecayPolicy
from repro.server.replay import ReplaySession, replay_journal
from repro.server.store import SQLiteStore
from repro.service.api import CompileRequest
from repro.service.serialize import canonical_json

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "20220622"))

SPEC = SecretSpec.declare("ReplayLoc", x=(0, 199), y=(0, 199))
OPTIONS = CompileOptions(domain="interval", modes=("under", "over"))
#: Secret (30, 40): west/south/inner answer True with posterior sizes
#: 20000 / 10000 / 5000 against the 40000-point prior.
QUERIES = (("west", "x <= 99"), ("south", "y <= 99"), ("inner", "x <= 49"))
SECRET = (30, 40)
CRASH_KINDS = ("crash_after_execute_before_ack",)


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    faults.clear_fault_plan()
    yield
    faults.clear_fault_plan()


def make_server(backend, **kwargs) -> DeclassificationServer:
    kwargs.setdefault("options", OPTIONS)
    kwargs.setdefault("budget_floor", size_above(4000))
    kwargs.setdefault("config", ServerConfig(inline_compiles=True))
    return DeclassificationServer(
        size_above(100), journal=RequestJournal(backend), **kwargs
    )


async def boot(server, queries=QUERIES):
    for name, text in queries:
        await server.register_query(CompileRequest(name, text, SPEC))


def bounds_of(store: SQLiteStore) -> list:
    return sorted(store.ledger_bounds())


def legacy_pending_row(store: SQLiteStore, key: str, kind: str, payload: dict):
    """The row the write-ahead journal of earlier versions appended
    before executing a request, left unacknowledged by a crash."""
    store._execute_write(
        "INSERT INTO request_journal (idem_key, kind, payload, status, "
        "created_at) VALUES (?, ?, ?, 'pending', 0)",
        (key, kind, canonical_json(payload)),
    )


# ---------------------------------------------------------------------------
# Conformance: record a history, replay it bit-identically
# ---------------------------------------------------------------------------


def test_recorded_history_replays_bit_identically():
    async def scenario():
        backend = SQLiteStore(":memory:")
        server = make_server(backend, budget_decay=DecayPolicy(radius=1))
        await boot(server)
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        for name in ("west", "south", "inner"):
            assert (await server.downgrade("s1", name)).authorized
        # Exhausted: the floor refuses, and so does re-asking an
        # answered query (both-branch check, ANOSY §3).
        refused = await server.downgrade("s1", "west")
        assert not refused.authorized
        server.advance_epoch()
        server.close_session("s1")
        server.shutdown()

        journal = RequestJournal(backend)
        report = await ReplaySession(journal).run()
        assert report.conforms
        assert report.entries == len(journal)
        assert report.replayed == report.matched == report.entries
        assert report.restarts == 0
        assert report.recorded_digest == journal.audit_digest()
        # The refusal sequence is part of the record: same request,
        # same order, same reason.
        assert [(r.session_id, r.query_name) for r in report.refusals] == [
            ("s1", "west")
        ]
        assert "budget exhausted" in report.refusals[0].reason

    asyncio.run(scenario())


def test_replay_reproduces_trace_trees_bit_identically():
    """The twin re-derives every trace tree byte-for-byte (ISSUE 10).

    Trace ids come from (idempotency key, journal seq) and span ids
    from (trace, parent, name, index), so a replayed journal must
    rebuild the exact same canonical trees — including the refused
    request's admission verdict.
    """

    async def scenario():
        backend = SQLiteStore(":memory:")
        server = make_server(backend, budget_decay=DecayPolicy(radius=1))
        await boot(server)
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        for name in ("west", "south", "inner"):
            assert (await server.downgrade("s1", name)).authorized
        assert not (await server.downgrade("s1", "west")).authorized
        assert not (await server.downgrade("s1", "ghost")).authorized
        source_trees = server.hub.tracer.trees()
        source_digest = server.hub.tracer.digest()
        server.shutdown()

        session = ReplaySession(
            RequestJournal(backend), trace_digest=source_digest
        )
        report = await session.run()
        assert report.conforms
        assert report.recorded_trace_digest == source_digest
        assert report.replayed_trace_digest == source_digest
        assert session.tracer.trees() == source_trees

        # Non-vacuous: one tree per downgrade, rooted at the gateway's
        # span with the shard-side decision spans as children.
        assert len(source_trees) == 5
        roots = {tree["name"] for tree in source_trees.values()}
        assert roots == {"downgrade"}
        child_names = sorted(
            child["name"]
            for tree in source_trees.values()
            for child in tree["children"]
        )
        assert "serve" in child_names and "admission" in child_names
        refused = [
            tree
            for tree in source_trees.values()
            if any(
                child["name"] == "admission"
                and child["attrs"]["allowed"] is False
                for child in tree["children"]
            )
        ]
        assert len(refused) == 1  # the exhausted re-ask of "west"

    asyncio.run(scenario())


def test_tampered_outcome_digest_is_pinpointed():
    async def scenario():
        backend = SQLiteStore(":memory:")
        server = make_server(backend)
        await boot(server, QUERIES[:1])
        server.open_session("s1", (SPEC, SECRET))
        await server.downgrade("s1", "west", idempotency_key="victim")
        server.shutdown()

        # Falsify the recorded outcome digest.
        backend._execute_write(
            "UPDATE request_journal SET outcome_digest = ? WHERE idem_key = ?",
            ("0" * 64, "victim"),
        )
        report = await ReplaySession(RequestJournal(backend)).run()
        assert not report.conforms
        assert len(report.divergences) == 1
        divergence = report.divergences[0]
        assert divergence.key == "victim" and divergence.kind == "downgrade"
        assert divergence.recorded == "0" * 64
        assert report.recorded_digest != report.replayed_digest

    asyncio.run(scenario())


def test_a_lifecycle_call_never_lands_inside_a_gateway_tick(monkeypatch):
    """A gateway-local tick runs from its journal append to its last ack
    without yielding, so a close scheduled while the tick's first query
    group runs executes after the whole tick — journal order is
    execution order, and replay conforms."""

    async def scenario():
        backend = SQLiteStore(":memory:")
        server = make_server(backend)
        await boot(server, (("a", "x <= 99"), ("b", "y <= 99")))
        server.open_session("u", (SPEC, SECRET))
        loop = asyncio.get_running_loop()
        real_serve_batch = server.core.serve_batch

        def closing(query_name, session_ids, traces=None):
            if query_name == "a":
                loop.call_soon(
                    lambda: server.close_session("u", idempotency_key="close/u")
                )
            return real_serve_batch(query_name, session_ids, traces)

        monkeypatch.setattr(server.core, "serve_batch", closing)
        results = await asyncio.gather(
            server.downgrade("u", "a", idempotency_key="d/a"),
            server.downgrade("u", "b", idempotency_key="d/b"),
        )
        await asyncio.sleep(0)  # the scheduled close has run
        assert server.open_session_count() == 0
        server.shutdown()

        journal = RequestJournal(backend)
        assert [e.key for e in journal.entries()][-3:] == ["d/a", "d/b", "close/u"]
        report = await ReplaySession(journal).run()
        assert report.conforms, report.divergences
        assert [r.authorized for r in results] == [True, True]

    asyncio.run(scenario())


def test_a_downgrade_during_a_compile_is_journaled_in_execution_order(monkeypatch):
    """A downgrade that runs while a compile of its query awaits the
    executor is refused live ("Can't downgrade"), so the journal must
    record it before the compile: the compile's journaled step is only
    the registration, after its artifact reached the cache.  Replay then
    re-derives the refusal."""

    async def scenario():
        backend = SQLiteStore(":memory:")
        server = make_server(backend)
        server.open_session("s1", (SPEC, SECRET))
        real_submit = server.pool.submit
        release = []

        def held_submit(*args):
            done = real_submit(*args)
            held = concurrent.futures.Future()
            release.append(lambda: held.set_result(done.result()))
            return held

        monkeypatch.setattr(server.pool, "submit", held_submit)
        compiling = asyncio.ensure_future(
            server.register_query(
                CompileRequest("west", "x <= 99", SPEC), idempotency_key="c/west"
            )
        )
        while not release:
            await asyncio.sleep(0)  # the compile now awaits its executor
        result = await server.downgrade("s1", "west", idempotency_key="d/west")
        release[0]()
        assert (await compiling).name == "west"
        server.shutdown()
        assert not result.authorized and "Can't downgrade" in result.reason

        journal = RequestJournal(backend)
        assert [e.key for e in journal.entries()][-2:] == ["d/west", "c/west"]
        report = await ReplaySession(journal).run()
        assert report.conforms, report.divergences

    asyncio.run(scenario())


def test_one_durable_write_per_job_and_per_lifecycle_request():
    """Reserving writes nothing; each gateway-core job and each lifecycle
    request ends in exactly one durable write, after it executed, and no
    row is ever written pending."""

    async def scenario():
        store = SQLiteStore(":memory:")
        events = []
        real_write = store._write_txn

        def spy(fn):
            events.append("write")
            return real_write(fn)

        store._write_txn = spy
        server = make_server(store, store=store, budget_decay=DecayPolicy(radius=1))
        assert events == ["write"]  # the configure entry
        await boot(server, QUERIES[:2])
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        real_serve_batch = server.core.serve_batch

        def serving(query_name, session_ids, traces=None):
            events.append(f"serve/{query_name}")
            return real_serve_batch(query_name, session_ids, traces)

        server.core.serve_batch = serving
        events.clear()
        await asyncio.gather(server.downgrade("s1", "west"), server.downgrade("s1", "south"))
        assert server.stats.ticks == 1
        assert events == ["serve/west", "write", "serve/south", "write"]

        # An alias of a compiled query is a cache hit: no artifact write.
        lifecycle = {
            "compile": lambda: server.register_query(
                CompileRequest("alias", "99 >= x", SPEC)
            ),
            "open_session": lambda: server.open_session("s2", (SPEC, SECRET)),
            "close_session": lambda: server.close_session("s2"),
            "advance_epoch": lambda: server.advance_epoch(),
        }
        for kind, call in lifecycle.items():
            events.clear()
            result = call()
            if asyncio.iscoroutine(result):
                result = await result
            assert events == ["write"], kind
        assert server.stats.compile_cache_hits == 1
        server.shutdown()
        statuses = {e.status for e in RequestJournal(store).entries()}
        assert statuses == {"done"}

    asyncio.run(scenario())


def test_a_failed_write_stops_the_journal_until_a_successor_recovers(tmp_path):
    """Memory ahead of the journal refuses every later journaled request:
    after a write fails, and after a gateway-core job raises."""

    async def scenario():
        store = SQLiteStore(tmp_path / "stop.db")
        server = make_server(store, store=store)
        await boot(server, QUERIES[:2])
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        real_write = store.journal_write

        def failing_write(rows, bounds=()):
            raise sqlite3.OperationalError("disk I/O error")

        store.journal_write = failing_write
        with pytest.raises(sqlite3.OperationalError):
            await server.downgrade("s1", "west", idempotency_key="d1")
        store.journal_write = real_write
        assert store.ledger_bound_count() == 0  # nothing durable
        with pytest.raises(JournalStopped):
            await server.downgrade("s1", "south", idempotency_key="d2")
        with pytest.raises(JournalStopped):
            server.open_session("s2", (SPEC, SECRET))
        with pytest.raises(JournalStopped):
            await server.register_query(CompileRequest("inner", "x <= 49", SPEC))
        assert server.statusz()["journal"]["stopped"] is True
        assert _to_edge_error(JournalStopped("stopped")).status == 503
        assert RequestJournal(store).entry("d1") is None

        # A successor recovers and serves; the client's retry runs once.
        reborn = make_server(store, store=store)
        await reborn.recover_from_journal()
        assert (await reborn.downgrade("s1", "west", idempotency_key="d1")).authorized
        assert reborn.ledger.remaining("alice", SPEC) == 20_000

        # A gateway-core job that raises stops the journal too.
        def broken(query_name, session_ids, traces=None):
            raise RuntimeError("core fault")

        reborn.core.serve_batch = broken
        with pytest.raises(RuntimeError, match="core fault"):
            await reborn.downgrade("s1", "south", idempotency_key="d2")
        with pytest.raises(JournalStopped):
            reborn.advance_epoch()
        reborn.shutdown()
        report = await ReplaySession(RequestJournal(store)).run()
        assert report.conforms
        store.close()

    asyncio.run(scenario())


def test_replay_requires_a_configure_entry_first():
    journal = RequestJournal(SQLiteStore(":memory:"))
    entry = journal.begin("k", "downgrade", {"session_id": "s", "query_name": "q"})
    journal.ack(entry, {"kind": "downgrade"})
    with pytest.raises(ValueError, match="configure"):
        ReplaySession(journal)
    assert replay_journal([]).conforms  # empty history is vacuously fine


def test_restart_with_changed_config_is_a_generation_boundary(tmp_path):
    async def scenario():
        store = SQLiteStore(tmp_path / "restart.db")
        server = make_server(store, store=store)
        await boot(server, QUERIES[:2])
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        assert (await server.downgrade("s1", "west")).authorized
        server.shutdown()

        # Reboot with a *different* floor: a new configure entry, hence
        # a restart boundary replay must reproduce.  The session is
        # re-opened by the operator (its liveness died with the
        # process) but the ledger — and alice's charge — persists.
        relaxed = make_server(
            store, store=store, budget_floor=size_above(100)
        )
        await relaxed.recover_from_journal()
        assert (await relaxed.downgrade("s1", "south")).authorized
        # A query compiled only in the second generation: replay must
        # register it inside generation 2, not at boot.
        await relaxed.register_query(CompileRequest("inner", "x <= 49", SPEC))
        assert (await relaxed.downgrade("s1", "inner")).authorized
        relaxed.shutdown()

        report = await ReplaySession(RequestJournal(store)).run()
        assert report.conforms
        assert report.restarts == 1
        store.close()

    asyncio.run(scenario())


def test_invalid_compile_is_rejected_before_the_journal_and_never_wedges_boot():
    """A compile invalid for its secret is refused like a shed request.

    It is checked before anything is journaled, so it leaves no row.  A
    journal written by an earlier, write-ahead version can still hold
    such a row, pending forever: recovery and replay must skip it, not
    re-raise it on every boot, and a retry of its key replaces it.
    """
    store = SQLiteStore(":memory:")

    async def record():
        server = make_server(store, store=store)
        await boot(server, QUERIES[:1])
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        journaled = len(server.journal)
        with pytest.raises(QueryValidationError):
            await server.register_query(
                CompileRequest("bad", "z <= 3", SPEC), idempotency_key="bad"
            )
        assert len(server.journal) == journaled
        assert server.journal.entry("bad") is None
        # The row an older gateway left behind: appended, never acked.
        legacy_pending_row(
            store,
            "legacy-bad",
            "compile",
            {
                "name": "bad",
                "query": expr_to_json(parse_bool("z <= 3")),
                "secret": spec_to_json(SPEC),
                "options": None,
            },
        )
        # And one whose client retries it against the new journal.
        legacy_pending_row(
            store, "legacy-west", "downgrade", {"session_id": "s1", "query_name": "west"}
        )
        server.shutdown()

    async def recover():
        # A changed floor opens a new process generation, so replay also
        # rebuilds a generation over the stale row.
        server = make_server(store, store=store, budget_floor=size_above(100))
        recovery = await server.recover_from_journal()
        assert (recovery.queries, recovery.sessions) == (1, 1)
        assert server.journal.entry("legacy-bad").status == "pending"
        stale = server.journal.entry("legacy-west")
        retried = await server.downgrade(
            "s1", "west", idempotency_key="legacy-west"
        )
        assert retried.authorized and server.stats.journal_duplicates == 0
        replaced = server.journal.entry("legacy-west")
        assert replaced.status == "done" and replaced.seq > stale.seq
        assert [e.key for e in server.journal.entries()].count("legacy-west") == 1
        server.shutdown()

    asyncio.run(record())
    asyncio.run(recover())
    report = replay_journal(RequestJournal(store))
    assert report.conforms and report.entries == len(RequestJournal(store)) - 1
    assert report.restarts == 1
    store.close()


#: A journal the write-ahead version (every request appended pending,
#: then acknowledged) recorded on a file store: three compiles, two
#: opens, downgrades with a budget refusal, an unknown query and a
#: duplicate delivery, an epoch, a close, and the pending row a SIGKILL
#: drill left under ``d/s1/south/retry``.  Sequence 14 is a gap.
WRITE_AHEAD_JOURNAL = pathlib.Path(__file__).parent / "data" / "write_ahead_journal.json"


def test_a_journal_the_write_ahead_version_recorded_replays_and_recovers(tmp_path):
    """Stores written before rows were written once, done, open unchanged:
    the history replays, a successor recovers from it, and a retry of the
    pending row's key replaces it."""
    data = json.loads(WRITE_AHEAD_JOURNAL.read_text())
    store = SQLiteStore(tmp_path / "write-ahead.db")

    def restore(conn):
        conn.executemany(
            "INSERT INTO request_journal (seq, idem_key, kind, payload, status, "
            "outcome_digest, response, created_at) VALUES (?, ?, ?, ?, ?, ?, ?, 0)",
            data["request_journal"],
        )
        conn.executemany(
            "INSERT INTO ledger_bounds (user_id, spec, payload, updated_at) "
            "VALUES (?, ?, ?, 0)",
            data["ledger_bounds"],
        )

    store._write_txn(restore)

    async def scenario():
        report = await ReplaySession(RequestJournal(store)).run()
        assert report.conforms and report.entries == len(data["request_journal"]) - 1
        assert [(r.session_id, r.query_name) for r in report.refusals] == [
            ("s1", "inner"),
            ("s2", "ghost"),
        ]
        server = make_server(
            store, store=store, budget_floor=size_above(6000),
            budget_decay=DecayPolicy(radius=1),
        )
        recovery = await server.recover_from_journal()
        assert (recovery.queries, recovery.sessions, recovery.refolded) == (3, 1, 2)
        stale = server.journal.entry("d/s1/south/retry")
        assert stale.status == "pending"
        remaining = server.ledger.remaining("alice", SPEC)
        retried = await server.downgrade(
            "s1", "south", idempotency_key="d/s1/south/retry"
        )
        assert retried.reason.startswith("budget exhausted")
        assert server.ledger.remaining("alice", SPEC) == remaining
        replaced = server.journal.entry("d/s1/south/retry")
        assert replaced.status == "done" and replaced.seq > stale.seq
        server.shutdown()
        report = await ReplaySession(RequestJournal(store)).run()
        assert report.conforms and report.entries == len(data["request_journal"])

    asyncio.run(scenario())
    store.close()


# ---------------------------------------------------------------------------
# Crash windows (simulated death, in-process)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", CRASH_KINDS)
def test_crash_window_recovers_and_never_double_charges(tmp_path, kind):
    """Die in the journal's crash window; recovery converges exactly.

    The uninterrupted control run establishes the expected ledger
    bounds; the crashed-and-recovered run must land byte-identical, the
    client's retry re-runs the request from the same prior, and the
    recorded history must replay bit-for-bit.
    """

    async def control():
        store = SQLiteStore(tmp_path / "control.db")
        server = make_server(store, store=store)
        await boot(server, QUERIES[:2])
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        await server.downgrade("s1", "west", idempotency_key="d1")
        result = await server.downgrade("s1", "south", idempotency_key="d2")
        server.shutdown()
        expected = bounds_of(store)
        store.close()
        return expected, result

    async def crashed():
        store = SQLiteStore(tmp_path / "crash.db")
        server = make_server(store, store=store)
        await boot(server, QUERIES[:2])
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        await server.downgrade("s1", "west", idempotency_key="d1")
        faults.install_fault_plan(
            FaultPlan([FaultSpec(site="journal", kind=kind)], seed=CHAOS_SEED),
            simulate=True,
        )
        with pytest.raises(BrokenProcessPool):
            await server.downgrade("s1", "south", idempotency_key="d2")
        faults.clear_fault_plan()
        # The process is "dead": no shutdown, no flush, buffered
        # ledger-mirror writes lost with it.  Boot a successor on the
        # same store.
        reborn = make_server(store, store=store)
        recovery = await reborn.recover_from_journal()
        assert recovery.queries == 2 and recovery.sessions == 1
        assert RequestJournal(store).entry("d2") is None  # nothing durable
        # The client's retry runs the request once, from the same prior:
        # no double charge.
        retried = await reborn.downgrade("s1", "south", idempotency_key="d2")
        assert retried.authorized and retried.response is True
        assert reborn.ledger.remaining("alice", SPEC) == 10_000
        reborn.shutdown()
        actual = bounds_of(store)
        report = await ReplaySession(RequestJournal(store)).run()
        store.close()
        return actual, retried, report

    expected, control_result = asyncio.run(control())
    actual, retried, report = asyncio.run(crashed())
    assert actual == expected
    assert retried.knowledge_size == control_result.knowledge_size
    assert report.conforms


async def _lifecycle_setup(server):
    """Shared prefix of every lifecycle drill: two queries, two sessions."""
    await boot(server, QUERIES[:2])
    server.open_session("s1", (SPEC, SECRET), user_id="alice")
    server.open_session("s2", (SPEC, SECRET), user_id="bob")
    await server.downgrade("s1", "west", idempotency_key="d1")


#: One journaled lifecycle request per kind, and the downgrade after it
#: whose ledger effect shows the request's state converged.
LIFECYCLE_OPS = {
    "compile": (
        lambda server: server.register_query(
            CompileRequest("inner", "x <= 49", SPEC), idempotency_key="op"
        ),
        ("s1", "inner"),
    ),
    "open_session": (
        lambda server: server.open_session(
            "s3", (SPEC, SECRET), user_id="carol", idempotency_key="op"
        ),
        ("s3", "south"),
    ),
    "close_session": (
        lambda server: server.close_session("s2", idempotency_key="op"),
        ("s2", "west"),
    ),
    "advance_epoch": (
        lambda server: server.advance_epoch(idempotency_key="op"),
        ("s1", "south"),
    ),
}


async def _lifecycle_op(server, kind):
    result = LIFECYCLE_OPS[kind][0](server)
    return await result if asyncio.iscoroutine(result) else result


def _answer(kind, result):
    """The client-visible part of a lifecycle answer, comparable across runs."""
    if kind == "compile":
        return (result.name, result.verified)
    if kind == "open_session":
        return (result.session_id, result.spec.name)
    return result if kind == "advance_epoch" else None


@pytest.mark.parametrize("crash", CRASH_KINDS)
@pytest.mark.parametrize("kind", sorted(LIFECYCLE_OPS))
def test_lifecycle_crash_window_recovers_exactly_once(tmp_path, kind, crash):
    """Die in the journal's crash window of each lifecycle request kind.

    Nothing of the request is durable, the client's retry runs it once,
    the ledger lands where an uninterrupted run lands, and the history
    replays bit-identically.
    """
    follow_up = LIFECYCLE_OPS[kind][1]
    decay = DecayPolicy(radius=1)

    async def control():
        store = SQLiteStore(tmp_path / "control.db")
        server = make_server(store, store=store, budget_decay=decay)
        await _lifecycle_setup(server)
        answer = _answer(kind, await _lifecycle_op(server, kind))
        after = await server.downgrade(*follow_up, idempotency_key="after")
        server.shutdown()
        expected = bounds_of(store)
        store.close()
        return expected, answer, after

    async def crashed():
        store = SQLiteStore(tmp_path / "crash.db")
        server = make_server(store, store=store, budget_decay=decay)
        await _lifecycle_setup(server)
        faults.install_fault_plan(
            FaultPlan([FaultSpec(site="journal", kind=crash)], seed=CHAOS_SEED),
            simulate=True,
        )
        with pytest.raises(BrokenProcessPool):
            await _lifecycle_op(server, kind)
        faults.clear_fault_plan()
        assert server.journal.entry("op") is None
        # Dead without shutdown; a successor boots on the same store.
        reborn = make_server(store, store=store, budget_decay=decay)
        await reborn.recover_from_journal()
        answer = _answer(kind, await _lifecycle_op(reborn, kind))
        after = await reborn.downgrade(*follow_up, idempotency_key="after")
        reborn.shutdown()
        actual = bounds_of(store)
        report = await ReplaySession(RequestJournal(store)).run()
        store.close()
        return actual, answer, after, report

    expected, control_answer, control_after = asyncio.run(control())
    actual, answer, after, report = asyncio.run(crashed())
    assert actual == expected
    assert answer == control_answer
    assert (after.authorized, after.knowledge_size, after.reason) == (
        control_after.authorized,
        control_after.knowledge_size,
        control_after.reason,
    )
    assert report.conforms


# ---------------------------------------------------------------------------
# Real process death (actual SIGKILL via os._exit in a child process)
# ---------------------------------------------------------------------------

_CHILD = """
import asyncio, sys
from repro.core.plugin import CompileOptions
from repro.lang.secrets import SecretSpec
from repro.monad.policy import size_above
from repro.server import faults
from repro.server.faults import FaultPlan, FaultSpec
from repro.server.gateway import DeclassificationServer, ServerConfig
from repro.server.journal import RequestJournal
from repro.server.store import SQLiteStore
from repro.service.api import CompileRequest

path, kind, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
SPEC = SecretSpec.declare("ReplayLoc", x=(0, 199), y=(0, 199))

async def main():
    store = SQLiteStore(path)
    server = DeclassificationServer(
        size_above(100),
        options=CompileOptions(domain="interval", modes=("under", "over")),
        budget_floor=size_above(4000),
        config=ServerConfig(inline_compiles=True),
        store=store,
        journal=RequestJournal(store),
    )
    for name, text in (("west", "x <= 99"), ("south", "y <= 99")):
        await server.register_query(CompileRequest(name, text, SPEC))
    server.open_session("s1", (SPEC, (30, 40)), user_id="alice")
    await server.downgrade("s1", "west", idempotency_key="d1")
    faults.install_fault_plan(
        FaultPlan([FaultSpec(site="journal", kind=kind)], seed=seed)
    )
    await server.downgrade("s1", "south", idempotency_key="d2")  # dies here

asyncio.run(main())
"""


@pytest.mark.parametrize("kind", CRASH_KINDS)
def test_sigkill_drill_child_process_dies_parent_recovers(tmp_path, kind):
    """Process-mode faults: the child genuinely dies mid-request.

    Unlike the simulated windows above, nothing in the child gets to
    run after the fault — ``os._exit``, no finalizers, no flush.  The
    parent plays the operator: reopen the store, boot, recover, retry.
    """
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    db = tmp_path / "drill.db"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(db), kind, str(CHAOS_SEED)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == CRASH_EXIT_CODE, proc.stderr

    async def recover():
        store = SQLiteStore(db)
        journal = RequestJournal(store)
        assert journal.entry("d2") is None  # died before its write
        server = make_server(store, store=store)
        await server.recover_from_journal()
        retried = await server.downgrade("s1", "south", idempotency_key="d2")
        assert retried.authorized and retried.response is True
        assert server.ledger.remaining("alice", SPEC) == 10_000
        assert journal.entry("d2").status == "done"
        server.shutdown()
        report = await ReplaySession(RequestJournal(store)).run()
        assert report.conforms
        store.close()

    asyncio.run(recover())


# ---------------------------------------------------------------------------
# Compaction keeps what recovery and replay need
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("floor", [size_above(4000), None], ids=["ledger", "no-ledger"])
def test_compaction_then_crash_recovers_queries_sessions_and_knowledge(tmp_path, floor):
    """Compact, crash, boot a successor: the queries, ``s1`` and its
    knowledge come back, and the next downgrade answers exactly as an
    uncompacted control does (``inner`` narrows to 5,000, not 10,000)."""

    async def run(name, compact):
        store = SQLiteStore(tmp_path / f"{name}.db")
        server = make_server(store, store=store, budget_floor=floor)
        await boot(server)
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        for query_name in ("west", "south"):
            assert (await server.downgrade("s1", query_name)).authorized
        if compact:
            assert server.journal.compact() > 0
            assert len(server.journal) == 0
        # The process is "dead": boot a successor on the same store.
        reborn = make_server(store, store=store, budget_floor=floor)
        recovery = await reborn.recover_from_journal()
        assert (recovery.queries, recovery.sessions, recovery.refolded) == (3, 1, 2)
        result = await reborn.downgrade("s1", "inner")
        reborn.shutdown()
        report = await ReplaySession(RequestJournal(store)).run()
        assert report.conforms, report.divergences
        bounds = bounds_of(store)
        store.close()
        return result, bounds

    control, control_bounds = asyncio.run(run("control", compact=False))
    result, bounds = asyncio.run(run("compacted", compact=True))
    assert result == control
    assert result.authorized and result.knowledge_size == 5_000
    assert bounds == control_bounds


def test_a_journal_compacted_mid_history_replays_with_the_same_chain():
    """Compaction mid-history keeps the audit chain: the compacted
    journal's digest equals the uncompacted one's, and replay conforms,
    including a floor refusal that depends on bounds from deleted rows."""

    async def run(compact):
        backend = SQLiteStore(":memory:")
        server = make_server(
            backend, store=backend, budget_decay=DecayPolicy(radius=1)
        )
        await boot(server)
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        server.open_session("b1", (SPEC, (150, 150)), user_id="bob")
        for sid, query_name in (("s1", "west"), ("s1", "south"), ("b1", "west")):
            await server.downgrade(sid, query_name)
        if compact:
            assert server.journal.compact() > 0
        server.close_session("s1")
        server.advance_epoch()
        if compact:
            assert server.journal.compact() > 0  # folds onto the first
        # Alice's bound lives only in the checkpoint now: her new
        # session is admitted against it, then refused by it.
        server.open_session("s2", (SPEC, SECRET), user_id="alice")
        assert (await server.downgrade("s2", "inner")).authorized
        assert not (await server.downgrade("s2", "south")).authorized
        assert (await server.downgrade("b1", "south")).authorized
        server.shutdown()
        journal = RequestJournal(backend)
        return journal.audit_digest(), await ReplaySession(journal).run()

    whole_digest, whole = asyncio.run(run(compact=False))
    compacted_digest, compacted = asyncio.run(run(compact=True))
    assert whole.conforms
    assert compacted.conforms, compacted.divergences
    assert compacted_digest == whole_digest
    assert compacted.recorded_digest == compacted.replayed_digest == whole_digest
    assert compacted.entries < whole.entries
    assert [(r.session_id, r.query_name) for r in compacted.refusals] == [
        ("s2", "south")
    ]


# ---------------------------------------------------------------------------
# Exactly-once effects under arbitrary duplicate delivery (property)
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    deliveries=st.lists(
        st.sampled_from(["west", "south"]), min_size=2, max_size=8
    ).filter(lambda d: set(d) == {"west", "south"})
)
def test_duplicate_deliveries_never_double_charge(deliveries):
    """Any duplicated/reordered delivery schedule charges like one pass.

    Each query name is delivered under one idempotency key however many
    times the schedule says; the final ledger position and journal
    length must equal the control run that delivered each key once.
    """

    async def run(schedule):
        server = make_server(SQLiteStore(":memory:"))
        await boot(server, QUERIES[:2])
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        responses = {}
        for name in schedule:
            result = await server.downgrade(
                "s1", name, idempotency_key=f"d/{name}"
            )
            if name in responses:
                assert result.knowledge_size == responses[name].knowledge_size
                assert result.authorized == responses[name].authorized
            responses[name] = result
        remaining = server.ledger.remaining("alice", SPEC)
        entries = len(server.journal)
        server.shutdown()
        return remaining, entries

    remaining, entries = asyncio.run(run(deliveries))
    control_remaining, control_entries = asyncio.run(run(["west", "south"]))
    assert remaining == control_remaining == 10_000
    assert entries == control_entries


# ---------------------------------------------------------------------------
# Journaled layouts: a durable ledger must share the journal's store
# ---------------------------------------------------------------------------


def test_ledger_on_another_store_than_the_journal_is_refused(tmp_path):
    """Bounds on one store and acks on another cannot land in one
    transaction, so construction refuses before writing either store."""
    journal_store = SQLiteStore(tmp_path / "journal.db")
    ledger_store = SQLiteStore(tmp_path / "ledger.db")
    with pytest.raises(ValueError, match="journal's store"):
        make_server(journal_store, store=ledger_store)
    for store in (journal_store, ledger_store):
        assert store.journal_count() == 0
        assert store.ledger_bound_count() == 0
        store.close()


def test_supported_journaled_layouts_construct(tmp_path):
    shared = SQLiteStore(tmp_path / "shared.db")
    artifacts = SQLiteStore(tmp_path / "artifacts.db")
    layouts = [
        # Journal and durable ledger in one store: exactly-once.
        make_server(shared, store=shared),
        # No ledger: nothing to land with the acks.
        make_server(SQLiteStore(":memory:"), store=artifacts, budget_floor=None),
        # No store: an in-memory journal beside an in-memory ledger.
        make_server(SQLiteStore(":memory:")),
    ]
    for server in layouts:
        assert len(server.journal) == 1  # the configure entry
        server.shutdown()
    shared.close()
    artifacts.close()
