"""RequestJournal: reserve, execute, write; idempotency keys, digests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.journal import (
    JOURNAL_FORMAT_VERSION,
    JournalBackend,
    RequestJournal,
    chain_digest,
    live_state,
)
from repro.server.store import SQLiteStore
from repro.service.serialize import canonical_json, payload_digest


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    """A store-less journal (in-memory SQLite) and a file-backed one."""
    if request.param == "memory":
        store = SQLiteStore(":memory:")
    else:
        store = SQLiteStore(tmp_path / "journal.sqlite")
    yield store
    store.close()


def test_backends_satisfy_the_protocol(backend):
    assert isinstance(backend, JournalBackend)


def test_begin_execute_ack_roundtrip(backend):
    journal = RequestJournal(backend)
    entry = journal.begin("k1", "downgrade", {"session_id": "u1", "query_name": "q"})
    assert entry.status == "reserved" and entry.seq == 1
    # Reserving writes nothing: the row appears only once executed.
    assert len(journal) == 0 and journal.entry("k1") is None
    digest = journal.ack(entry, {"kind": "downgrade", "authorized": True})
    assert digest == payload_digest({"kind": "downgrade", "authorized": True})
    done = journal.entry("k1")
    assert done.status == "done"
    assert done.outcome_digest == digest
    # Outcome doubles as the recorded response by default.
    assert journal.recorded_response("k1") == {"kind": "downgrade", "authorized": True}
    assert [e.status for e in journal.entries()] == ["done"]


def test_duplicate_key_returns_the_existing_row(backend):
    journal = RequestJournal(backend)
    first = journal.begin("dup", "compile", {"name": "q"})
    journal.ack(first, {"kind": "compile", "name": "q"}, response={"took": 1.5})
    again = journal.begin("dup", "compile", {"name": "q"})
    assert again.seq == first.seq
    assert again.status == "done"
    assert again.response == {"took": 1.5}
    # A reservation that was never written leaves no row and a gap: the
    # key's retry is reserved afresh, and only its write lands.
    r1 = journal.begin("open", "open_session", {"session_id": "u"})
    r2 = journal.begin("open", "open_session", {"session_id": "u"})
    assert (r1.status, r2.status) == ("reserved", "reserved")
    assert r2.seq == r1.seq + 1
    journal.ack(r2, {"kind": "open_session"})
    assert [e.seq for e in journal.entries()] == [first.seq, r2.seq]


def test_begin_many_and_ack_many_batch(backend):
    journal = RequestJournal(backend)
    entries = journal.begin_many(
        [(f"k{i}", "downgrade", {"session_id": f"u{i}"}) for i in range(5)]
    )
    assert [e.seq for e in entries] == [1, 2, 3, 4, 5]
    digests = journal.ack_many(
        [(e, {"kind": "downgrade", "i": i}) for i, e in enumerate(entries)]
    )
    assert digests == [
        payload_digest({"kind": "downgrade", "i": i}) for i in range(5)
    ]
    assert [e.status for e in journal.entries()] == ["done"] * 5
    # Duplicates inside one batch share one reservation.
    batch = journal.begin_many(
        [("same", "compile", {"name": "a"}), ("same", "compile", {"name": "a"})]
    )
    assert batch[0].seq == batch[1].seq


def test_auto_keys_never_repeat_across_restarts(backend):
    journal = RequestJournal(backend)
    keys = [journal.auto_key("downgrade") for _ in range(3)]
    assert len(set(keys)) == 3
    # Only the last auto key ever hit the journal; a shed request
    # consumed the others without a row.
    journal.ack(journal.begin(keys[-1], "downgrade", {"session_id": "u"}), {})
    rebooted = RequestJournal(backend)
    fresh = rebooted.auto_key("downgrade")
    assert fresh not in keys


def test_audit_digest_chains_done_entries_in_order(backend):
    journal = RequestJournal(backend)
    a = journal.begin("a", "compile", {"name": "qa"})
    b = journal.begin("b", "compile", {"name": "qb"})
    da = journal.ack(a, {"kind": "compile", "name": "qa"})
    db = journal.ack(b, {"kind": "compile", "name": "qb"})
    assert journal.audit_digest() == chain_digest([da, db])
    # Reserved entries contribute nothing until written.
    journal.begin("c", "compile", {"name": "qc"})
    assert journal.audit_digest() == chain_digest([da, db])
    assert chain_digest([da, db]) != chain_digest([db, da])


def legacy_pending_row(store, seq, key, kind, payload):
    """The row the write-ahead journal of earlier versions appended
    before executing a request, left unacknowledged by a crash."""
    store._execute_write(
        "INSERT INTO request_journal (seq, idem_key, kind, payload, status, "
        "created_at) VALUES (?, ?, ?, ?, 'pending', 0)",
        (seq, key, kind, canonical_json(payload)),
    )


def test_compact_drops_acknowledged_prefix_only(backend):
    journal = RequestJournal(backend)
    for i in range(4):
        e = journal.begin(f"k{i}", "downgrade", {"i": i})
        if i == 2:
            legacy_pending_row(backend, e.seq, e.key, e.kind, e.payload)
        else:
            journal.ack(e, {"kind": "downgrade", "i": i})
    removed = journal.compact()
    assert removed == 3
    remaining = journal.entries()
    assert [e.key for e in remaining] == ["k2"]
    assert remaining[0].status == "pending"
    # Keys of compacted entries lose their dedup record — compaction is
    # for histories whose clients are gone (see OPERATIONS.md).
    assert journal.entry("k0") is None


def test_compaction_checkpoint_keeps_state_and_chain(backend):
    """What compaction deletes lives on in its checkpoint: the live state
    and the audit digest read the same before and after, across two
    compactions, and a later entry folds on top."""
    journal = RequestJournal(backend)
    ops = [
        ("cfg", "configure", {"v": 1}, {"kind": "configure"}),
        ("c1", "compile", {"name": "q"}, {"kind": "compile"}),
        ("o1", "open_session", {"session_id": "u1"}, {"kind": "open"}),
        ("o2", "open_session", {"session_id": "u2"}, {"kind": "open"}),
        ("d1", "downgrade", {"session_id": "u1", "query_name": "q"}, {"authorized": True}),
        ("d2", "downgrade", {"session_id": "u2", "query_name": "q"}, {"authorized": False}),
    ]
    for key, kind, payload, outcome in ops:
        journal.ack(journal.begin(key, kind, payload), outcome)
    state, digest = journal.state(), journal.audit_digest()
    assert state.answered == {"u1": ["q"]}
    assert journal.compact() == len(ops)
    assert journal.state() == state and journal.audit_digest() == digest
    assert journal.checkpoint().state.configure == {"v": 1}
    closed = journal.begin("x1", "close_session", {"session_id": "u1"})
    journal.ack(closed, {"kind": "close"})
    state, digest = journal.state(), journal.audit_digest()
    assert list(state.sessions) == ["u2"] and state.answered == {}
    assert journal.compact() == 1
    assert journal.state() == state and journal.audit_digest() == digest
    assert len(journal) == 0


def test_live_state_folds_compiles_and_sessions(backend):
    journal = RequestJournal(backend)
    ops = [
        ("c1", "compile", {"name": "q", "v": 1}),
        ("s1", "open_session", {"session_id": "u1"}),
        ("s2", "open_session", {"session_id": "u2"}),
        ("c2", "compile", {"name": "q", "v": 2}),
        ("x1", "close_session", {"session_id": "u1"}),
    ]
    for key, kind, payload in ops:
        e = journal.begin(key, kind, payload)
        journal.ack(e, {"kind": kind})
    state = live_state(journal.entries())
    assert state.compiles == {"q": {"name": "q", "v": 2}}  # last wins
    assert list(state.sessions) == ["u2"]


def test_format_version_mismatch_refuses_the_store(tmp_path):
    from repro.server.store import StoreFormatError

    path = tmp_path / "journal.sqlite"
    store = SQLiteStore(path)
    store._execute_write(
        "UPDATE meta SET value = ? WHERE key = ?",
        (str(JOURNAL_FORMAT_VERSION + 1), "journal_format_version"),
    )
    store.close()
    with pytest.raises(StoreFormatError):
        SQLiteStore(path)


def test_ack_with_bounds_lands_both_atomically():
    store = SQLiteStore(":memory:")
    journal = RequestJournal(store)
    entry = journal.begin("k", "downgrade", {"session_id": "u"})
    journal.ack_many(
        [(entry, {"kind": "downgrade", "authorized": True})],
        bounds=[("u", "Loc", {"payload": 1})],
    )
    assert journal.entry("k").status == "done"
    assert [(u, s, p) for u, s, p in store.ledger_bounds()] == [
        ("u", "Loc", {"payload": 1})
    ]
    # Users sharing one bound payload object each get their own row.
    shared = {"payload": 2}
    again = journal.begin("k2", "downgrade", {"session_id": "v"})
    journal.ack_many(
        [(again, {"kind": "downgrade", "authorized": True})],
        bounds=[("v", "Loc", shared), ("w", "Loc", shared), ("x", "Loc", {"payload": 3})],
    )
    assert sorted(store.ledger_bounds()) == [
        ("u", "Loc", {"payload": 1}),
        ("v", "Loc", {"payload": 2}),
        ("w", "Loc", {"payload": 2}),
        ("x", "Loc", {"payload": 3}),
    ]


def test_audit_spill_persists_to_the_store():
    from repro.service.api import AuditEvent

    store = SQLiteStore(":memory:")
    journal = RequestJournal(store)
    journal.spill_audit(
        [AuditEvent(seq=0, kind="downgrade", data={"session_id": "u"})]
    )
    assert store.audit_spill_count() == 1


# ---------------------------------------------------------------------------
# Idempotency properties
# ---------------------------------------------------------------------------

_DELIVERIES = st.lists(
    st.integers(min_value=0, max_value=4), min_size=1, max_size=25
)


@settings(max_examples=80, deadline=None)
@given(deliveries=_DELIVERIES)
def test_duplicated_reordered_deliveries_keep_one_row_per_key(deliveries):
    """At-least-once delivery, exactly-once rows: any interleaving of
    duplicate deliveries yields one journal row per key, and every
    delivery after the first ack sees the recorded response."""
    journal = RequestJournal(SQLiteStore(":memory:"))
    responses: dict[int, dict] = {}
    for request_id in deliveries:
        key = f"req/{request_id}"
        entry = journal.begin(key, "downgrade", {"request": request_id})
        if entry.status == "done":
            assert entry.response == responses[request_id]
            continue
        assert request_id not in responses
        outcome = {"kind": "downgrade", "request": request_id}
        journal.ack(entry, outcome)
        responses[request_id] = outcome
    assert len(journal) == len(set(deliveries))
    for request_id in set(deliveries):
        assert journal.recorded_response(f"req/{request_id}") == responses[request_id]
