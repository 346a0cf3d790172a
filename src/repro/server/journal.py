"""The request journal: crash consistency for the gateway.

PR 7 made the runtime survive its *shards*; this module makes it survive
its *gateway*.  The durable store already holds everything the runtime
must not lose slowly (artifacts, ledger bounds); the journal holds what
it must not lose *per request*: every state-changing request
(configure / compile / open / close / epoch / downgrade) is reserved a
monotone sequence number under a client-supplied **idempotency key**,
executes, and is then written already done — with a digest of its
outcome and the ledger bounds it drained — in one durable transaction.
Three properties fall out:

* **exactly-once effects over at-least-once delivery** — a duplicate
  idempotency key short-circuits to the recorded response instead of
  re-executing, so a client that retries after a lost response never
  double-charges a budget (this subsumes the ``duplicate_delivery``
  fault at the network edge);
* **crash recovery** — a request's row and its ledger bounds land in
  one transaction, so a gateway death leaves either both or neither;
  a successor rebuilds the live state the written rows imply
  (:meth:`DeclassificationServer.recover_from_journal
  <repro.server.gateway.DeclassificationServer.recover_from_journal>`),
  and a request that died unwritten is re-run from the same prior by
  the client's retry;
* **deterministic replay** — the written history, re-executed in
  sequence order against a fresh gateway, must reproduce every outcome
  digest bit-for-bit (:class:`~repro.server.replay.ReplaySession`).

The storage lives in :class:`~repro.server.store.SQLiteStore`'s
``request_journal`` table (independently format-versioned, like
``ledger_bounds``); a journal that needs no durable store is an
``SQLiteStore(":memory:")``, which keeps the whole contract for one
process lifetime.  :class:`RequestJournal` is the typed wrapper both the
gateway and the replay tool speak.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Protocol, runtime_checkable

from repro.obs.metrics import NULL_REGISTRY, LazySeries
from repro.service.serialize import canonical_json, payload_digest

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "JournalEntry",
    "JournalBackend",
    "JournalCheckpoint",
    "RequestJournal",
    "JournalState",
    "chain_digest",
    "live_state",
]

#: Version of the journal row encoding.  Bumped when the payload/outcome
#: codecs change incompatibly; a store written by a different version
#: refuses to open (see ``SQLiteStore._check_version``).
JOURNAL_FORMAT_VERSION = 1

#: Seed of every chained audit digest, so an empty journal has a
#: well-defined digest and chains never collide with raw sha256 output.
_CHAIN_SEED = "anosy-journal-v1"


@dataclass(frozen=True)
class JournalEntry:
    """One journaled request: identity, payload, and (once written) outcome.

    ``status`` is ``"done"`` for a written row and ``"reserved"`` for an
    entry :meth:`RequestJournal.begin` holds in memory until
    :meth:`RequestJournal.ack` writes it; ``"pending"`` rows exist only
    in stores of the earlier write-ahead journal (requests that never
    answered their client).  ``outcome_digest`` / ``response`` are
    ``None`` exactly while not done.  ``response`` is the full recorded
    response returned to duplicate deliveries; ``outcome_digest`` covers
    only the *deterministic* outcome encoding (DESIGN.md §12).
    """

    seq: int
    key: str
    kind: str
    payload: dict[str, Any]
    status: str
    outcome_digest: str | None = None
    response: dict[str, Any] | None = None


_APPENDS_TOTAL = LazySeries(
    "counter",
    "anosy_journal_appends_total",
    "Requests reserved a journal sequence number before execution.",
)
_ACK_SECONDS = LazySeries(
    "histogram",
    "anosy_journal_ack_seconds",
    "Durable write latency, per journal transaction (executed rows and "
    "the ledger-mirror bounds they drained).",
    channel="timing",
)
_ACKS_TOTAL = LazySeries(
    "counter",
    "anosy_journal_acks_total",
    "Executed requests written to the journal.",
)

#: Raw backend row: (seq, key, kind, payload_json, status, digest, response_json).
_Row = tuple[int, str, str, str, str, str | None, str | None]


@runtime_checkable
class JournalBackend(Protocol):
    """Durable storage contract behind :class:`RequestJournal`.

    :class:`~repro.server.store.SQLiteStore` implements this against its
    ``request_journal``, ``ledger_bounds`` and ``audit_spill`` tables.
    Rows are written once, already done, by :meth:`journal_write`; only a
    retry of a key whose row is not done replaces it, and only
    :meth:`journal_compact` deletes rows, leaving a checkpoint of what it
    deleted in their place.
    """

    def journal_write(
        self,
        rows: list[tuple[int, str, str, str, str, str]],
        bounds: Iterable[tuple[str, str, dict[str, Any]]] = (),
    ) -> None:
        """Insert ``(seq, key, kind, payload_json, digest, response_json)``
        rows as done, replacing a not-done row under the same key, and put
        the ledger *bounds* in the same durable transaction."""
        ...

    def append_audit_spill(self, rows: list[tuple[int, str, str]]) -> None:
        """Persist audit events evicted from the in-memory ring."""
        ...

    def journal_lookup(self, keys: list[str]) -> list[_Row]:
        """The rows under *keys*, in one read."""
        ...

    def journal_entries(self) -> list[_Row]:
        """Every row, in sequence order."""
        ...

    def journal_count(self) -> int:
        """Number of rows, without reading any row's payload."""
        ...

    def journal_next_seq(self) -> int:
        """One past the highest sequence number ever written."""
        ...

    def journal_checkpoint(self) -> str | None:
        """The JSON checkpoint the last compaction stored, or ``None``."""
        ...

    def journal_compact(self, seqs: list[int], checkpoint: str) -> int:
        """Store *checkpoint* and delete the done rows among *seqs*, in
        one durable transaction; return the count deleted."""
        ...

    def ledger_bounds(self) -> Iterable[tuple[str, str, dict[str, Any]]]:
        """Every durable ``(user_id, spec_name, payload)`` ledger bound."""
        ...


def _decode_row(row: _Row) -> JournalEntry:
    seq, key, kind, payload_json, status, digest, response_json = row
    return JournalEntry(
        seq=int(seq),
        key=key,
        kind=kind,
        payload=json.loads(payload_json),
        status=status,
        outcome_digest=digest,
        response=None if response_json is None else json.loads(response_json),
    )


class RequestJournal:
    """The gateway's request journal, typed.

    Wraps a :class:`JournalBackend` with the discipline the gateway
    follows (see DESIGN.md §12): :meth:`begin` reserves a sequence number
    before execution and writes nothing, :meth:`ack` writes the executed
    request done together with the drained ledger-mirror bounds, and
    duplicate keys are answered from :meth:`recorded_response`.  Also the
    spill sink for the bounded in-memory audit trail (:meth:`spill_audit`)
    and the source :class:`~repro.server.replay.ReplaySession` reads.

    The journal has one writer, so sequence numbers come from an
    in-memory counter booted from the store's high-water mark.  A
    reservation that is never written (a shed, invalid or failed request)
    leaves a gap in the sequence, which recovery, replay and compaction
    all accept.
    """

    def __init__(self, backend: JournalBackend):
        self.backend = backend
        #: Where reservation/write latency and volume land; the owning
        #: gateway swaps in its hub's registry (see ``DeclassificationServer``).
        self.metrics: Any = NULL_REGISTRY
        self._lock = threading.Lock()
        self._next_seq = backend.journal_next_seq()
        # Auto-keys (server-generated, for callers that did not supply
        # one) count up from a boot floor above both the sequence
        # high-water mark and every auto key already journaled, so a
        # restarted process never reissues a dead process's keys (which
        # would silently short-circuit to the dead request's response).
        floor = self._next_seq
        for row in backend.journal_entries():
            key = row[1]
            if key.startswith("auto/"):
                tail = key.rsplit("/", 1)[-1]
                if tail.isdigit():
                    floor = max(floor, int(tail) + 1)
        self._auto = floor

    # -- write path --------------------------------------------------------
    def auto_key(self, kind: str) -> str:
        """A fresh server-generated idempotency key for one request."""
        with self._lock:
            n = self._auto
            self._auto += 1
        return f"auto/{kind}/{n}"

    def begin(self, key: str, kind: str, payload: dict[str, Any]) -> JournalEntry:
        """Reserve one request's sequence number before executing it.

        Returns the recorded entry when the key is already written
        (``status == "done"``: short-circuit to its ``response`` instead
        of executing again), else a ``"reserved"`` entry for :meth:`ack`.
        """
        return self.begin_many([(key, kind, payload)])[0]

    def begin_many(
        self, items: list[tuple[str, str, dict[str, Any]]]
    ) -> list[JournalEntry]:
        """Batched :meth:`begin`: one read, and no write.

        The read answers the keys already written done.  Every other key
        is numbered from the in-memory counter; a key repeated within
        *items* shares one reservation.
        """
        if not items:
            return []
        done = {
            row[1]: _decode_row(row)
            for row in self.backend.journal_lookup([key for key, _k, _p in items])
            if row[4] == "done"
        }
        fresh: dict[str, JournalEntry] = {}
        with self._lock:
            for key, kind, payload in items:
                if key not in done and key not in fresh:
                    fresh[key] = JournalEntry(
                        self._next_seq, key, kind, payload, "reserved"
                    )
                    self._next_seq += 1
        metrics = self.metrics
        if metrics and fresh:
            _APPENDS_TOTAL(metrics).inc(len(fresh))
        return [done.get(key) or fresh[key] for key, _kind, _payload in items]

    def ack(
        self,
        entry: JournalEntry,
        outcome: dict[str, Any],
        *,
        response: dict[str, Any] | None = None,
        bounds: list[tuple[str, str, dict[str, Any]]] | None = None,
    ) -> str:
        """Write one executed request done; returns its outcome digest.

        *outcome* is the deterministic encoding the digest covers (and
        replay recomputes); *response* is what duplicate deliveries get
        back, defaulting to the outcome itself.  *bounds* are drained
        ledger-mirror writes to land in the same transaction (see
        :meth:`ack_many`).
        """
        digest = payload_digest(outcome)
        self._write(
            [(entry, digest, canonical_json(outcome if response is None else response))],
            bounds,
        )
        return digest

    def ack_many(
        self,
        items: list[tuple[JournalEntry, dict[str, Any]]],
        *,
        bounds: list[tuple[str, str, dict[str, Any]]] | None = None,
    ) -> list[str]:
        """Batched :meth:`ack` (outcome doubles as the response).

        When *bounds* — ``(user_id, spec_name, payload)`` ledger-mirror
        writes drained from a buffering ledger — are supplied, they are
        written in the *same* transaction as the rows.  That atomicity is
        the exactly-once guarantee.
        """
        if not items and not bounds:
            return []
        digests = [payload_digest(outcome) for _entry, outcome in items]
        self._write(
            [
                (entry, digest, canonical_json(outcome))
                for (entry, outcome), digest in zip(items, digests)
            ],
            bounds,
        )
        return digests

    def _write(
        self,
        rows: list[tuple[JournalEntry, str, str]],
        bounds: list[tuple[str, str, dict[str, Any]]] | None,
    ) -> None:
        start = time.perf_counter()
        self.backend.journal_write(
            [
                (e.seq, e.key, e.kind, canonical_json(e.payload), digest, response)
                for e, digest, response in rows
            ],
            bounds or (),
        )
        metrics = self.metrics
        if metrics:
            _ACK_SECONDS(metrics).observe(time.perf_counter() - start)
            _ACKS_TOTAL(metrics).inc(len(rows))

    # -- read path ---------------------------------------------------------
    def entry(self, key: str) -> JournalEntry | None:
        """The entry under *key*, or ``None``."""
        rows = self.backend.journal_lookup([key])
        return _decode_row(rows[0]) if rows else None

    def recorded_response(self, key: str) -> dict[str, Any] | None:
        """The recorded response for a key written done, else ``None``."""
        entry = self.entry(key)
        return entry.response if entry is not None and entry.status == "done" else None

    def entries(self) -> list[JournalEntry]:
        """Every entry, in sequence order."""
        return [_decode_row(row) for row in self.backend.journal_entries()]

    def __len__(self) -> int:
        """Number of journaled rows, without decoding any."""
        return self.backend.journal_count()

    def audit_digest(self) -> str:
        """The chained digest over every written outcome, in order.

        This is the journal's one-line fingerprint of the run: replaying
        the journal must reproduce it exactly
        (:attr:`~repro.server.replay.ReplayReport.conforms`).
        """
        return chain_digest(
            (
                e.outcome_digest
                for e in self.entries()
                if e.status == "done" and e.outcome_digest is not None
            ),
            seed=self.checkpoint().chain,
        )

    def checkpoint(self) -> "JournalCheckpoint":
        """What :meth:`compact` kept of the rows it deleted (empty before
        the first compaction)."""
        blob = self.backend.journal_checkpoint()
        if blob is None:
            return JournalCheckpoint()
        return JournalCheckpoint.from_json(json.loads(blob))

    def state(self) -> "JournalState":
        """The live state the whole journal implies, checkpoint included."""
        return live_state(self.entries(), base=self.checkpoint().state)

    # -- maintenance -------------------------------------------------------
    def spill_audit(self, events: Iterable[Any]) -> None:
        """Persist audit events evicted from the in-memory ring.

        The sink for :class:`~repro.service.api.AuditTrail`'s overflow
        hook; events land in the backend's ``audit_spill`` table.
        """
        self.backend.append_audit_spill(
            [
                (event.seq, event.kind, canonical_json(event.data))
                for event in events
            ]
        )

    def compact(self) -> int:
        """Fold every done entry into the checkpoint; return how many rows
        were deleted.

        The checkpoint (:class:`JournalCheckpoint`) keeps what recovery
        and replay still need of the deleted rows: the live state they
        imply, their chained audit digest, and the ledger bounds the
        store holds at this moment, which are exactly the written rows'
        effect (every bound lands in its row's transaction).  It is
        written in the same transaction that deletes the rows.  A pending
        row an earlier version left behind stays until a retry of its key
        replaces it.

        Compaction narrows the duplicate-detection window: a client
        retrying a compacted key re-executes instead of short-circuiting
        — safe for effects (ledger folds are idempotent) but it may
        observe a fresher outcome, so compact less often than the
        longest client retry window (see the operations runbook).
        """
        done = [e for e in self.entries() if e.status == "done"]
        if not done:
            return 0
        previous = self.checkpoint()
        checkpoint = JournalCheckpoint(
            state=live_state(done, base=previous.state),
            chain=chain_digest(
                (e.outcome_digest for e in done if e.outcome_digest is not None),
                seed=previous.chain,
            ),
            bounds=[list(row) for row in self.backend.ledger_bounds()],
        )
        return self.backend.journal_compact(
            [e.seq for e in done], canonical_json(asdict(checkpoint))
        )


def chain_digest(digests: Iterable[str], *, seed: str | None = None) -> str:
    """Fold a digest sequence into one order-sensitive chained digest.

    *seed* continues a chain: ``chain_digest(b, seed=chain_digest(a))``
    equals ``chain_digest(a + b)``, which is how a compacted journal's
    checkpoint stands in for the rows it deleted.
    """
    acc = seed or hashlib.sha256(_CHAIN_SEED.encode("utf-8")).hexdigest()
    for digest in digests:
        acc = hashlib.sha256((acc + digest).encode("utf-8")).hexdigest()
    return acc


@dataclass
class JournalState:
    """The live gateway state a journal prefix's done entries imply.

    ``configure`` is the latest configure payload; ``compiles`` maps
    query name → latest compile payload; ``sessions`` maps session id →
    its open payload, with closed sessions removed; ``answered`` maps a
    live session id → the queries it was authorized on, in the order
    first answered (the knowledge a rebuild re-folds).  Recovery (after
    a crash) and replay (at a restart boundary) rebuild a generation
    from it through one gateway method,
    :meth:`~repro.server.gateway.DeclassificationServer.rebuild_generation`,
    and compaction stores it in its checkpoint.
    """

    configure: dict[str, Any] | None = None
    compiles: dict[str, dict[str, Any]] = field(default_factory=dict)
    sessions: dict[str, dict[str, Any]] = field(default_factory=dict)
    answered: dict[str, list[str]] = field(default_factory=dict)

    def fold(self, entry: JournalEntry) -> None:
        """Fold one entry into the state."""
        if entry.kind == "configure":
            self.configure = entry.payload
        elif entry.kind == "compile":
            self.compiles[entry.payload["name"]] = entry.payload
        elif entry.kind == "open_session":
            self.sessions[entry.payload["session_id"]] = entry.payload
        elif entry.kind == "close_session":
            self.sessions.pop(entry.payload["session_id"], None)
            self.answered.pop(entry.payload["session_id"], None)
        elif entry.kind == "downgrade" and (entry.response or {}).get("authorized"):
            session_id = entry.payload["session_id"]
            if session_id in self.sessions:
                queries = self.answered.setdefault(session_id, [])
                if entry.payload["query_name"] not in queries:
                    queries.append(entry.payload["query_name"])

    def copy(self) -> "JournalState":
        """A copy that folding does not share (payloads are never mutated)."""
        return JournalState(
            configure=self.configure,
            compiles=dict(self.compiles),
            sessions=dict(self.sessions),
            answered={sid: list(queries) for sid, queries in self.answered.items()},
        )


@dataclass(frozen=True)
class JournalCheckpoint:
    """What :meth:`RequestJournal.compact` keeps of the rows it deletes.

    ``state`` is the live state they imply, ``chain`` their chained
    audit digest (the seed of every later :func:`chain_digest`), and
    ``bounds`` the ``[user_id, spec_name, payload]`` ledger bounds the
    store held when they were deleted: replay seeds its twin's ledger
    with them.  The empty checkpoint (nothing compacted yet) changes
    nothing.
    """

    state: JournalState = field(default_factory=JournalState)
    chain: str | None = None
    bounds: list[list[Any]] = field(default_factory=list)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "JournalCheckpoint":
        """Decode what :meth:`RequestJournal.compact` stored (``asdict``)."""
        return cls(
            state=JournalState(**data["state"]),
            chain=data["chain"],
            bounds=data["bounds"],
        )


def live_state(
    entries: Iterable[JournalEntry], *, base: JournalState | None = None
) -> JournalState:
    """Fold a journal prefix into the ephemeral state it implies.

    *base* is the state of the rows a compaction deleted (left
    untouched).  Only done entries fold: a pending row (left by an
    earlier, write-ahead version of the journal) is a request that never
    answered its client, and one that is invalid must not be rebuilt on
    every boot.
    """
    state = JournalState() if base is None else base.copy()
    for entry in sorted(entries, key=lambda e: e.seq):
        if entry.status == "done":
            state.fold(entry)
    return state
