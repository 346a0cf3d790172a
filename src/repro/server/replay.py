"""Deterministic replay of a request journal — the conformance check.

A journaled :class:`~repro.server.gateway.DeclassificationServer`
writes every state-changing request once it has executed, with a digest
of a *deterministic* outcome encoding (:mod:`repro.server.journal`).
This module closes the loop: a :class:`ReplaySession` re-executes that
history against a fresh, unjournaled twin — inline shards, no wall
clock, no process pools — and checks that every decision comes out
**bit-identical**:

* each written entry's re-executed outcome must digest to exactly
  its recorded ``outcome_digest`` (a mismatch is a
  :class:`ReplayDivergence`, pinpointed by sequence number);
* the chained digest over the replayed history must equal the chain over
  the recorded one — the journal's tamper-evident
  :meth:`~repro.server.journal.RequestJournal.audit_digest`;
* refusals (unauthorized downgrades) are surfaced in order, so a
  post-incident review can see *which* requests the budget floor
  rejected and confirm the replayed run refuses the very same ones;
* trace trees are part of the contract: the twin derives each
  downgrade's trace id from the entry's key and sequence number —
  exactly as the recorded process did — and the report carries the
  digest over its canonical trees
  (:meth:`~repro.obs.trace.Tracer.digest`).  Pass the source gateway's
  ``hub.tracer.digest()`` as ``trace_digest`` and ``conforms`` also
  asserts the replayed trees are byte-identical to the recorded ones.

Restart boundaries are part of the history: each ``configure`` entry
marks a process generation, and replay builds a fresh twin there and
rebuilds it through the same
:meth:`~repro.server.gateway.DeclassificationServer.rebuild_generation`
a real boot's recovery runs, while the ledger persists on one shared
in-memory store, just as the real store survives real restarts.  A
journal recorded across N crashes therefore replays as N generations
converging on one ledger.

A compacted journal replays from its checkpoint
(:class:`~repro.server.journal.JournalCheckpoint`): the twin of the
generation the checkpoint ends in boots on the ledger bounds it saved,
rebuilds the live state it folded, and both chained digests continue
from its chain.  The deleted rows themselves are not re-executed (nor
are their trace trees rebuilt); the backups taken before compaction are
their record.

Only done rows are replayed.  A pending row, left by an earlier,
write-ahead version of the journal, is a request that never answered its
client; replay skips it, as
:meth:`~repro.server.gateway.DeclassificationServer.recover_from_journal`
does on a real boot.  A written entry that is invalid on its own terms
(:data:`REJECTED_REQUEST_ERRORS`) is recorded as an ``error`` outcome,
never raised.

Replay is deliberately dependency-free beyond the runtime itself: feed
it a :class:`~repro.server.journal.RequestJournal`, any backend, or a
plain list of entries (e.g. decoded from a journal backup), and call
:func:`replay_journal` — or :meth:`ReplaySession.run` from async code.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.lang.lexer import LexError
from repro.lang.parser import ParseError
from repro.lang.validate import QueryValidationError
from repro.obs.trace import Tracer
from repro.server.gateway import DeclassificationServer
from repro.server.journal import (
    JournalBackend,
    JournalCheckpoint,
    JournalEntry,
    RequestJournal,
    chain_digest,
    live_state,
)
from repro.server.store import SQLiteStore
from repro.service.serialize import payload_digest

__all__ = [
    "REJECTED_REQUEST_ERRORS",
    "ReplayDivergence",
    "ReplayRefusal",
    "ReplayReport",
    "ReplaySession",
    "replay_journal",
]


#: What a request raises when it is invalid on its own terms (query text
#: that does not lex, parse or fit its secret, an unknown or duplicate
#: session, a malformed payload): replay records it as an ``error``.
REJECTED_REQUEST_ERRORS = (ValueError, KeyError, LexError, ParseError, QueryValidationError)


@dataclass(frozen=True)
class ReplayDivergence:
    """One written entry whose re-execution digested differently."""

    seq: int
    kind: str
    key: str
    recorded: str
    actual: str


@dataclass(frozen=True)
class ReplayRefusal:
    """One unauthorized downgrade observed during replay, in order."""

    seq: int
    session_id: str
    query_name: str
    reason: str


@dataclass(frozen=True)
class ReplayReport:
    """What a full replay established about a journal.

    ``conforms`` is the headline: every written outcome re-executed
    bit-identically *and* the chained digests match.  The rest is the
    evidence an operator (or the conformance test) drills into.
    """

    entries: int
    replayed: int
    matched: int
    restarts: int
    divergences: tuple[ReplayDivergence, ...] = ()
    refusals: tuple[ReplayRefusal, ...] = ()
    recorded_digest: str = ""
    replayed_digest: str = ""
    recorded_trace_digest: str = ""
    replayed_trace_digest: str = ""

    @property
    def conforms(self) -> bool:
        """True when the replayed history is bit-identical to the record.

        Covers outcomes (per-entry digests + chained digest) and, when a
        recorded trace digest was supplied, the canonical trace trees.
        """
        return (
            not self.divergences
            and self.recorded_digest == self.replayed_digest
            and (
                not self.recorded_trace_digest
                or self.recorded_trace_digest == self.replayed_trace_digest
            )
        )


class ReplaySession:
    """Re-execute a journal against a fresh twin and compare outcomes.

    The twin is built from each ``configure`` entry's payload
    (:meth:`DeclassificationServer.replay_twin
    <repro.server.gateway.DeclassificationServer.replay_twin>`) — the
    same policies, floor, decay, mode, and options the recorded process
    ran with — but always inline and unjournaled: replay must be free of
    process pools, timers, and the journal itself, so the only thing
    that can vary is the decision logic under test.
    """

    def __init__(
        self,
        source: RequestJournal | JournalBackend | Sequence[JournalEntry],
        *,
        trace_digest: str | None = None,
    ):
        if isinstance(source, JournalBackend):
            source = RequestJournal(source)
        #: The compaction checkpoint replay starts from (empty for a
        #: whole journal or a bare entry list).
        self.checkpoint = JournalCheckpoint()
        if isinstance(source, RequestJournal):
            entries: Iterable[JournalEntry] = source.entries()
            self.checkpoint = source.checkpoint()
        else:
            entries = source
        self.entries = sorted(
            (e for e in entries if e.status == "done"), key=lambda e: e.seq
        )
        self.trace_digest = trace_digest
        # Accumulates every generation's spans; sized so no replayed
        # trace is evicted mid-run (one trace per entry is an upper
        # bound), and exposed so tests can diff individual trees.
        self.tracer = Tracer(capacity=max(1024, len(self.entries) + 1))
        booted = self.checkpoint.state.configure is not None
        if not booted and self.entries and self.entries[0].kind != "configure":
            raise ValueError(
                "journal does not start with a configure entry; "
                "replay cannot reconstruct the server it recorded"
            )

    async def run(self) -> ReplayReport:
        """Replay every entry; returns the conformance report."""
        store = SQLiteStore(":memory:")
        server: DeclassificationServer | None = None
        recorded: list[str] = []
        replayed: list[str] = []
        divergences: list[ReplayDivergence] = []
        refusals: list[ReplayRefusal] = []
        matched = 0
        restarts = -1  # the first configure entry is boot, not a restart
        checkpoint = self.checkpoint
        if checkpoint.state.configure is not None:
            # A compacted journal: boot the generation the checkpoint
            # ends in, with the ledger the store held at compaction.
            for user_id, spec_name, payload in checkpoint.bounds:
                store.put_ledger_bound(user_id, spec_name, payload)
            server = DeclassificationServer.replay_twin(
                checkpoint.state.configure, store
            )
            await server.rebuild_generation(checkpoint.state)
            restarts = 0

        for index, entry in enumerate(self.entries):
            if entry.kind == "configure":
                if server is not None:
                    self._collect_spans(server)
                    server.shutdown()
                # A new process generation: the store is shared across
                # generations — like the real SQLite file surviving a
                # crash — and the twin rebuilds live queries, sessions
                # and knowledge exactly as the recorded process's
                # recovery did when it booted.
                server = DeclassificationServer.replay_twin(entry.payload, store)
                await server.rebuild_generation(
                    live_state(self.entries[:index], base=checkpoint.state)
                )
                restarts += 1
            try:
                actual = await server.apply_entry(
                    entry.kind,
                    entry.payload,
                    idempotency_key=entry.key,
                    trace_seq=entry.seq,
                )
            except REJECTED_REQUEST_ERRORS as exc:
                actual = {"kind": "error", "error": type(exc).__name__}
            if entry.kind == "downgrade":
                if actual.get("authorized") is False:
                    refusals.append(
                        ReplayRefusal(
                            seq=entry.seq,
                            session_id=entry.payload.get("session_id", ""),
                            query_name=entry.payload.get("query_name", ""),
                            reason=str(actual.get("reason", "")),
                        )
                    )
            digest = payload_digest(actual)
            recorded.append(entry.outcome_digest or "")
            replayed.append(digest)
            if digest == entry.outcome_digest:
                matched += 1
            else:
                divergences.append(
                    ReplayDivergence(
                        seq=entry.seq,
                        kind=entry.kind,
                        key=entry.key,
                        recorded=entry.outcome_digest or "",
                        actual=digest,
                    )
                )

        if server is not None:
            self._collect_spans(server)
            server.shutdown()
        return ReplayReport(
            entries=len(self.entries),
            replayed=len(replayed),
            matched=matched,
            restarts=max(restarts, 0),
            divergences=tuple(divergences),
            refusals=tuple(refusals),
            recorded_digest=chain_digest(recorded, seed=checkpoint.chain),
            replayed_digest=chain_digest(replayed, seed=checkpoint.chain),
            recorded_trace_digest=self.trace_digest or "",
            replayed_trace_digest=self.tracer.digest(),
        )

    def _collect_spans(self, server: DeclassificationServer) -> None:
        """Fold one generation's spans into the session-wide tracer.

        Each generation's twin has its own hub; the conformance digest
        is over the whole history, so spans accumulate here before the
        generation is shut down.
        """
        tracer = server.hub.tracer
        for trace_id in tracer.trace_ids():
            self.tracer.absorb(span.to_json() for span in tracer.spans(trace_id))


def replay_journal(
    source: RequestJournal | JournalBackend | Sequence[JournalEntry],
    *,
    trace_digest: str | None = None,
) -> ReplayReport:
    """Synchronous one-call replay (wraps :meth:`ReplaySession.run`)."""
    return asyncio.run(ReplaySession(source, trace_digest=trace_digest).run())
