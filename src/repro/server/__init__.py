"""The serving runtime: sharded, asynchronous, restartable, budgeted.

Where :mod:`repro.service` is the synchronous library surface (cache,
sessions, facade), :mod:`repro.server` is the *process* around it — the
layer ROADMAP's "heavy traffic" north star asks for:

* :mod:`repro.server.gateway` — the asyncio front door
  (:class:`~repro.server.gateway.DeclassificationServer`): coalesces
  identical in-flight compiles, batches each tick's downgrade requests
  into one job per query group (or per serving shard) resolved by a
  single flush loop, and sheds load past configured bounds;
* :mod:`repro.server.core` — the
  :class:`~repro.server.core.ServingCore`, the one batched
  ``downgrade`` (round-per-user split, ledger admission, session
  downgrades, commits, decision spans) that every serving path runs:
  gateway-local, degraded fallback, and each serving shard;
* :mod:`repro.server.workers` — a
  :class:`~repro.server.workers.ShardedCompilePool` running synthesis in
  worker processes sharded by canonical query hash so each shard's memos
  stay hot, and a :class:`~repro.server.workers.ServingShardPool`
  running the warm downgrade path in worker processes sharded by user id
  so batch evaluation escapes the gateway's GIL;
* :mod:`repro.server.store` — a durable
  :class:`~repro.server.store.SQLiteStore` of compiled artifacts
  (speaking the :mod:`repro.service.cache` v2 key/codec format) *and*
  per-user ledger bounds, warm-starting the whole runtime — budgets
  included — across restarts;
* :mod:`repro.server.ledger` — a
  :class:`~repro.server.ledger.PrivacyBudgetLedger` folding every
  answered query into per-user cumulative knowledge bounds and refusing
  queries that would cross a policy floor, making *multi-query
  composition* an enforced budget instead of implicit session state;
  optionally durable (any :class:`~repro.server.ledger.LedgerBackend`)
  and decaying (:class:`~repro.server.ledger.DecayPolicy` +
  :meth:`advance_epoch
  <repro.server.ledger.PrivacyBudgetLedger.advance_epoch>`);
* :mod:`repro.server.supervise` — the
  :class:`~repro.server.supervise.ShardSupervisor`: typed shard
  failures, per-job deadlines, bounded retries with jittered backoff,
  per-shard circuit breakers, and restart-plus-rehydrate recovery that
  keeps the runtime serving through process death;
* :mod:`repro.server.faults` — deterministic, seeded fault injection
  (:class:`~repro.server.faults.FaultPlan`) driving the chaos suite
  through every failure point reproducibly;
* :mod:`repro.server.journal` — a
  :class:`~repro.server.journal.RequestJournal` of every state-changing
  request, keyed by client idempotency keys and written once it has
  executed, atomically with the ledger's durable-mirror fold —
  exactly-once effects over at-least-once delivery;
* :mod:`repro.server.replay` — deterministic replay
  (:class:`~repro.server.replay.ReplaySession`): re-execute a recorded
  journal against a fresh twin and assert every decision, refusal, and
  audit digest comes out bit-identical;
* :mod:`repro.server.edge` — a stdlib-only HTTP adapter
  (:class:`~repro.server.edge.HttpEdge`) with structured error bodies,
  ``Retry-After`` on degradation, ``Idempotency-Key`` passthrough, and
  the observability surface (``/metrics``, ``/statusz``, structured
  access log) — zero domain rules.

Telemetry lives in :mod:`repro.obs` (registry, replay-stable tracer,
and the gateway's :class:`~repro.obs.hub.MetricsHub` fold point); every
layer above records into it and ``ServerConfig(observe=False)`` turns
the whole surface into no-ops.
"""

from repro.server.core import ServingCore
from repro.server.edge import HttpEdge
from repro.server.faults import FaultPlan, FaultSpec
from repro.server.gateway import (
    DeclassificationServer,
    JournalRecovery,
    JournalStopped,
    ServerCompileReceipt,
    ServerConfig,
    ServerDegraded,
    ServerOverloaded,
    ServerStats,
)
from repro.server.journal import (
    JOURNAL_FORMAT_VERSION,
    JournalBackend,
    JournalCheckpoint,
    JournalEntry,
    JournalState,
    RequestJournal,
    chain_digest,
    live_state,
)
from repro.server.ledger import (
    LEDGER_FORMAT_VERSION,
    BudgetAccount,
    ChargeRecord,
    DecayPolicy,
    LedgerBackend,
    LedgerDecision,
    LedgerFormatError,
    LedgerInvariantError,
    PrivacyBudgetLedger,
)
from repro.server.replay import (
    ReplayDivergence,
    ReplayRefusal,
    ReplayReport,
    ReplaySession,
    replay_journal,
)
from repro.server.store import SQLiteStore, StoreFormatError
from repro.server.supervise import (
    CircuitBreaker,
    CodecError,
    RetryPolicy,
    ShardCrash,
    ShardFailure,
    ShardSupervisor,
    ShardTimeout,
    SupervisorStats,
    classify_failure,
)
from repro.server.workers import (
    ServingShardPool,
    ShardedCompilePool,
    ShardOverloaded,
    ShardStats,
    compile_payload,
    result_kind,
    serve_payload,
    serve_shard_of,
    shard_of,
)

__all__ = [
    "DeclassificationServer",
    "JournalRecovery",
    "JournalStopped",
    "ServerCompileReceipt",
    "ServerConfig",
    "ServerDegraded",
    "ServerOverloaded",
    "ServerStats",
    "ServingCore",
    "FaultPlan",
    "FaultSpec",
    "HttpEdge",
    "JOURNAL_FORMAT_VERSION",
    "JournalBackend",
    "JournalCheckpoint",
    "JournalEntry",
    "JournalState",
    "RequestJournal",
    "chain_digest",
    "live_state",
    "ReplayDivergence",
    "ReplayRefusal",
    "ReplayReport",
    "ReplaySession",
    "replay_journal",
    "CircuitBreaker",
    "CodecError",
    "RetryPolicy",
    "ShardCrash",
    "ShardFailure",
    "ShardSupervisor",
    "ShardTimeout",
    "SupervisorStats",
    "classify_failure",
    "LEDGER_FORMAT_VERSION",
    "BudgetAccount",
    "ChargeRecord",
    "DecayPolicy",
    "LedgerBackend",
    "LedgerDecision",
    "LedgerFormatError",
    "LedgerInvariantError",
    "PrivacyBudgetLedger",
    "SQLiteStore",
    "StoreFormatError",
    "ServingShardPool",
    "ShardedCompilePool",
    "ShardOverloaded",
    "ShardStats",
    "compile_payload",
    "result_kind",
    "serve_payload",
    "serve_shard_of",
    "shard_of",
]
