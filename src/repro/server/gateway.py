"""The asyncio gateway: one event loop in front of shards, store, ledger.

This is the composition root of the serving runtime::

    clients ──► DeclassificationServer (asyncio)
                  │ compile path          │ downgrade path (per-tick jobs)
                  ▼                       ▼
            ShardedCompilePool      ServingShardPool ── or ── gateway ServingCore
              (process shards)      (process shards,          (gateway-local,
                  │                  routed by user id)        the default, and
                  │                       │  ServingCore         the degraded
                  │                       │  + shard ledger      fallback)
                  │                       ▼                          ▼
                  │                 PrivacyBudgetLedger ◄── admission/commit
                  │                  (durable gateway mirror)
                  ▼                       │ ledger deltas
            SynthesisCache ◄──────────────┤
                  │ write-through / warm start / ledger_bounds
                  ▼
              SQLiteStore

Two amortization mechanisms live here, both pure event-loop state:

* **in-flight coalescing** — concurrent compile requests for the same
  *canonical* problem (same cache key) collapse onto one shard job; every
  waiter registers its own name against the one artifact;
* **tick batching** — downgrade requests are queued, and each tick
  (arrival-driven: the first queued request schedules a flush, and
  requests arriving while it runs ride the next) serves all requests
  for one query through a single
  :meth:`~repro.server.core.ServingCore.serve_batch` pass, so a thousand
  concurrent askers of one query cost one ind.-set fetch and one
  memoized intersection per distinct prior.

The ledger interposes on every downgrade: admission is checked (on both
potential posteriors — secret-independent) *before* the batch runs, and
answered queries are committed after.  A budget refusal therefore never
reaches the session layer at all: the session's knowledge, the user's
bounds, and the response are all untouched — only the refusal itself is
observable.

**Where downgrades execute** is configurable; either way every batch
runs through a :class:`~repro.server.core.ServingCore`.  By default
(``serving_shards=0``) it is the gateway's own core — the service's
:class:`~repro.service.session.SessionManager` and the ledger — run on
the gateway's event loop: simple, and right for small deployments.  A
gateway-local tick runs its batches back to back and never yields from
its journal reservation to its last write, so no other request runs in
the middle of one.  With ``serving_shards=N`` the warm path moves off the
gateway entirely: sessions route by
:func:`~repro.server.workers.serve_shard_of` over the durable user id to
one of N single-process serving shards, each running a core over the
sessions *and* the ledger accounts of its users, so batch evaluation
runs under N independent GILs.  Shards are enforcement-authoritative; the gateway
keeps a durable *mirror* ledger and folds the bound deltas each shard
returns into it (write-through to the store), so durability needs no
cross-process SQLite writers.

Restart story: everything the runtime must not lose — compiled artifacts
and ledger bounds — lives in the store; everything else (sessions,
queues, in-flight futures, shard-local serving state) is ephemeral by
design.  Boot = construct a server on the same store path; the cache
preloads every artifact, previously-served queries register with zero
shard jobs, and the mirror ledger reloads every user's bounds — a
restarted server refuses exactly what the killed one refused (the
kill-and-restart tests in ``tests/server/test_gateway.py`` assert
exactly that).

With a :class:`~repro.server.journal.RequestJournal` attached the
restart story extends to *requests in flight*.  Every state-changing
request is one event-loop step ending in one durable write: reserve a
sequence number in memory, execute, write the row done together with
the ledger bounds it drained.  Downgrades reserve per flush and write
per gateway-core job; every lifecycle request — compile, open, close,
epoch — runs through ``DeclassificationServer._lifecycle``, to which its
kind supplies only a payload, an executor and its codecs (a compile's
artifact reaches the cache first, so ``_lifecycle`` never awaits).  A
crash before the write leaves nothing durable (DESIGN.md §12); a failed
write stops the journal (:class:`JournalStopped`).  Duplicate deliveries
short-circuit to recorded responses, and recovery
(:meth:`recover_from_journal`) and replay
(:class:`~repro.server.replay.ReplaySession`) share one generation
rebuild (:meth:`rebuild_generation`), so the written history replays
bit for bit.  A journaled server's durable ledger lives in the journal's
own store, so every row lands in one transaction with the bounds it
justifies; construction refuses a ledger store other than
``journal.backend``.

Each serving shard job builds its ops, when it ships, from the shard's
*view* (what that process holds), and the gateway forgets a view it can
no longer vouch for, so a shard's bound for every user it holds is the
mirror's (DESIGN.md §9).

The same durability split powers *mid-flight* recovery (see
:mod:`repro.server.supervise` and DESIGN.md §10): every shard job runs
under a :class:`~repro.server.supervise.ShardSupervisor` with a
per-job deadline, bounded retries, and a per-shard circuit breaker.  A
dead or hung shard is killed and replaced and its view forgotten, so
the retry ships everything the job needs to a fresh shard; once a
shard's breaker opens, its work degrades onto the gateway's own core
(compiles: inline execution) until a half-open probe succeeds.  Past a
degraded-capacity watermark the gateway sheds with
:class:`ServerDegraded`, whose ``retry_after`` carries the earliest
breaker probe time.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, NamedTuple

from repro.core.plugin import CompileOptions
from repro.lang.canonical import (
    expr_from_json,
    expr_to_json,
    spec_from_json,
    spec_to_json,
)
from repro.lang.parser import parse_bool
from repro.lang.secrets import SecretSpec, SecretValue
from repro.lang.validate import validate_query
from repro.monad.policy import QuantitativePolicy
from repro.monad.protected import ProtectedSecret
from repro.obs.hub import MetricsHub
from repro.obs.metrics import LazySeries
from repro.obs.trace import span_id_for, trace_id_for
from repro.server import faults
from repro.server.core import ServingCore, result_kind
from repro.server.faults import FaultPlan
from repro.server.journal import JournalEntry, JournalState, RequestJournal
from repro.server.ledger import DecayPolicy, PrivacyBudgetLedger
from repro.server.supervise import RetryPolicy, ShardSupervisor
from repro.server.workers import (
    ServingShardPool,
    ShardedCompilePool,
    ShardOverloaded,
    compile_payload,
)
from repro.service.api import (
    CompileRequest,
    DeclassificationService,
    DowngradeResult,
)
from repro.service.cache import CacheBackend, SynthesisCache
from repro.service.serialize import (
    compiled_query_to_json,
    downgrade_result_from_json,
    downgrade_result_to_json,
    options_from_json,
    options_to_json,
    payload_digest,
    policy_from_json,
    policy_to_json,
)
from repro.service.session import Session

__all__ = [
    "ServerOverloaded",
    "ServerDegraded",
    "JournalStopped",
    "ServerConfig",
    "ServerCompileReceipt",
    "ServerStats",
    "JournalRecovery",
    "DeclassificationServer",
]


_DOWNGRADES_TOTAL = LazySeries(
    "counter",
    "anosy_gateway_downgrades_total",
    "Downgrade results resolved, by outcome kind.",
    labels=("kind",),
)


class ServerOverloaded(RuntimeError):
    """Load shedding: the downgrade queue reached its configured bound."""


class ServerDegraded(ServerOverloaded):
    """Load shedding under degraded capacity (serving shards down).

    Raised instead of :class:`ServerOverloaded` when the queue bound was
    *scaled down* because too many serving-shard circuit breakers are
    open.  ``retry_after`` is the ``Retry-After``-style hint: seconds
    until the earliest half-open breaker probe, i.e. the soonest instant
    shed capacity might return.
    """

    def __init__(self, message: str, *, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = retry_after


class JournalStopped(RuntimeError):
    """Memory ran ahead of the journal (a durable write failed after its
    request executed, or a gateway-core job raised): every later
    journaled request is refused until a successor recovers (DESIGN.md §12)."""


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of the serving runtime."""

    #: Compile shards (single-worker processes, routed by content hash).
    shards: int = 1
    #: Per-shard in-flight bound before compile jobs are shed.
    max_pending_compiles: int = 8
    #: Total queued downgrade requests before the gateway sheds.
    max_queued_downgrades: int = 10_000
    #: Run compiles synchronously in-process instead of shard processes.
    inline_compiles: bool = False
    #: Serving shards (single-worker processes, routed by user id).
    #: 0 = serve batches on the gateway's event loop (the default).
    serving_shards: int = 0
    #: Run serving-shard payloads synchronously in-process (tests,
    #: single-core deployments); only meaningful with ``serving_shards``.
    inline_serving: bool = False
    #: Approximation mode driving enforcement (the paper uses ``under``).
    mode: str = "under"
    #: Check the policy on both posteriors before running a query.
    check_both: bool = True
    #: Per-job wall-clock deadline for compile shard jobs (None = none).
    compile_deadline: float | None = None
    #: Per-batch wall-clock deadline for serving shard jobs (None = none).
    serving_deadline: float | None = None
    #: Supervised retries per shard job after the first attempt.
    max_retries: int = 2
    #: Base backoff between retries (exponential, seeded jitter on top).
    retry_backoff: float = 0.02
    #: Consecutive failures before a shard's circuit breaker opens.
    breaker_threshold: int = 3
    #: Seconds an open breaker waits before its half-open probe.
    breaker_cooldown: float = 0.25
    #: Fraction of serving shards open before degraded load shedding
    #: kicks in (the queue bound scales by the healthy fraction).
    degraded_watermark: float = 0.5
    #: In-memory audit-trail ring size (``None`` = unbounded).  Evicted
    #: events spill to the journal's ``audit_spill`` table when the
    #: server is journaled, and are counted as dropped otherwise.
    audit_capacity: int | None = 100_000
    #: Run the observability stack (``repro.obs``): metrics registry,
    #: replay-stable tracing, shard piggyback.  ``False`` swaps in the
    #: null registry/tracer — the uninstrumented baseline the
    #: ``serving_observed`` benchmark gate compares against.
    observe: bool = True


@dataclass(frozen=True)
class ServerCompileReceipt:
    """What one gateway compile cost, and which mechanism paid for it.

    Exactly one of ``cache_hit``/``coalesced`` is True unless the shard
    pool actually ran synthesis (both False).  ``shard`` is set only when
    this request submitted the job.
    """

    name: str
    cache_hit: bool
    coalesced: bool
    shard: int | None
    verified: bool
    synth_time: float
    verify_time: float

    def to_json(self) -> dict[str, Any]:
        """Encode for the journal's recorded-response slot (exact)."""
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "ServerCompileReceipt":
        """Decode a receipt recorded by :meth:`to_json`."""
        shard = data["shard"]
        return cls(
            name=data["name"],
            cache_hit=bool(data["cache_hit"]),
            coalesced=bool(data["coalesced"]),
            shard=None if shard is None else int(shard),
            verified=bool(data["verified"]),
            synth_time=float(data["synth_time"]),
            verify_time=float(data["verify_time"]),
        )


@dataclass
class ServerStats:
    """Gateway counters (monotone over the server's lifetime)."""

    compiles: int = 0
    compile_cache_hits: int = 0
    compile_coalesced: int = 0
    compile_shed: int = 0
    downgrades_served: int = 0
    budget_refusals: int = 0
    ticks: int = 0
    #: Artifacts preloaded from the store at boot.
    warm_entries: int = 0
    #: Shard executors killed and replaced by the supervisor.
    shard_restarts: int = 0
    #: Downgrade batches served on the gateway-local degraded path.
    degraded_batches: int = 0
    #: Compiles served inline because a compile shard was unavailable.
    degraded_compiles: int = 0
    #: Downgrades shed by the *degraded* (scaled-down) queue bound.
    degraded_shed: int = 0
    #: Requests reserved a journal sequence number.
    journal_appends: int = 0
    #: Duplicate idempotency keys answered from the recorded response.
    journal_duplicates: int = 0


@dataclass(frozen=True)
class JournalRecovery:
    """What one :meth:`~DeclassificationServer.recover_from_journal` did."""

    #: Queries re-registered from written journal history.
    queries: int
    #: Sessions re-opened from written journal history.
    sessions: int
    #: Distinct authorized (session, query) pairs whose knowledge fold
    #: was rebuilt, making the recovered gateway a seamless continuation.
    refolded: int = 0


@dataclass
class _PendingDowngrade:
    session_id: str
    future: asyncio.Future = field(repr=False)
    #: Idempotency key of the journaled request this waiter carries
    #: (``None`` on unjournaled servers).
    journal_key: str | None = None
    #: The entry the tick's ``begin_many`` reserved for it (``None``
    #: while queued and on unjournaled waiters).
    journal_entry: JournalEntry | None = None
    #: Deterministic trace id (journaled: derived from key + seq at
    #: reservation; unjournaled: from a local monotone counter).
    trace_id: str | None = None


@dataclass
class _ShardView:
    """What one serving shard process holds, as far as the gateway can vouch.

    A missing view means the shard holds nothing: its next job starts
    with ``configure``, which replaces the process's serving state.
    """

    #: The mirror epoch the shard's ledger is at.
    epoch: int
    #: Query names whose artifacts the shard has attached.
    queries: set[str] = field(default_factory=set)
    #: Session ids open on the shard.
    sessions: set[str] = field(default_factory=set)
    #: Session ids closed at the gateway, still open on the shard.
    closes: list[str] = field(default_factory=list)


def _fail(waiters: list[_PendingDowngrade], exc: BaseException) -> None:
    """Deliver *exc* to every waiter that has no outcome yet."""
    for pending in waiters:
        if not pending.future.done():
            pending.future.set_exception(exc)


def _configure_outcome(payload: dict[str, Any]) -> dict[str, Any]:
    """The deterministic outcome encoding of a configure entry."""
    return {"kind": "configure", "digest": payload_digest(payload)}


# -- journaled lifecycle requests: each kind's codecs, written once ---------
# (payload encode/decode, outcome, recorded response; ``_lifecycle`` and
# ``apply_entry`` on the server own everything else).


def _compile_payload(request: CompileRequest) -> dict[str, Any]:
    """The journaled payload of a compile (the query already parsed)."""
    return {
        "name": request.name,
        "query": expr_to_json(request.query),
        "secret": spec_to_json(request.secret),
        "options": (
            None if request.options is None else options_to_json(request.options)
        ),
    }


def _compile_request(payload: dict[str, Any]) -> CompileRequest:
    """Decode a journaled compile payload back into a request."""
    return CompileRequest(
        name=payload["name"],
        query=expr_from_json(payload["query"]),
        secret=spec_from_json(payload["secret"]),
        options=(
            None
            if payload["options"] is None
            else options_from_json(payload["options"])
        ),
    )


def _compile_outcome(
    _payload: dict[str, Any], receipt: ServerCompileReceipt
) -> dict[str, Any]:
    """The deterministic outcome encoding of a compile (digested).

    Excludes ``cache_hit``/``coalesced``/``shard`` and the timings: which
    mechanism paid for an artifact (and how long it took) varies between
    a cold run and its replay; *what was registered* must not.
    """
    return {"kind": "compile", "name": receipt.name, "verified": receipt.verified}


def _open_session_payload(
    session_id: str, user: str, secret: ProtectedSecret
) -> dict[str, Any]:
    """The journaled payload of a session open."""
    return {
        "session_id": session_id,
        "user_id": user,
        "spec": spec_to_json(secret.spec),
        # The raw value stays inside the TCB: the journal lives in the
        # store the gateway already trusts, and a serving shard gets
        # this same encoding in its open op.
        "value": list(secret.unprotect_tcb()),
    }


def _sealed(payload: dict[str, Any]) -> ProtectedSecret:
    """Re-seal the secret a journaled open-session payload carries."""
    return ProtectedSecret.seal(
        spec_from_json(payload["spec"]), tuple(payload["value"])
    )


class _Lifecycle(NamedTuple):
    """How one journaled lifecycle kind encodes what it did.

    ``outcome(payload, result)`` is the deterministic encoding the write
    digests and replay recomputes; ``recorded(server, payload,
    response)`` answers a duplicate; ``response(result)`` is the
    recorded response (``None``: the outcome doubles as it).
    """

    outcome: Callable[[dict[str, Any], Any], dict[str, Any]]
    recorded: Callable[..., Any]
    response: Callable[[Any], dict[str, Any]] | None = None


_LIFECYCLE: dict[str, _Lifecycle] = {
    "compile": _Lifecycle(
        outcome=_compile_outcome,
        recorded=lambda _server, _payload, response: (
            ServerCompileReceipt.from_json(response)
        ),
        response=ServerCompileReceipt.to_json,
    ),
    "open_session": _Lifecycle(
        outcome=lambda payload, _session: {
            "kind": "open_session",
            "session_id": payload["session_id"],
            "user_id": payload["user_id"],
        },
        # The live handle, or a detached one (a Session is always truthy).
        recorded=lambda server, payload, _response: (
            server._session_handle(payload["session_id"])
            or Session(session_id=payload["session_id"], secret=_sealed(payload))
        ),
    ),
    "close_session": _Lifecycle(
        outcome=lambda payload, _session: {
            "kind": "close_session",
            "session_id": payload["session_id"],
        },
        # The recorded close already happened; the live handle is gone.
        recorded=lambda _server, _payload, _response: None,
    ),
    "advance_epoch": _Lifecycle(
        outcome=lambda _payload, epoch: {"kind": "advance_epoch", "epoch": epoch},
        recorded=lambda _server, _payload, response: int(response["epoch"]),
    ),
}


class DeclassificationServer:
    """Sharded asynchronous declassification over a persistent store.

    Layers a coalescing/batching asyncio gateway, a sharded compile pool,
    and a privacy-budget ledger on top of the synchronous
    :class:`~repro.service.api.DeclassificationService` (which keeps
    owning sessions and the audit trail).
    """

    def __init__(
        self,
        policy: QuantitativePolicy,
        *,
        budget_floor: QuantitativePolicy | None = None,
        budget_decay: DecayPolicy | None = None,
        store: CacheBackend | None = None,
        options: CompileOptions = CompileOptions(),
        config: ServerConfig = ServerConfig(),
        fault_plan: FaultPlan | None = None,
        journal: RequestJournal | None = None,
    ):
        self.config = config
        self.default_options = options
        self.store = store
        self.budget_decay = budget_decay
        #: The telemetry fold point: one registry + tracer for every
        #: gateway-side layer, absorbing shard piggybacks.  Disabled, it
        #: hands out the null registry/tracer and all recording vanishes.
        self.hub = MetricsHub(enabled=config.observe)
        cache = SynthesisCache(backend=store)
        self.service = DeclassificationService(
            policy,
            options=options,
            cache=cache,
            mode=config.mode,
            check_both=config.check_both,
            audit_capacity=config.audit_capacity,
        )
        self.service.metrics = self.hub.registry
        # A store that also speaks LedgerBackend (e.g. SQLiteStore) makes
        # the ledger durable; a plain artifact backend leaves it in-memory.
        ledger_store = store if hasattr(store, "put_ledger_bound") else None
        if (
            journal is not None
            and budget_floor is not None
            and ledger_store is not None
            and ledger_store is not journal.backend
        ):
            # Exactly-once needs each bound in its row's transaction
            # (DESIGN.md §12): refuse before anything is written.
            raise ValueError(
                "a journaled server's durable ledger must live in the "
                "journal's store: pass store=journal.backend"
            )
        self.ledger = (
            None
            if budget_floor is None
            else PrivacyBudgetLedger(
                budget_floor, store=ledger_store, decay=budget_decay
            )
        )
        if self.ledger is not None:
            self.ledger.metrics = self.hub.registry
        if store is not None and hasattr(store, "metrics"):
            store.metrics = self.hub.registry
        self.pool = ShardedCompilePool(
            config.shards,
            max_pending=config.max_pending_compiles,
            inline=config.inline_compiles,
        )
        self.pool.metrics = self.hub.registry
        if config.serving_shards > 0 or journal is not None:
            # Fail at construction, not first flush: shard serving and
            # the journal's configure entry (which replay rebuilds from)
            # ship the policies as JSON, so they need structural encodings.
            policy_to_json(policy)
            if budget_floor is not None:
                policy_to_json(budget_floor)
        self.serving_pool: ServingShardPool | None = None
        if config.serving_shards > 0:
            self.serving_pool = ServingShardPool(
                config.serving_shards, inline=config.inline_serving
            )
        #: Chaos schedule shipped inside every shard job payload.
        self.fault_plan = fault_plan
        self.pool.fault_plan = fault_plan
        if self.serving_pool is not None:
            self.serving_pool.fault_plan = fault_plan
        #: Deadline/retry/breaker driver for every shard submission.
        self.supervisor = ShardSupervisor(
            retry=RetryPolicy(
                max_retries=config.max_retries, base_delay=config.retry_backoff
            ),
            breaker_threshold=config.breaker_threshold,
            breaker_cooldown=config.breaker_cooldown,
            seed=fault_plan.seed if fault_plan is not None else 0,
            metrics=self.hub.registry,
        )
        #: Shard-mode sessions currently adopted by the gateway-local
        #: manager because their shard's breaker is (or was) open.
        self._degraded_sessions: set[str] = set()
        self.stats = ServerStats(warm_entries=len(cache))
        #: Session id → durable user id for the ledger.
        self._users: dict[str, str] = {}
        #: The gateway's serving core: gateway-local serving and the
        #: degraded fallback, over the service's sessions and the mirror
        #: ledger.  Runs on the event loop, one batch at a time.
        self.core = ServingCore(self.service.manager, self.ledger, self._users)
        #: Shard-mode session handles (the shard owns the live state).
        self._shard_sessions: dict[str, Session] = {}
        #: What each serving shard holds; each job ships from it.
        self._shard_views: dict[int, _ShardView] = {}
        #: The request journal (None = unjournaled server).
        self.journal = journal
        #: The failure that stopped the journal (None while it runs); see
        #: :class:`JournalStopped`.
        self.journal_failure: BaseException | None = None
        if journal is not None:
            journal.metrics = self.hub.registry
        #: Monotone counter deriving trace ids on unjournaled servers.
        self._trace_counter = 0
        #: In-flight journaled downgrades by idempotency key: a
        #: duplicate delivery arriving before the first resolves awaits
        #: the same future instead of double-enqueueing.
        self._inflight_keys: dict[str, asyncio.Future] = {}
        if journal is not None:
            if self.ledger is not None:
                # The durable mirror shares the journal's store, so every
                # journal write drains the buffered bounds into its own
                # transaction (:meth:`_drained_bounds`).
                self.ledger.buffer_writes()
            self._journal_configure()
            self.service.audit.spill = journal.spill_audit
        #: Compile futures keyed by cache key; waiters coalesce onto them.
        self._inflight: dict[str, asyncio.Future] = {}
        #: Queued downgrades, grouped by query name for per-tick batching.
        self._queue: dict[str, list[_PendingDowngrade]] = {}
        self._queued = 0
        #: Serializes whole flushes: ledger commits therefore always run
        #: under the same admission state their round was checked in.
        self._flush_lock = asyncio.Lock()
        #: The scheduled flush that will serve the next arrivals.
        self._flush_task: asyncio.Task | None = None

    # -- conveniences --------------------------------------------------------
    @property
    def cache(self) -> SynthesisCache:
        """The shared artifact cache (write-through to the store)."""
        return self.service.cache

    @property
    def manager(self):
        """The session manager (thread-safe; owned by the service)."""
        return self.service.manager

    # -- compile path --------------------------------------------------------
    async def register_query(
        self, request: CompileRequest, *, idempotency_key: str | None = None
    ) -> ServerCompileReceipt:
        """Make a query declassifiable, through cache, coalescing, or shards.

        The query is parsed and validated against its secret first: an
        invalid request (``LexError``/``ParseError``/
        ``QueryValidationError``) is refused before anything is
        journaled, like a shed one.  On a journaled server a duplicate
        ``idempotency_key`` then returns the recorded receipt before
        anything runs.  Otherwise the artifact is compiled (or coalesced)
        into the cache — pure and content-addressed, so it needs no
        journal entry — and registering it is the journaled step, run
        through :meth:`_lifecycle`.  Raises
        :class:`~repro.server.workers.ShardOverloaded` when the shard
        sheds the job.
        """
        query = (
            parse_bool(request.query)
            if isinstance(request.query, str)
            else request.query
        )
        validate_query(query, request.secret)
        request = replace(request, query=query)
        key = idempotency_key
        if self.journal is not None:
            self._refuse_if_stopped()
            key = key or self.journal.auto_key("compile")
            recorded = self.journal.recorded_response(key)
            if recorded is not None:
                self.stats.journal_duplicates += 1
                return ServerCompileReceipt.from_json(recorded)
        compiled = await self._compile(request)
        return self._lifecycle(
            "compile",
            _compile_payload(request),
            key,
            lambda: self._register(*compiled),
        )

    async def _compile(
        self, request: CompileRequest
    ) -> tuple[CompileRequest, str, int | None]:
        """Put a parsed request's artifact in the cache; returns the
        request with its options and the mechanism and shard that paid.

        Resolution order: (1) the shared cache (memory, warm-started from
        the store) — a lookup; (2) an identical canonical problem already
        in flight — await the same shard job; (3) a fresh job on the
        query's shard, written through to the store on completion.
        """
        options = (
            request.options if request.options is not None else self.default_options
        )
        request = replace(request, options=options)
        key = self.cache.key_for(request.query, request.secret, options)
        shard = None
        inflight = self._inflight.get(key)
        if key in self.cache:
            outcome = "cache_hit"
            self.stats.compile_cache_hits += 1
        elif inflight is not None:
            await asyncio.shield(inflight)
            outcome = "coalesced"
            self.stats.compile_coalesced += 1
        else:
            outcome = "compiled"
            shard = self.pool.shard_for(request.query)
            await self._compile_into_cache(key, request, shard)
            self.stats.compiles += 1
        self._count_compile(outcome)
        return request, outcome, shard

    def _register(
        self, request: CompileRequest, outcome: str, shard: int | None
    ) -> ServerCompileReceipt:
        """The compile executor: register the cached artifact by name."""
        receipt = self.service.register_query(request)
        return ServerCompileReceipt(
            name=receipt.name,
            cache_hit=outcome == "cache_hit",
            coalesced=outcome == "coalesced",
            shard=shard,
            verified=receipt.verified,
            synth_time=receipt.synth_time,
            verify_time=receipt.verify_time,
        )

    async def _compile_into_cache(
        self, key: str, request: CompileRequest, shard: int
    ) -> None:
        """Compile on *shard* and cache the artifact; waiters coalesce on it."""
        inflight = asyncio.get_running_loop().create_future()
        self._inflight[key] = inflight
        try:
            try:
                compiled = await self._compile_supervised(
                    request.name, request.query, request.secret, request.options, shard
                )
            except ShardOverloaded:
                self.stats.compile_shed += 1
                self._count_compile("shed")
                raise
            self.cache.put(key, compiled)
        except BaseException as exc:
            inflight.set_exception(exc)
            # The exception is delivered to every coalesced waiter; if
            # there are none, mark it retrieved so the loop stays quiet.
            inflight.exception()
            raise
        else:
            inflight.set_result(key)
        finally:
            self._inflight.pop(key, None)

    async def _compile_supervised(
        self,
        name: str,
        query: Any,
        secret: SecretSpec,
        options: CompileOptions,
        shard: int,
    ):
        """One supervised compile: deadline, retries, restart, inline failover.

        Compiles are pure and content-addressed, so every recovery action
        here is trivially safe: a retry re-runs the same synthesis, and
        the fallback runs the identical payload codec path inline on a
        gateway worker thread (``degraded_compiles``) — same artifact,
        no shard.  ``ShardOverloaded`` is not a failure: admission did
        its job, and the supervisor re-raises it untouched.
        """
        pool = self.pool

        async def attempt():
            job = pool.submit(name, query, secret, options)
            result_json = await asyncio.wrap_future(job)
            compiled, _provenance = pool.decode(result_json)
            return compiled

        async def restart() -> None:
            pool.restart_shard(shard)
            self.stats.shard_restarts += 1

        async def fallback():
            self.stats.degraded_compiles += 1
            payload = pool.payload_for(name, query, secret, options, with_faults=False)
            # call_suppressed: an inline-mode plan is process-global, so
            # a clean payload alone does not keep faults out of the
            # fallback thread.
            result_json = await asyncio.to_thread(
                faults.call_suppressed, compile_payload, payload
            )
            return pool.decode(result_json)[0]

        return await self.supervisor.supervise(
            "compile",
            shard,
            attempt,
            deadline=self.config.compile_deadline,
            restart=restart,
            fallback=fallback,
        )

    # -- session lifecycle ---------------------------------------------------
    def open_session(
        self,
        session_id: str,
        secret: ProtectedSecret | tuple[SecretSpec, SecretValue],
        *,
        user_id: str | None = None,
        idempotency_key: str | None = None,
    ) -> Session:
        """Open a session, bound to a durable user identity for the ledger.

        ``user_id`` defaults to the session id; pass the same user for
        successive sessions to make the budget survive reconnects (the
        whole point of the ledger).

        In shard-serving mode the live session state lives on the user's
        shard (opened there by the first job that serves the session);
        the returned :class:`Session` is the gateway's handle, and its
        knowledge field stays ``None``.

        On a journaled server a duplicate ``idempotency_key`` returns the
        live handle (or a detached one) without opening twice.
        """
        if not isinstance(secret, ProtectedSecret):
            spec, value = secret
            secret = ProtectedSecret.seal(spec, value)
        user = user_id if user_id is not None else session_id
        return self._lifecycle(
            "open_session",
            _open_session_payload(session_id, user, secret),
            idempotency_key,
            lambda: self._open_session(session_id, secret, user),
        )

    def _session_handle(self, session_id: str) -> Session | None:
        """The live handle for an open session, whichever path owns it."""
        if self.serving_pool is not None:
            handle = self._shard_sessions.get(session_id)
            if handle is not None:
                return handle
        return self.manager.sessions.get(session_id)

    def _open_session(
        self, session_id: str, secret: ProtectedSecret, user: str
    ) -> Session:
        """The open executor (gateway-local or shard-routed)."""
        if self.serving_pool is None:
            session = self.manager.open_session(session_id, secret)
        else:
            if session_id in self._shard_sessions:
                raise ValueError(f"session {session_id!r} already open")
            session = Session(session_id=session_id, secret=secret)
            self._shard_sessions[session_id] = session
        self._users[session_id] = user
        self.service.audit_event(
            "session_open", session_id=session_id, secret=session.spec.name
        )
        return session

    def _open_session_op(self, session: Session) -> dict[str, Any]:
        """The shard op opening one session, with the mirror's bound now."""
        user, spec = self._users[session.session_id], session.secret.spec
        bounds = None
        if self.ledger is not None:
            bounds = {spec.name: self.ledger.export_bound(user, spec)}
        # The journaled open payload; the shard re-seals the raw value.
        payload = _open_session_payload(session.session_id, user, session.secret)
        return {"op": "open_session", **payload, "bounds": bounds}

    def close_session(
        self, session_id: str, *, idempotency_key: str | None = None
    ) -> Session | None:
        """Close a session.  The user's ledger account (budget) remains.

        On a journaled server a duplicate ``idempotency_key`` is a no-op
        success returning ``None`` — the recorded close already
        happened, and the live handle is gone.
        """
        return self._lifecycle(
            "close_session",
            {"session_id": session_id},
            idempotency_key,
            lambda: self._close_session(session_id),
        )

    def _close_session(self, session_id: str) -> Session:
        """The close executor."""
        if self.serving_pool is None:
            session = self.manager.close_session(session_id)
        else:
            try:
                session = self._shard_sessions.pop(session_id)
            except KeyError:
                raise KeyError(f"no open session {session_id!r}") from None
            user = self._users.get(session_id, session_id)
            view = self._shard_views.get(self.serving_pool.shard_for(user))
            if view is not None and session_id in view.sessions:
                view.sessions.discard(session_id)
                view.closes.append(session_id)
            if session_id in self._degraded_sessions:
                # The session was adopted by the gateway core while its
                # shard was down; close the local mirror too.
                self._degraded_sessions.discard(session_id)
                if session_id in self.manager.sessions:
                    self.manager.close_session(session_id)
        self._users.pop(session_id, None)
        self.service.audit_event("session_close", session_id=session_id)
        return session

    # -- serving-shard views ---------------------------------------------------
    def _configure_op(self) -> dict[str, Any]:
        """The shard configure op: the journaled configuration, compile options aside."""
        config = self._configure_payload()
        del config["options"]
        return {"op": "configure", **config, "observe": self.hub.enabled}

    def _mirror_epoch(self) -> int:
        """The mirror ledger's decay epoch (0 without a ledger)."""
        return 0 if self.ledger is None else self.ledger.epoch

    def _ship(
        self, shard: int, groups: list[tuple[str, list[_PendingDowngrade]]]
    ) -> list[dict[str, Any]]:
        """Build one shard job's ops from the shard's view, and update it.

        In a fixed order: ``configure`` when there is no view; one
        ``advance_epoch`` for the mirror epochs since the view's; the
        queued closes; an ``attach_query`` for each query of this job
        the shard lacks; an ``open_session`` for each session of this
        job the shard does not hold, with the mirror's bound now; then
        the ``downgrade_batch`` ops.  Epochs come before opens, so a
        fresh snapshot is never dilated twice.
        """
        epoch = self._mirror_epoch()
        view = self._shard_views.get(shard)
        ops: list[dict[str, Any]] = []
        if view is None:
            view = self._shard_views[shard] = _ShardView(epoch)
            ops.append(self._configure_op())
        elif view.epoch != epoch:
            ops.append({"op": "advance_epoch", "epochs": epoch - view.epoch})
            view.epoch = epoch
        ops.extend({"op": "close_session", "session_id": sid} for sid in view.closes)
        view.closes = []
        for name, _waiters in groups:
            compiled = None if name in view.queries else self.manager.registry.lookup(name)
            # Unknown here is unknown there: the shard's registry lookup
            # produces the standard "Can't downgrade" refusal.
            if compiled is not None:
                artifact = compiled_query_to_json(compiled)
                ops.append({"op": "attach_query", "name": name, "artifact": artifact})
                view.queries.add(name)
        for _name, waiters in groups:
            for pending in waiters:
                session = self._shard_sessions.get(pending.session_id)
                if session is not None and session.session_id not in view.sessions:
                    ops.append(self._open_session_op(session))
                    view.sessions.add(session.session_id)
        for query_name, waiters in groups:
            op: dict[str, Any] = {
                "op": "downgrade_batch",
                "query_name": query_name,
                "session_ids": [p.session_id for p in waiters],
            }
            traces = self._traces_for(waiters)
            if traces is not None:
                op["traces"] = traces
            ops.append(op)
        return ops

    def _adopt_degraded_sessions(self, shard: int) -> None:
        """Mirror a down shard's sessions into the gateway core's manager.

        Opened from the gateway's sealed session records; admission and
        commits then run against the durable mirror ledger — the same
        enforcement state the shard's next job ships from.
        Session-local *knowledge* restarts from the prior (the same
        semantics as a reconnect); the ledger bound does not reset.
        """
        assert self.serving_pool is not None
        for session_id, session in self._shard_sessions.items():
            user = self._users.get(session_id, session_id)
            if self.serving_pool.shard_for(user) != shard:
                continue
            if session_id not in self.manager.sessions:
                self.manager.open_session(session_id, session.secret)
            self._degraded_sessions.add(session_id)

    def _retire_degraded_sessions(self, shard: int) -> None:
        """Drop local mirror sessions once their shard serves again."""
        if not self._degraded_sessions:
            return
        assert self.serving_pool is not None
        for session_id in list(self._degraded_sessions):
            user = self._users.get(session_id, session_id)
            if self.serving_pool.shard_for(user) != shard:
                continue
            self._degraded_sessions.discard(session_id)
            if session_id in self.manager.sessions:
                self.manager.close_session(session_id)

    def advance_epoch(
        self, epochs: int = 1, *, idempotency_key: str | None = None
    ) -> int:
        """Advance budget decay on the mirror ledger.

        The durable mirror advances (and persists) immediately — covering
        users with stored bounds but no live session; each serving shard
        catches up in its next job (:meth:`_ship`).  Returns the new
        epoch.  Requires ``budget_floor`` and ``budget_decay``.

        On a journaled server a duplicate ``idempotency_key`` returns
        the recorded epoch without advancing again — retried epoch ticks
        never double-dilate.
        """
        return self._lifecycle(
            "advance_epoch",
            {"epochs": epochs},
            idempotency_key,
            lambda: self._advance_epoch(epochs),
        )

    def _advance_epoch(self, epochs: int) -> int:
        """The epoch executor."""
        if self.ledger is None:
            raise ValueError("advance_epoch requires a budget_floor")
        return self.ledger.advance_epoch(epochs)

    # -- downgrade path --------------------------------------------------------
    async def downgrade(
        self,
        session_id: str,
        query_name: str,
        *,
        idempotency_key: str | None = None,
    ) -> DowngradeResult:
        """Queue one downgrade; resolves when its tick's batch is served.

        Load shedding is capacity-aware: past the degraded watermark
        (too many serving-shard breakers open) the queue bound scales by
        the healthy-shard fraction and sheds with
        :class:`ServerDegraded`, whose ``retry_after`` names the
        earliest breaker probe — the degraded path keeps answering, but
        it must not be asked to absorb a healthy fleet's queue depth.

        On a journaled server the request's sequence number is reserved
        at flush, and its row is written after its batch executed,
        together with the ledger bounds the batch drained.  A duplicate
        ``idempotency_key`` returns the recorded result — or awaits the
        in-flight one — instead of charging the budget twice.  Shed
        requests change no state and are never journaled.
        """
        return await self._downgrade(session_id, query_name, idempotency_key)

    async def _downgrade(
        self,
        session_id: str,
        query_name: str,
        key: str | None,
        trace_id: str | None = None,
    ) -> DowngradeResult:
        """:meth:`downgrade`, optionally pinned to an external trace id."""
        if self.journal is None:
            return await self._enqueue_downgrade(
                session_id, query_name, trace_id=trace_id
            ).future
        self._refuse_if_stopped()
        key = key or self.journal.auto_key("downgrade")
        recorded = self.journal.recorded_response(key)
        if recorded is not None:
            self.stats.journal_duplicates += 1
            return downgrade_result_from_json(recorded)
        inflight = self._inflight_keys.get(key)
        if inflight is not None:
            self.stats.journal_duplicates += 1
            return await asyncio.shield(inflight)
        pending = self._enqueue_downgrade(
            session_id, query_name, journal_key=key, trace_id=trace_id
        )
        self._inflight_keys[key] = pending.future
        pending.future.add_done_callback(
            lambda _f, key=key: self._inflight_keys.pop(key, None)
        )
        return await pending.future

    def _enqueue_downgrade(
        self,
        session_id: str,
        query_name: str,
        *,
        journal_key: str | None = None,
        trace_id: str | None = None,
    ) -> _PendingDowngrade:
        """Admission-check and queue one downgrade (runs on the loop).

        ``trace_id`` pins the request to an externally derived trace (a
        replay twin re-executing a journaled history); otherwise
        journaled requests get theirs at reservation and unjournaled
        ones from the local counter.
        """
        bound = self.config.max_queued_downgrades
        if self.serving_pool is not None:
            down = self.supervisor.open_fraction(
                "serving", self.config.serving_shards
            )
            if down >= self.config.degraded_watermark:
                bound = max(1, int(bound * (1.0 - down)))
                if self._queued >= bound:
                    self.stats.degraded_shed += 1
                    retry_after = self.supervisor.earliest_retry("serving")
                    self._count_shed("degraded", retry_after=retry_after)
                    raise ServerDegraded(
                        f"{self._queued} downgrades queued >= degraded bound "
                        f"{bound} ({down:.0%} of serving shards down)",
                        retry_after=retry_after,
                    )
        if self._queued >= bound:
            self._count_shed("overloaded")
            raise ServerOverloaded(
                f"{self._queued} downgrades queued >= bound "
                f"{self.config.max_queued_downgrades}"
            )
        loop = asyncio.get_running_loop()
        pending = _PendingDowngrade(
            session_id, loop.create_future(), journal_key=journal_key
        )
        if self.hub.enabled:
            if trace_id is None and journal_key is None:
                self._trace_counter += 1
                trace_id = trace_id_for(
                    f"local/{session_id}", self._trace_counter
                )
            if trace_id is not None:
                self._assign_trace(pending, query_name, trace_id)
        self._queue.setdefault(query_name, []).append(pending)
        self._queued += 1
        self._schedule_flush()
        return pending

    def _schedule_flush(self) -> None:
        """Make sure a flush will serve what is queued (runs on the loop).

        Ticks are arrival-driven: the first arrival schedules a flush
        task, and arrivals while it waits or runs ride the same or the
        next one, so the flush schedule is a function of arrival times
        alone.  A done task (a flush cancelled before it took the lock)
        is replaced, never waited on.
        """
        if self._flush_task is None or self._flush_task.done():
            self._flush_task = asyncio.get_running_loop().create_task(self.flush())

    def _journal_begin_downgrades(
        self, queue: dict[str, list[_PendingDowngrade]]
    ) -> None:
        """Reserve the journal entries for a tick's downgrades (batched).

        One read and no write, in queue order (so sequence numbers do
        not depend on how the tick is partitioned into jobs), before any
        of these waiters executes.  Each waiter is begun exactly once, by
        the flush that dequeued it; its row is written by
        :meth:`_journal_ack_downgrades` once its job has executed.
        """
        if self.journal is None:
            return
        items: list[tuple[str, str, dict[str, Any]]] = []
        pendings: list[tuple[_PendingDowngrade, str]] = []
        for query_name, waiters in queue.items():
            for pending in waiters:
                if pending.journal_key is None:
                    continue
                items.append(
                    (
                        pending.journal_key,
                        "downgrade",
                        {
                            "session_id": pending.session_id,
                            "query_name": query_name,
                        },
                    )
                )
                pendings.append((pending, query_name))
        if items:
            entries = self.journal.begin_many(items)
            for (pending, query_name), entry in zip(pendings, entries):
                pending.journal_entry = entry
                if self.hub.enabled and pending.trace_id is None:
                    self._assign_trace(
                        pending,
                        query_name,
                        trace_id_for(pending.journal_key, entry.seq),
                    )
            self.stats.journal_appends += len(items)

    def _journal_ack_downgrades(
        self,
        groups: list[tuple[str, list[_PendingDowngrade]]],
        by_key: dict[tuple[str, str], DowngradeResult],
    ) -> None:
        """Write a job's executed downgrades done: one transaction, with
        the ledger-mirror bounds the job drained, in the step that
        committed or folded them (so it holds no other job's bounds) and
        before any waiter resolves."""
        if self.journal is None:
            return
        self._refuse_if_stopped()
        journal = self.journal
        self._journal_write(
            lambda: journal.ack_many(
                [
                    (p.journal_entry, downgrade_result_to_json(by_key[(name, p.session_id)]))
                    for name, group in groups
                    for p in group
                    if p.journal_entry is not None and (name, p.session_id) in by_key
                ],
                bounds=self._drained_bounds(),
            )
        )

    def _journal_write(self, write: Callable[[], Any]) -> None:
        """Fire the before-write kill point, then make one durable write.

        A crash there leaves nothing durable: the client's retry re-runs
        the request from the same prior.  A write that fails stops the
        journal.
        """
        try:
            faults.maybe_crash("journal", "crash_after_execute_before_ack")
            write()
        except Exception as exc:
            self._stop_journal(exc)
            raise

    def _stop_journal(self, exc: BaseException) -> None:
        """Record that memory ran ahead of the journal: buffered ledger
        effects may have no row, so no later write may drain them."""
        if self.journal is not None and self.journal_failure is None:
            self.journal_failure = exc

    def _refuse_if_stopped(self) -> None:
        """Raise :class:`JournalStopped` once the journal has stopped."""
        if self.journal_failure is not None:
            raise JournalStopped(
                f"the journal stopped after {self.journal_failure!r}; boot "
                "a successor on the store and recover from the journal"
            )

    def _drained_bounds(self) -> list[tuple[str, str, dict[str, Any]]]:
        """Buffered ledger-mirror writes to land atomically with a journal
        row (``[]`` without a durable ledger)."""
        return [] if self.ledger is None else self.ledger.drain_writes()

    async def flush(self) -> int:
        """Serve everything queued; returns how many waiters were served.

        The tick is partitioned into jobs — one per query group on the
        gateway core, or one per serving shard — reserved in the journal
        by one ``begin_many``, and resolved by :meth:`_resolve`.  Once it
        holds the flush lock, a gateway-local tick runs to its last
        write as one step of the event loop: lifecycle calls, scrapes
        and new arrivals wait for it to end, so journal order is
        execution order.
        """
        async with self._flush_lock:
            if self._flush_task is asyncio.current_task():
                self._flush_task = None
            queue, self._queue = self._queue, {}
            queued_now = sum(len(waiters) for waiters in queue.values())
            self._queued -= queued_now
            self.stats.ticks += 1 if queue else 0
            tick_start = time.perf_counter()
            try:
                self._journal_begin_downgrades(queue)
            except Exception as exc:
                # The reservation's read failed: nothing executed, so
                # every waiter fails now.
                for waiters in queue.values():
                    _fail(waiters, exc)
                return 0
            served = await self._resolve(self._jobs(queue))
            self._observe_tick(tick_start, queued_now)
            return served

    def _jobs(
        self, queue: dict[str, list[_PendingDowngrade]]
    ) -> list[tuple[int | None, list[tuple[str, list[_PendingDowngrade]]]]]:
        """Partition a tick into ``(shard, query groups)`` jobs.

        Gateway-local serving makes one job per query group on the
        gateway core (shard ``None``).  Shard serving makes one job per
        serving shard, holding the slice of every query group whose
        users that shard owns.
        """
        if self.serving_pool is None:
            return [(None, [group]) for group in queue.items()]
        batches: dict[int, list[tuple[str, list[_PendingDowngrade]]]] = {}
        for query_name, waiters in queue.items():
            per_shard: dict[int, list[_PendingDowngrade]] = {}
            for pending in waiters:
                user = self._users.get(pending.session_id, pending.session_id)
                shard = self.serving_pool.shard_for(user)
                per_shard.setdefault(shard, []).append(pending)
            for shard, shard_waiters in per_shard.items():
                batches.setdefault(shard, []).append((query_name, shard_waiters))
        return list(batches.items())

    async def _resolve(
        self,
        jobs: list[tuple[int | None, list[tuple[str, list[_PendingDowngrade]]]]],
    ) -> int:
        """Run a tick's jobs and resolve their waiters, job by job.

        Gateway-core jobs run inline, one after another, so each ledger
        commit follows its own round's admission and a gateway-local
        tick never yields between its ``begin_many`` and its last write.
        Shard jobs all start at once and run concurrently.  Every job
        writes its own journal rows in the step that commits or folds
        its bounds; here, per job in order: count it, record one
        ``batch`` audit event for each query group whose last job this
        is, and resolve its waiters.  A job that raises fails only its
        own waiters; later jobs are still served, unless the failure
        stopped the journal (a journaled gateway-core job that raises
        does).  Only an awaited shard job can be cancelled: the
        unfinished jobs are then cancelled together with their waiters.
        """
        tasks: list[asyncio.Future | None] = [
            None if shard is None else asyncio.ensure_future(
                self._serve_shard_groups(shard, groups)
            )
            for shard, groups in jobs
        ]
        jobs_left = Counter(name for _shard, groups in jobs for name, _w in groups)
        tally: dict[str, list[int]] = {}

        def audit_batch(query_name: str) -> None:
            sessions, authorized = tally.pop(query_name)
            self.service.audit_event(
                "batch",
                query_name=query_name,
                sessions=sessions,
                authorized=authorized,
            )

        served = 0
        for index, (shard, groups) in enumerate(jobs):
            waiters = [pending for _name, group in groups for pending in group]
            task = tasks[index]
            try:
                by_key = (
                    self._serve_on_gateway(groups) if task is None else await task
                )
            except asyncio.CancelledError:
                for (_shard, later), task in zip(jobs[index:], tasks[index:]):
                    if task is not None:
                        task.cancel()
                    for _name, group in later:
                        for pending in group:
                            pending.future.cancel()
                for query_name in list(tally):
                    audit_batch(query_name)
                raise
            except Exception as exc:
                # Nothing of this job is durable: its clients' retries
                # re-run it from the same prior.
                _fail(waiters, exc)
                by_key = None
            else:
                served += len(waiters)
                self.stats.downgrades_served += len(waiters)
                self._count_results(by_key.values())
            for query_name, group in groups:
                jobs_left[query_name] -= 1
                if by_key is not None:
                    ids = {pending.session_id for pending in group}
                    counts = tally.setdefault(query_name, [0, 0])
                    counts[0] += len(ids)
                    counts[1] += sum(
                        by_key[(query_name, sid)].authorized for sid in ids
                    )
                if not jobs_left[query_name] and query_name in tally:
                    audit_batch(query_name)
            if by_key is None:
                continue
            for query_name, group in groups:
                for pending in group:
                    if not pending.future.done():
                        pending.future.set_result(
                            by_key[(query_name, pending.session_id)]
                        )
        return served

    def _serve_on_gateway(
        self, groups: list[tuple[str, list[_PendingDowngrade]]]
    ) -> dict[tuple[str, str], DowngradeResult]:
        """Serve query groups on the gateway core, then write their rows.

        Gateway-local jobs and the degraded fallback both land here.
        Each batch runs on the event loop itself and nothing here
        awaits: a batch takes microseconds to milliseconds, less than a
        hop to a worker thread and back costs, and no other coroutine
        can touch the core between the job's commits and its journal
        write.  ``call_suppressed`` keeps the core's kill points quiet:
        serving on the gateway is fault-free by definition (DESIGN.md
        §10).  A job that raises once it started left memory ahead of
        the journal, and stops it.
        """
        self._refuse_if_stopped()
        by_key: dict[tuple[str, str], DowngradeResult] = {}
        try:
            for query_name, waiters in groups:
                try:
                    results, _touched, refusals = faults.call_suppressed(
                        self.core.serve_batch,
                        query_name,
                        [pending.session_id for pending in waiters],
                        self._traces_for(waiters),
                    )
                finally:
                    if self.core.spans:
                        self.hub.tracer.absorb(self.core.drain_spans())
                self.stats.budget_refusals += refusals
                for result in results:
                    by_key[(query_name, result.session_id)] = result
            self._journal_ack_downgrades(groups, by_key)
        except Exception as exc:
            self._stop_journal(exc)
            raise
        return by_key

    async def _serve_shard_groups(
        self,
        shard: int,
        groups: list[tuple[str, list[_PendingDowngrade]]],
    ) -> dict[tuple[str, str], DowngradeResult]:
        """One shard's slice of a flush, supervised end to end.

        Each attempt ships ops built from the shard's view (:meth:`_ship`).
        After the supervisor returns, one step with no ``await`` folds the
        shard's bound deltas into the durable mirror (monotone: replays
        can tighten, never loosen) and writes the job's journal rows.
        Retry safety is the ledger's idempotence: a re-run re-checks
        admission against the same bounds and re-commits the same
        intersections.  When the breaker is open (or retries are
        exhausted) the batch falls back to the gateway core, which
        commits and writes in a step of its own.  The view is forgotten
        on a restart, a fallback, a failure, and after a job during
        which the mirror epoch moved: the next job re-configures the
        shard from the mirror.
        """
        assert self.serving_pool is not None
        pool = self.serving_pool

        async def attempt():
            ops = self._ship(shard, groups)
            submit_start = time.perf_counter()
            response = ServingShardPool.decode(
                await asyncio.wrap_future(pool.submit(shard, ops))
            )
            if self.hub.enabled:
                elapsed = time.perf_counter() - submit_start
                self.hub.absorb(response.get("obs"))
                # Transport spans: real timeline events for an operator,
                # excluded from the canonical tree (a replay twin serves
                # inline and never emits them).
                for _name, shard_waiters in groups:
                    for pending in shard_waiters:
                        if pending.trace_id is not None:
                            self.hub.tracer.record(
                                pending.trace_id,
                                "shard_roundtrip",
                                parent_id=span_id_for(
                                    pending.trace_id, None, "downgrade", 0
                                ),
                                transport=True,
                                elapsed=elapsed,
                                shard=shard,
                            )
            by_key = {
                (result.query_name, result.session_id): result
                for result in response["results"]
            }
            return by_key, response

        async def restart() -> None:
            pool.restart_shard(shard)
            self.stats.shard_restarts += 1
            self._shard_views.pop(shard, None)

        async def fallback():
            # The down shard's sessions are adopted by the gateway core,
            # whose admission and commits run against the durable mirror
            # ledger: the floor holds exactly as it would on the shard.
            self.stats.degraded_batches += 1
            self._adopt_degraded_sessions(shard)
            return self._serve_on_gateway(groups), None

        try:
            by_key, response = await self.supervisor.supervise(
                "serving",
                shard,
                attempt,
                deadline=self.config.serving_deadline,
                restart=restart,
                fallback=fallback,
            )
        except BaseException:
            self._shard_views.pop(shard, None)
            raise
        # One step from here to the row write: nothing below awaits.
        if response is None or self._shard_views[shard].epoch != self._mirror_epoch():
            self._shard_views.pop(shard, None)
        if response is not None:
            if self.ledger is not None:
                self.ledger.apply_payloads(response["deltas"], monotone=True)
            self.stats.budget_refusals += response["budget_refusals"]
            self._retire_degraded_sessions(shard)
            self._journal_ack_downgrades(groups, by_key)
        return by_key

    # -- observability ---------------------------------------------------------
    def _count_compile(self, outcome: str) -> None:
        """Tally one compile request by the mechanism that paid for it."""
        registry = self.hub.registry
        if registry:
            registry.counter(
                "anosy_gateway_compiles_total",
                "Compile requests by outcome (cache_hit/coalesced/compiled/shed).",
                labels=("outcome",),
            ).labels(outcome=outcome).inc()

    def _count_shed(
        self, reason: str, *, retry_after: float | None = None
    ) -> None:
        """Tally one shed downgrade; degraded sheds update the hint gauge."""
        registry = self.hub.registry
        if not registry:
            return
        registry.counter(
            "anosy_gateway_shed_total",
            "Downgrades shed by queue admission, by reason.",
            labels=("reason",),
        ).labels(reason=reason).inc()
        if retry_after is not None:
            registry.gauge(
                "anosy_gateway_retry_after_seconds",
                "Retry-After hint of the most recent degraded shed.",
                channel="timing",
            ).set(retry_after)

    def _count_results(self, results: Any) -> None:
        """Tally resolved downgrade results by outcome kind."""
        registry = self.hub.registry
        if not registry:
            return
        for result in results:
            _DOWNGRADES_TOTAL(registry, result_kind(result)).inc()

    def _observe_tick(self, started: float, sessions: int) -> None:
        """Record one non-empty flush tick's latency and batch size."""
        registry = self.hub.registry
        if not registry or sessions == 0:
            return
        registry.histogram(
            "anosy_gateway_tick_seconds",
            "Wall-clock seconds of one flush tick.",
            channel="timing",
        ).observe(time.perf_counter() - started)
        registry.histogram(
            "anosy_gateway_tick_batch_sessions",
            "Queued downgrades served per tick.",
        ).observe(float(sessions))

    def _assign_trace(
        self, pending: _PendingDowngrade, query_name: str, trace_id: str
    ) -> None:
        """Pin a waiter to its trace and record the root span."""
        pending.trace_id = trace_id
        self.hub.bind_key(pending.journal_key, trace_id)
        self.hub.tracer.record(
            trace_id, "downgrade", session=pending.session_id, query=query_name
        )

    def _traces_for(
        self, waiters: list[_PendingDowngrade]
    ) -> dict[str, dict[str, str]] | None:
        """The session → trace fragment for one batch (None when dark)."""
        if not self.hub.enabled:
            return None
        traces = {
            p.session_id: {
                "trace_id": p.trace_id,
                "parent": span_id_for(p.trace_id, None, "downgrade", 0),
            }
            for p in waiters
            if p.trace_id is not None
        }
        return traces or None

    def refresh_gauges(self) -> None:
        """Refresh scrape-time gauges (queue depth, health, stat mirror).

        Gauges describe *now*, so they are set when someone looks —
        ``/metrics`` and ``/statusz`` — never on hot paths.
        """
        registry = self.hub.registry
        if not registry:
            return
        registry.gauge(
            "anosy_gateway_queue_depth", "Downgrades queued for the next tick."
        ).set(self._queued)
        registry.gauge(
            "anosy_gateway_degraded_fraction",
            "Fraction of serving shards with an open breaker.",
        ).set(self.degraded_fraction())
        registry.gauge(
            "anosy_sessions_open",
            "Open sessions (gateway handles in shard-serving mode).",
        ).set(self.open_session_count())
        stat = registry.gauge(
            "anosy_gateway_stat",
            "Mirror of the gateway's lifetime counters (ServerStats).",
            labels=("stat",),
        )
        for name, value in vars(self.stats).items():
            stat.labels(stat=name).set(float(value))

    def degraded_fraction(self) -> float:
        """Fraction of serving shards with an open breaker (0.0 without shards)."""
        if self.serving_pool is None:
            return 0.0
        return self.supervisor.open_fraction("serving", self.config.serving_shards)

    def open_session_count(self) -> int:
        """Open sessions: the gateway's handles in shard-serving mode."""
        if self.serving_pool is None:
            return self.manager.open_count()
        return len(self._shard_sessions)

    def _journal_summary(self) -> dict[str, int] | None:
        """Journal size, traffic counts and whether it stopped (no row decode)."""
        if self.journal is None:
            return None
        return {
            "entries": len(self.journal),
            "appends": self.stats.journal_appends,
            "duplicates": self.stats.journal_duplicates,
            "stopped": self.journal_failure is not None,
        }

    def metrics_text(self) -> str:
        """The Prometheus exposition of the hub's registry ('' when dark)."""
        self.refresh_gauges()
        return self.hub.registry.exposition()

    def statusz(self) -> dict[str, Any]:
        """Runtime introspection: shard health, breakers, journal, traces.

        The structured twin of ``/metrics`` — everything here is also a
        metric or derivable from one, but grouped the way an operator
        debugging the failure-mode matrix (OPERATIONS.md) wants it.
        """
        self.refresh_gauges()
        return {
            "observe": self.hub.enabled,
            "stats": vars(self.stats).copy(),
            "queue_depth": self._queued,
            "serving_shards": self.config.serving_shards,
            "degraded": {
                "fraction": self.degraded_fraction(),
                "sessions": len(self._degraded_sessions),
                "retry_after": (
                    self.supervisor.earliest_retry("serving")
                    if self.serving_pool is not None
                    else 0.0
                ),
            },
            "breakers": self.supervisor.describe_breakers(),
            "journal": self._journal_summary(),
            "traces": {"retained": len(self.hub.tracer.trace_ids())},
        }

    # -- journal & recovery ----------------------------------------------------
    def _lifecycle(
        self,
        kind: str,
        payload: dict[str, Any],
        key: str | None,
        execute: Callable[[], Any],
    ) -> Any:
        """Run one lifecycle request (compile/open/close/epoch), journaled.

        The one journaled path every lifecycle kind shares, one step of
        the event loop that never awaits: reserve the entry under *key*
        (or answer a duplicate from its recorded response), execute, fire
        the before-write kill point, then write the row done with the
        kind's outcome encoding and the drained ledger-mirror writes in
        one transaction (DESIGN.md §12).  An executor that raises writes
        nothing; a write that fails stops the journal.  Unjournaled
        servers just execute.
        """
        if self.journal is None:
            return execute()
        self._refuse_if_stopped()
        journal, codec = self.journal, _LIFECYCLE[kind]
        entry = journal.begin(key or journal.auto_key(kind), kind, payload)
        if entry.status == "done":
            self.stats.journal_duplicates += 1
            return codec.recorded(self, payload, entry.response)
        self.stats.journal_appends += 1
        result = execute()
        self._journal_write(
            lambda: journal.ack(
                entry,
                codec.outcome(payload, result),
                response=None if codec.response is None else codec.response(result),
                bounds=self._drained_bounds(),
            )
        )
        return result

    def _journal_configure(self) -> None:
        """Journal this server's configuration as entry zero (idempotent).

        The configure payload is everything a fresh gateway needs to be
        *this* gateway (policies, floor, decay, mode, options), and its
        key is its own digest — a restart with an unchanged config
        short-circuits to the recorded entry, while a config change
        writes a new configure entry that marks the restart boundary for
        replay.
        """
        assert self.journal is not None
        payload = self._configure_payload()
        key = "configure/" + payload_digest(payload)
        entry = self.journal.begin(key, "configure", payload)
        if entry.status != "done":
            self.stats.journal_appends += 1
            self.journal.ack(entry, _configure_outcome(payload))

    def _configure_payload(self) -> dict[str, Any]:
        """The journaled configuration encoding (replay rebuilds from it)."""
        return {
            "policy": policy_to_json(self.manager.policy),
            "floor": (
                None if self.ledger is None else policy_to_json(self.ledger.floor)
            ),
            "decay": (
                None if self.budget_decay is None else self.budget_decay.to_json()
            ),
            "mode": self.config.mode,
            "check_both": self.config.check_both,
            "options": options_to_json(self.default_options),
        }

    @classmethod
    def replay_twin(
        cls, payload: dict[str, Any], store: CacheBackend
    ) -> "DeclassificationServer":
        """The server a configure payload describes, built inline and unjournaled.

        Decodes exactly what :meth:`_configure_payload` encodes — same
        policies, floor, decay, mode and options — but with inline
        compiles, gateway-local serving and no journal, so a replay
        (:class:`~repro.server.replay.ReplaySession`) is free of process
        pools and timers and only the decision logic can vary.
        """
        return cls(
            policy_from_json(payload["policy"]),
            budget_floor=(
                None
                if payload["floor"] is None
                else policy_from_json(payload["floor"])
            ),
            budget_decay=(
                None
                if payload["decay"] is None
                else DecayPolicy.from_json(payload["decay"])
            ),
            store=store,
            options=options_from_json(payload["options"]),
            config=ServerConfig(
                inline_compiles=True,
                mode=payload["mode"],
                check_both=payload["check_both"],
            ),
        )

    async def apply_entry(
        self,
        kind: str,
        payload: dict[str, Any],
        *,
        idempotency_key: str | None = None,
        trace_seq: int | None = None,
    ) -> dict[str, Any]:
        """Execute one journal-entry payload; returns its outcome encoding.

        The execution surface of replay (re-executing a history on an
        unjournaled twin).  Each kind decodes its payload and runs its
        public request path, so the returned encoding is exactly what the
        original execution digested (its ``outcome_digest``).

        ``trace_seq`` lets an unjournaled replay twin pin a downgrade's
        trace id to the original entry's journal sequence, so the twin's
        trace tree is byte-identical to the source's.
        """
        key = idempotency_key
        if kind == "configure":
            # Construction already configured this server; the entry's
            # outcome is a pure function of its payload.
            return _configure_outcome(payload)
        if kind == "downgrade":
            trace_id = (
                trace_id_for(key, trace_seq)
                if key is not None and trace_seq is not None
                else None
            )
            result = await self._downgrade(
                payload["session_id"], payload["query_name"], key, trace_id
            )
            return downgrade_result_to_json(result)
        if kind == "compile":
            result = await self.register_query(
                _compile_request(payload), idempotency_key=key
            )
        elif kind == "open_session":
            result = self.open_session(
                payload["session_id"],
                _sealed(payload),
                user_id=payload["user_id"],
                idempotency_key=key,
            )
        elif kind == "close_session":
            result = self.close_session(payload["session_id"], idempotency_key=key)
        elif kind == "advance_epoch":
            result = self.advance_epoch(int(payload["epochs"]), idempotency_key=key)
        else:
            raise ValueError(f"unknown journal entry kind {kind!r}")
        return _LIFECYCLE[kind].outcome(payload, result)

    async def rebuild_generation(self, state: JournalState) -> JournalRecovery:
        """Rebuild the ephemeral state a journal prefix implies.

        The one rebuild shared by recovery (after a crash) and replay (at
        a restart boundary).  From *state* (a
        :func:`~repro.server.journal.live_state`, checkpoint included):
        re-register the live queries (warm cache — zero recompiles),
        re-open the live sessions, and re-fold their knowledge — with no
        journal entry, ledger charge or audit decision.  Knowledge is an
        intersection of posterior boxes (commutative, idempotent), so one
        re-fold per answered (session, query) pair rebuilds exactly what
        the dead process held: the rebuilt gateway is a seamless
        continuation, and a journal recorded across crashes replays as
        one history.  Shard-owned sessions are skipped: their shard
        opens them from the mirror's bounds when a job first needs them.
        """
        for payload in state.compiles.values():
            self._register(*await self._compile(_compile_request(payload)))
        for payload in state.sessions.values():
            if self._session_handle(payload["session_id"]) is None:
                self._open_session(
                    payload["session_id"], _sealed(payload), payload["user_id"]
                )
        manager = self.service.manager
        refolded = 0
        for session_id, queries in state.answered.items():
            if session_id not in manager.sessions:
                continue
            for query_name in queries:
                if manager.try_downgrade(session_id, query_name).authorized:
                    refolded += 1
        return JournalRecovery(
            queries=len(state.compiles),
            sessions=len(state.sessions),
            refolded=refolded,
        )

    async def recover_from_journal(self) -> JournalRecovery:
        """Converge this freshly booted server onto its journal's state.

        One phase: :meth:`rebuild_generation` from the whole journal, its
        compaction checkpoint included.  Each row lands with its ledger
        bounds, so a request that died before its write left nothing and
        its client's retry re-runs it from the same prior.  A pending row
        an earlier, write-ahead version left is skipped (a retry of its
        key replaces it).
        """
        if self.journal is None:
            raise ValueError("recover_from_journal requires a journaled server")
        return await self.rebuild_generation(self.journal.state())

    # -- start / stop ----------------------------------------------------------
    async def start(self) -> None:
        """Begin serving.  Flushes are arrival-driven (the first queued
        downgrade schedules one), so there is no background task to
        start; kept so callers pair :meth:`start` with :meth:`stop`."""

    async def stop(self) -> None:
        """Serve whatever is still queued: the final flush drops nothing."""
        await self.flush()

    # -- lifecycle -------------------------------------------------------------
    def shutdown(self) -> None:
        """Tear down the shard processes.  The store (if any) is the
        caller's to close; compiled artifacts and ledger bounds are
        already persisted (a journaled server's bounds only together with
        their rows)."""
        self.pool.shutdown()
        if self.serving_pool is not None:
            self.serving_pool.shutdown()

    def audit_summary(self) -> dict[str, Any]:
        """A compact operational snapshot (counters + component views)."""
        return {
            "stats": vars(self.stats).copy(),
            "cache": {
                "entries": len(self.cache),
                "hits": self.cache.stats.hits,
                "misses": self.cache.stats.misses,
            },
            "shards": [vars(s) for s in self.pool.stats()],
            "serving_shards": self.config.serving_shards,
            "supervisor": {
                "stats": vars(self.supervisor.stats).copy(),
                "breakers": {
                    "compile": self.supervisor.breaker_states("compile"),
                    "serving": self.supervisor.breaker_states("serving"),
                },
                "degraded_sessions": len(self._degraded_sessions),
            },
            "open_sessions": self.open_session_count(),
            "audit_events": self.service.audit.total,
            "audit": {
                "retained": len(self.service.audit),
                "capacity": self.service.audit.capacity,
                "spilled": self.service.audit.spilled,
                "dropped": self.service.audit.dropped,
            },
            "journal": self._journal_summary(),
        }
