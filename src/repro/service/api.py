"""The thin request/response surface of the declassification service.

Plain dataclasses in, audit-trailed decisions out: this is the layer a
transport (HTTP handler, queue consumer, test harness) talks to.  It owns

* a :class:`~repro.service.cache.SynthesisCache` (optionally warm-started
  from disk), wired into a :class:`~repro.core.plugin.QueryRegistry`, so
  registering the same query twice — or across restarts — costs a lookup;
* a :class:`~repro.service.session.SessionManager` for the per-principal
  knowledge state;
* an append-only audit trail of every request the service handled,
  including refusals that never touch any session's knowledge (unknown
  queries, spec mismatches).  Under serving load the trail is a
  size-bounded :class:`AuditTrail` ring: sequence numbers stay dense
  forever, old events spill to a durable sink (the request journal's
  ``audit_spill`` table) or are counted as dropped.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.core.plugin import CompileOptions, QueryRegistry
from repro.lang.ast import BoolExpr
from repro.lang.secrets import SecretSpec, SecretValue
from repro.monad.anosy import DowngradeDecision
from repro.monad.policy import QuantitativePolicy
from repro.monad.protected import ProtectedSecret
from repro.service.cache import SynthesisCache
from repro.service.session import Session, SessionManager

__all__ = [
    "CompileRequest",
    "CompileReceipt",
    "DowngradeRequest",
    "BatchDowngradeRequest",
    "DowngradeResult",
    "downgrade_result",
    "AuditEvent",
    "AuditTrail",
    "DeclassificationService",
]


# ---------------------------------------------------------------------------
# Wire dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompileRequest:
    """Ask the service to make a query declassifiable.

    ``options=None`` uses the service's default compile options, so
    tenants registering the same query share one cache entry.
    """

    name: str
    query: BoolExpr | str
    secret: SecretSpec
    options: CompileOptions | None = None


@dataclass(frozen=True)
class CompileReceipt:
    """What compiling cost, and whether the cache paid for it.

    ``synth_time``/``verify_time`` are always the *artifact's* compile
    cost — on a ``cache_hit`` they report the original cold run, not
    this request (which cost a lookup).
    """

    name: str
    cache_hit: bool
    verified: bool
    synth_time: float
    verify_time: float


@dataclass(frozen=True)
class DowngradeRequest:
    """One principal asking one compiled query."""

    session_id: str
    query_name: str


@dataclass(frozen=True)
class BatchDowngradeRequest:
    """One query asked for many principals (``None`` = all open sessions)."""

    query_name: str
    session_ids: tuple[str, ...] | None = None


@dataclass(frozen=True)
class DowngradeResult:
    """The audit-trailed outcome of one (session, query) request."""

    session_id: str
    query_name: str
    authorized: bool
    response: bool | None
    reason: str
    knowledge_size: int | None


def downgrade_result(
    session_id: str,
    query_name: str,
    decision: DowngradeDecision | None = None,
    *,
    session: Session | None = None,
    reason: str | None = None,
    knowledge_size: int | None = None,
) -> DowngradeResult:
    """Build one request's result; every serving path builds them here.

    With a session-layer ``decision`` the result reports it and the
    ``session``'s knowledge size after it.  Without one the request never
    reached the session layer: a refusal with ``reason`` and the caller's
    ``knowledge_size`` (a budget refusal reports the bound it was checked
    against), or, with no reason, an unknown session.
    """
    if decision is not None:
        return DowngradeResult(
            session_id=session_id,
            query_name=query_name,
            authorized=decision.authorized,
            response=decision.response,
            reason=decision.reason,
            knowledge_size=None if session is None else session.knowledge_size(),
        )
    return DowngradeResult(
        session_id=session_id,
        query_name=query_name,
        authorized=False,
        response=None,
        reason=f"no open session {session_id!r}" if reason is None else reason,
        knowledge_size=knowledge_size,
    )


@dataclass(frozen=True)
class AuditEvent:
    """One append-only audit trail entry."""

    seq: int
    kind: str
    data: dict[str, Any]


class AuditTrail:
    """A size-bounded audit ring with dense seqs and an overflow hook.

    Behaves like the append-only list it replaces (``len``, iteration,
    indexing — including ``trail[-1]``) over the *retained* window, but
    under serving load it cannot grow without bound: past ``capacity``
    the oldest events are evicted, handed to the ``spill`` callback when
    one is set (the request journal persists them to its
    ``audit_spill`` table), and counted in :attr:`dropped` otherwise.
    Sequence numbers are assigned from :attr:`total` — the count of
    events *ever* appended — so they stay dense across evictions.

    Not self-synchronizing: the owning service appends under its audit
    lock, exactly as the plain list did.
    """

    def __init__(
        self,
        capacity: int | None = None,
        spill: Callable[[Iterable[AuditEvent]], None] | None = None,
    ):
        self.capacity = capacity
        self.spill = spill
        self.total = 0
        #: Evicted events persisted through :attr:`spill`.
        self.spilled = 0
        #: Evicted events lost for good (no spill sink configured).
        self.dropped = 0
        self._events: deque[AuditEvent] = deque()

    def append(self, kind: str, data: dict[str, Any]) -> AuditEvent:
        """Append one event, evicting (and spilling) past capacity."""
        event = AuditEvent(seq=self.total, kind=kind, data=data)
        self.total += 1
        self._events.append(event)
        overflow: list[AuditEvent] = []
        while self.capacity is not None and len(self._events) > self.capacity:
            overflow.append(self._events.popleft())
        if overflow:
            if self.spill is not None:
                self.spill(overflow)
                self.spilled += len(overflow)
            else:
                self.dropped += len(overflow)
        return event

    def __len__(self) -> int:
        """Events currently retained in memory."""
        return len(self._events)

    def __iter__(self) -> Iterator[AuditEvent]:
        """Iterate the retained window, oldest first."""
        return iter(self._events)

    def __getitem__(self, index: int) -> AuditEvent:
        """Index into the retained window (negative indices included)."""
        return self._events[index]


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------


class DeclassificationService:
    """Compile-once / serve-many declassification over many sessions."""

    def __init__(
        self,
        policy: QuantitativePolicy,
        *,
        options: CompileOptions = CompileOptions(),
        cache: SynthesisCache | None = None,
        mode: str = "under",
        check_both: bool = True,
        audit_capacity: int | None = None,
    ):
        self.default_options = options
        self.cache = cache if cache is not None else SynthesisCache()
        self.registry = QueryRegistry(cache=self.cache)
        self.manager = SessionManager(
            registry=self.registry, policy=policy, mode=mode, check_both=check_both
        )
        #: ``audit_capacity=None`` keeps the library default: an
        #: unbounded trail.  The serving gateway passes a bound (and a
        #: spill sink when journaled) so long-lived processes stay flat.
        self.audit = AuditTrail(capacity=audit_capacity)
        self._audit_lock = threading.Lock()
        # Serializes register_query: concurrent registrations of one
        # not-yet-cached problem must not both run synthesis (and the
        # hit/miss receipt bookkeeping must see a consistent cache).
        self._compile_lock = threading.Lock()

    @classmethod
    def warm_start(
        cls,
        policy: QuantitativePolicy,
        cache_path: str | Path,
        **kwargs: Any,
    ) -> "DeclassificationService":
        """Build a service whose cache is preloaded from a JSON file."""
        return cls(policy, cache=SynthesisCache.load(cache_path), **kwargs)

    def save_cache(self, cache_path: str | Path) -> None:
        """Persist the synthesis cache for the next process's warm start."""
        self.cache.save(cache_path)

    # -- observability -----------------------------------------------------
    @property
    def metrics(self) -> Any:
        """The metrics registry in use (the manager's; null by default)."""
        return self.manager.metrics

    @metrics.setter
    def metrics(self, registry: Any) -> None:
        self.manager.metrics = registry

    # -- audit -------------------------------------------------------------
    def audit_event(self, kind: str, **data: Any) -> None:
        """Append one event to the audit trail (dense seqs, counted)."""
        # The sequence number must be dense even when worker threads audit
        # concurrently, so assignment and append happen under one lock.
        with self._audit_lock:
            spilled = self.audit.spilled
            dropped = self.audit.dropped
            self.audit.append(kind, data)
            metrics = self.manager.metrics
            if metrics:
                metrics.counter(
                    "anosy_audit_events_total",
                    "Audit-trail events appended, by kind.",
                    labels=("kind",),
                ).labels(kind=kind).inc()
                if self.audit.spilled > spilled:
                    metrics.counter(
                        "anosy_audit_spilled_total",
                        "Audit events evicted to the durable spill sink.",
                    ).inc(self.audit.spilled - spilled)
                if self.audit.dropped > dropped:
                    metrics.counter(
                        "anosy_audit_dropped_total",
                        "Audit events evicted with no spill sink (lost).",
                    ).inc(self.audit.dropped - dropped)

    # -- compilation -------------------------------------------------------
    def register_query(self, request: CompileRequest) -> CompileReceipt:
        """Compile (or cache-hit) and register one query.

        Compilation is serialized: the second of two concurrent
        registrations of the same fresh problem waits and then hits the
        cache instead of synthesizing twice.  (The gateway adds event-loop
        coalescing on top for the sharded path.)
        """
        options = request.options if request.options is not None else self.default_options
        with self._compile_lock:
            hits_before = self.cache.stats.hits
            compiled = self.registry.compile_and_register(
                request.name, request.query, request.secret, options
            )
            cache_hit = self.cache.stats.hits > hits_before
        receipt = CompileReceipt(
            name=compiled.name,
            cache_hit=cache_hit,
            verified=all(report.verified for report in compiled.reports.values()),
            synth_time=sum(r.synth_time for r in compiled.reports.values()),
            verify_time=sum(r.verify_time for r in compiled.reports.values()),
        )
        self.audit_event(
            "compile",
            name=receipt.name,
            secret=request.secret.name,
            cache_hit=receipt.cache_hit,
            verified=receipt.verified,
        )
        return receipt

    # -- session lifecycle -------------------------------------------------
    def open_session(
        self,
        session_id: str,
        secret: ProtectedSecret | tuple[SecretSpec, SecretValue],
    ) -> Session:
        """Register one principal with its protected secret."""
        session = self.manager.open_session(session_id, secret)
        self.audit_event("session_open", session_id=session_id, secret=session.spec.name)
        return session

    def close_session(self, session_id: str) -> Session:
        """Drop a principal; the returned session keeps its audit trail."""
        session = self.manager.close_session(session_id)
        self.audit_event(
            "session_close",
            session_id=session_id,
            downgrades=len(session.history),
            authorized=session.authorized_count(),
        )
        return session

    # -- serving -----------------------------------------------------------
    def handle(self, request: DowngradeRequest) -> DowngradeResult:
        """Serve one downgrade request.

        Unlike :class:`~repro.service.session.SessionManager` (which
        raises for unknown sessions), the facade turns every invalid
        input — the one thing a remote client controls — into a
        structured, audited refusal.
        """
        sid, query_name = request.session_id, request.query_name
        decision = (
            self.manager.try_downgrade(sid, query_name)
            if sid in self.manager.sessions
            else None
        )
        result = downgrade_result(
            sid, query_name, decision, session=self.manager.sessions.get(sid)
        )
        self.audit_event(
            "downgrade",
            session_id=result.session_id,
            query_name=result.query_name,
            authorized=result.authorized,
            reason=result.reason,
        )
        return result

    def handle_batch(self, request: BatchDowngradeRequest) -> list[DowngradeResult]:
        """Serve one query for many sessions in a single pass.

        Unknown session ids become per-session refusals instead of
        aborting the batch; duplicates collapse to one request.  Results
        come back in (deduplicated) request order.
        """
        ids = list(
            dict.fromkeys(
                self.manager.sessions
                if request.session_ids is None
                else request.session_ids
            )
        )
        known = [sid for sid in ids if sid in self.manager.sessions]
        decisions = self.manager.downgrade_batch(request.query_name, known)
        results = [
            downgrade_result(
                sid,
                request.query_name,
                decisions.get(sid),
                session=self.manager.sessions.get(sid),
            )
            for sid in ids
        ]
        self.audit_event(
            "batch",
            query_name=request.query_name,
            sessions=len(results),
            authorized=sum(1 for r in results if r.authorized),
        )
        return results
