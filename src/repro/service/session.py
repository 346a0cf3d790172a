"""Multi-session serving: many secrets, one compiled-query registry.

:class:`~repro.monad.anosy.AnosyT` tracks knowledge per *secret value*
inside one monadic computation.  A service instead juggles thousands of
independent principals — one per connected user — all declassifying
through the same small set of compiled queries.  :class:`SessionManager`
makes that split explicit, mirroring the Haskell artifact's ``AnosyST``
(whose ``secrets :: HashMap secret dom`` multiplexes tracked knowledge
over a single ``queries`` table):

* the :class:`~repro.core.plugin.QueryRegistry` and the policy are shared,
  immutable serving state — compile once, attach to a manager, serve;
* each :class:`Session` owns one protected secret and its mutable
  attacker-knowledge approximation plus an audit trail.

:meth:`SessionManager.downgrade_batch` is the throughput path: the
compiled ind.-set pair is fetched once per query, the prior→posterior
intersection is memoized per *distinct* prior (fleets of fresh sessions
all share the ⊤ prior, so a thousand sessions cost one intersection), and
only the secret-dependent parts — query evaluation and knowledge update —
run per session.

The manager is safe for concurrent use: one reentrant lock serializes
session lifecycle and every batch application, so a session's knowledge
history is always a linearization of whole downgrades — a worker pool
never observes a batch half-applied.  (Compiled artifacts need no lock:
the registry is immutable shared state.)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.core.plugin import QueryRegistry
from repro.core.qinfo import DomainPair, QInfo
from repro.domains.base import AbstractDomain
from repro.lang.secrets import SecretSpec, SecretValue
from repro.monad.anosy import (
    DowngradeDecision,
    DowngradeInvariantError,
    DowngradeRecord,
    PolicyViolation,
    UnknownQuery,
    batch_pair_verdict,
    batch_verdict,
    evaluate_downgrade,
    pair_verdict,
    top_knowledge_for,
)
from repro.monad.policy import QuantitativePolicy
from repro.monad.protected import ProtectedSecret
from repro.obs.metrics import NULL_REGISTRY
from repro.service.soa import FleetStore
from repro.solver import vectoreval

__all__ = ["Session", "SessionManager"]

#: Below this many eligible sessions the SoA machinery costs more than
#: the scalar loop; single-session paths (``try_downgrade``) stay scalar.
_VECTOR_MIN_SESSIONS = 2


class _GroupPlan:
    """Precomputed outcome of one (query, distinct-prior) group.

    Downgrade outcomes are a pure function of the query, the prior, the
    policy, and the serving discipline (mode / ``check_both``) — never of
    the secret — so a fleet tick can reuse the plan built the first time
    a distinct prior meets a query: posterior refs into the interning
    table, shared frozen decision/record objects, and the two per-side
    verdicts.  Registries refuse duplicate names and the policy is
    immutable shared state, which is what makes the cache sound.
    """

    __slots__ = (
        "ok_true",
        "ok_false",
        "ref_true",
        "ref_false",
        "post_true",
        "post_false",
        "dec_true",
        "dec_false",
        "rec_true",
        "rec_false",
        "dec_refused",
        "rec_refused",
    )


@dataclass
class Session:
    """One principal's mutable serving state.

    ``knowledge is None`` means no downgrade has happened yet — the
    attacker's knowledge is still the full secret space (⊤ is materialized
    lazily, per query domain, by the manager).
    """

    session_id: str
    secret: ProtectedSecret
    knowledge: AbstractDomain | None = None
    history: list[DowngradeRecord] = field(default_factory=list)

    @property
    def spec(self) -> SecretSpec:
        """The secret type this session declassifies over."""
        return self.secret.spec

    def knowledge_size(self) -> int | None:
        """Size of the tracked knowledge (``None`` before any downgrade)."""
        return None if self.knowledge is None else self.knowledge.size()

    def authorized_count(self) -> int:
        """Authorized downgrades in this session's audit trail."""
        return sum(1 for record in self.history if record.authorized)


@dataclass
class SessionManager:
    """Shared compiled queries + policy, multiplexed over many sessions."""

    registry: QueryRegistry
    policy: QuantitativePolicy
    mode: str = "under"
    check_both: bool = True
    #: Serve eligible batches through the structure-of-arrays tensor path
    #: (one stacked intersection + one vectorized verdict per tick).  Off,
    #: or without NumPy, every batch runs the scalar reference path; the
    #: two are differentially identical (decisions, posteriors, audit
    #: records — see tests/service/test_vectorized_differential.py).
    vectorized: bool = True
    #: Settable metrics registry (``repro.obs``); the owning service or
    #: gateway swaps in its hub's registry.  Path selection is a
    #: decision-channel fact (batch size and NumPy availability, never
    #: the secrets).
    metrics: Any = field(default=NULL_REGISTRY, repr=False, compare=False)
    sessions: dict[str, Session] = field(default_factory=dict)
    #: Serializes lifecycle and batch application; reentrant because the
    #: single-session paths funnel into :meth:`downgrade_batch`.
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )
    #: Lazily-built SoA mirrors of open sessions, one per secret type.
    _stores: dict[str, FleetStore] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Memoized :class:`_GroupPlan` per (query, mode, check_both, ref).
    _plans: dict[tuple[str, str, bool, int], _GroupPlan] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.mode not in ("under", "over"):
            raise ValueError(f"mode must be 'under' or 'over', got {self.mode!r}")

    # -- session lifecycle -------------------------------------------------
    def open_session(
        self,
        session_id: str,
        secret: ProtectedSecret | tuple[SecretSpec, SecretValue],
    ) -> Session:
        """Register a principal; ids must be unique among open sessions."""
        with self._lock:
            if session_id in self.sessions:
                raise ValueError(f"session {session_id!r} already open")
            if not isinstance(secret, ProtectedSecret):
                spec, value = secret
                secret = ProtectedSecret.seal(spec, value)
            session = Session(session_id=session_id, secret=secret)
            self.sessions[session_id] = session
            return session

    def open_sessions(
        self, secrets: Mapping[str, ProtectedSecret | tuple[SecretSpec, SecretValue]]
    ) -> list[Session]:
        """Bulk :meth:`open_session` (e.g. a fleet of fresh users)."""
        return [self.open_session(sid, secret) for sid, secret in secrets.items()]

    def close_session(self, session_id: str) -> Session:
        """Drop a session, returning its final state (with audit trail)."""
        with self._lock:
            try:
                session = self.sessions.pop(session_id)
            except KeyError:
                raise KeyError(f"no open session {session_id!r}") from None
            store = self._stores.get(session.spec.name)
            if store is not None:
                store.discard(session_id)
            return session

    def session(self, session_id: str) -> Session:
        """Look up an open session."""
        with self._lock:
            try:
                return self.sessions[session_id]
            except KeyError:
                raise KeyError(f"no open session {session_id!r}") from None

    def knowledge_of(self, session_id: str) -> AbstractDomain | None:
        """The tracked knowledge for a session (``None`` = no prior yet)."""
        return self.session(session_id).knowledge

    # -- serving -----------------------------------------------------------
    def downgrade(self, session_id: str, query_name: str) -> bool:
        """Raising single-session downgrade (Figure 2 semantics)."""
        decision = self.try_downgrade(session_id, query_name)
        if not decision.authorized:
            if decision.kind == "unknown_query":
                raise UnknownQuery(decision.reason)
            raise PolicyViolation(decision.reason)
        if decision.response is None:
            raise DowngradeInvariantError(
                f"authorized downgrade of {query_name!r} carries no response"
            )
        return decision.response

    def try_downgrade(self, session_id: str, query_name: str) -> DowngradeDecision:
        """Non-raising single-session downgrade."""
        return self.downgrade_batch(query_name, [session_id])[session_id]

    def downgrade_batch(
        self,
        query_name: str,
        session_ids: Iterable[str] | None = None,
        *,
        posteriors: Mapping[AbstractDomain, DomainPair] | None = None,
    ) -> dict[str, DowngradeDecision]:
        """Answer one query for many sessions in a single pass.

        ``session_ids`` defaults to every open session; duplicate ids
        collapse to one request.  Every id is resolved *before* any
        knowledge is touched, so an unknown session raises without
        leaving the batch half-applied.  The compiled ind.-set pair is
        fetched once; posterior pairs (via :meth:`QInfo.approx_batch
        <repro.core.qinfo.QInfo.approx_batch>`) and, in the
        ``check_both`` discipline, the secret-independent authorization
        verdict are memoized per distinct prior.  ``posteriors`` maps
        priors to pairs the caller already computed for this query in
        this manager's mode (the ledger's admission pass); priors found
        there are not intersected again.
        """
        with self._lock:
            return self._downgrade_batch_locked(query_name, session_ids, posteriors)

    def _downgrade_batch_locked(
        self,
        query_name: str,
        session_ids: Iterable[str] | None,
        posteriors: Mapping[AbstractDomain, DomainPair] | None,
    ) -> dict[str, DowngradeDecision]:
        ids = list(dict.fromkeys(self.sessions if session_ids is None else session_ids))
        sessions: dict[str, Session] = {}
        for sid in ids:
            session = self.sessions.get(sid)
            if session is None:
                raise KeyError(f"no open session {sid!r}")
            sessions[sid] = session

        compiled = self.registry.lookup(query_name)
        if compiled is None:
            refusal = DowngradeDecision(
                authorized=False,
                response=None,
                reason=f"Can't downgrade {query_name}",
                kind="unknown_query",
            )
            return {sid: self._record(sid, query_name, refusal, None) for sid in ids}

        qinfo = compiled.qinfo
        top = top_knowledge_for(qinfo)
        decisions: dict[str, DowngradeDecision] = {}

        eligible: list[str] = []
        qsecret = qinfo.secret
        for sid, session in sessions.items():
            spec = session.secret.spec
            if spec is not qsecret and spec != qsecret:
                decisions[sid] = self._record(
                    sid,
                    query_name,
                    DowngradeDecision(
                        authorized=False,
                        response=None,
                        reason=(
                            f"query {query_name!r} is over {qinfo.secret.name!r}, "
                            f"secret is {session.spec.name!r}"
                        ),
                        kind="spec_mismatch",
                    ),
                    None,
                )
            else:
                eligible.append(sid)

        if (
            self.vectorized
            and vectoreval.AVAILABLE
            and len(eligible) >= _VECTOR_MIN_SESSIONS
        ):
            self._count_path("vectorized", len(eligible))
            self._serve_eligible_vectorized(
                query_name, qinfo, sessions, eligible, decisions, top, posteriors
            )
        else:
            self._count_path("scalar", len(eligible))
            self._serve_eligible_scalar(
                query_name, qinfo, sessions, eligible, decisions, top, posteriors
            )
        if len(eligible) == len(ids):
            # No spec mismatches: decisions were filled in ids order.
            return decisions
        return {sid: decisions[sid] for sid in ids}

    def _count_path(self, path: str, sessions: int) -> None:
        """Tally which serving path one batch took (and how many rows)."""
        if self.metrics:
            self.metrics.counter(
                "anosy_serve_path_total",
                "Serving batches by execution path.",
                labels=("path",),
            ).labels(path=path).inc()
            self.metrics.counter(
                "anosy_serve_path_sessions_total",
                "Sessions served by execution path.",
                labels=("path",),
            ).labels(path=path).inc(sessions)

    def _serve_eligible_scalar(
        self,
        query_name: str,
        qinfo: QInfo,
        sessions: Mapping[str, Session],
        eligible: list[str],
        decisions: dict[str, DowngradeDecision],
        top: AbstractDomain,
        posteriors: Mapping[AbstractDomain, DomainPair] | None,
    ) -> None:
        """The per-session reference path (also the no-NumPy fallback)."""
        priors = [
            sessions[sid].knowledge if sessions[sid].knowledge is not None else top
            for sid in eligible
        ]
        pairs = qinfo.approx_batch(priors, mode=self.mode, known=posteriors)
        verdicts: dict[AbstractDomain, bool] = {}
        for sid, prior, pair in zip(eligible, priors, pairs):
            session = sessions[sid]
            pair_authorized: bool | None = None
            if self.check_both:
                pair_authorized = verdicts.get(prior)
                if pair_authorized is None:
                    pair_authorized = pair_verdict(self.policy, pair)
                    verdicts[prior] = pair_authorized
            decision, posterior = evaluate_downgrade(
                qinfo,
                self.policy,
                session.secret,
                prior,
                mode=self.mode,
                check_both=self.check_both,
                posterior_pair=pair,
                pair_authorized=pair_authorized,
            )
            if posterior is not None:
                session.knowledge = posterior
            decisions[sid] = self._record(sid, query_name, decision, prior)

    def _serve_eligible_vectorized(
        self,
        query_name: str,
        qinfo: QInfo,
        sessions: Mapping[str, Session],
        eligible: list[str],
        decisions: dict[str, DowngradeDecision],
        top: AbstractDomain,
        posteriors: Mapping[AbstractDomain, DomainPair] | None,
    ) -> None:
        """One fleet tick on the SoA store, differentially identical to
        :meth:`_serve_eligible_scalar`.

        The whole tick is four array passes — gather refs, one stacked
        intersection per distinct *new* prior (inside ``approx_batch``;
        priors already seen by this query hit the :class:`_GroupPlan`
        cache), one vectorized size/verdict comparison, one batched query
        run over the admitted rows — plus a per-session loop that only
        assigns precomputed (shared, frozen) decision/record objects.
        The new refs scatter back into the store in one array write.
        """
        np = vectoreval.require_numpy()
        store = self._store_for(qinfo.secret)
        table = store.table
        index = store.index
        count = len(eligible)

        sess_list = [sessions[sid] for sid in eligible]
        rows_list: list[int] = []
        for sid, session in zip(eligible, sess_list):
            row = index.get(sid)
            if row is None:
                row = store.add(sid, session.secret.unprotect_tcb(), session.knowledge)
            rows_list.append(row)
        rows = np.asarray(rows_list, dtype=np.int64)
        refs_list = store.refs[rows].tolist()
        for j, session in enumerate(sess_list):
            if session.knowledge is not table[refs_list[j]]:
                # Knowledge mutated behind the store's back (scalar
                # interleave, test fixture, restore): re-intern, and
                # normalize the session to the interned object so the
                # identity check is cheap again next tick.
                ref = store.intern(session.knowledge)
                refs_list[j] = ref
                store.refs[rows_list[j]] = ref
                if session.knowledge is not None:
                    session.knowledge = table[ref]

        uniq, inverse = np.unique(
            np.asarray(refs_list, dtype=np.int64), return_inverse=True
        )
        plan_key = (query_name, self.mode, self.check_both)
        uniq_list = uniq.tolist()
        plans: list[_GroupPlan] = []
        misses: list[int] = []
        for k, ref in enumerate(uniq_list):
            plan = self._plans.get(plan_key + (ref,))
            if plan is None:
                misses.append(k)
                plan = _GroupPlan()
            plans.append(plan)
        if misses:
            self._build_plans(
                query_name,
                qinfo,
                store,
                [uniq_list[k] for k in misses],
                [plans[k] for k in misses],
                top,
                plan_key,
                posteriors,
            )

        if self.check_both:
            auth_groups = np.fromiter(
                (plan.ok_true for plan in plans), dtype=bool, count=len(plans)
            )
            auth_rows = auth_groups[inverse]
            responses = np.zeros(count, dtype=bool)
            admitted = np.flatnonzero(auth_rows)
            if len(admitted):
                responses[admitted] = qinfo.run_batch(store.secrets[rows[admitted]])
        else:
            # Evaluation-faithful mode: the query runs for every eligible
            # session, then only the observed side's posterior is checked.
            responses = qinfo.run_batch(store.secrets[rows])
            ok_true = np.fromiter(
                (plan.ok_true for plan in plans), dtype=bool, count=len(plans)
            )
            ok_false = np.fromiter(
                (plan.ok_false for plan in plans), dtype=bool, count=len(plans)
            )
            auth_rows = np.where(responses, ok_true[inverse], ok_false[inverse])

        # The only per-session Python: scatter precomputed outcomes.
        group_of = inverse.tolist()
        authorized_list = auth_rows.tolist()
        response_list = responses.tolist()
        new_refs = refs_list
        for j, sid in enumerate(eligible):
            plan = plans[group_of[j]]
            session = sess_list[j]
            if authorized_list[j]:
                if response_list[j]:
                    session.knowledge = plan.post_true
                    new_refs[j] = plan.ref_true
                    decisions[sid] = plan.dec_true
                    session.history.append(plan.rec_true)
                else:
                    session.knowledge = plan.post_false
                    new_refs[j] = plan.ref_false
                    decisions[sid] = plan.dec_false
                    session.history.append(plan.rec_false)
            else:
                decisions[sid] = plan.dec_refused
                session.history.append(plan.rec_refused)
        store.refs[rows] = np.asarray(new_refs, dtype=np.int64)

    def _build_plans(
        self,
        query_name: str,
        qinfo: QInfo,
        store: FleetStore,
        refs: list[int],
        plans: list[_GroupPlan],
        top: AbstractDomain,
        plan_key: tuple[str, str, bool],
        posteriors: Mapping[AbstractDomain, DomainPair] | None,
    ) -> None:
        """Fill (and cache) group plans for priors this query hasn't met."""
        table = store.table
        priors = [table[ref] if ref else top for ref in refs]
        pairs = qinfo.approx_batch(priors, mode=self.mode, known=posteriors)
        if self.check_both:
            auth = batch_pair_verdict(self.policy, pairs)
            ok_true = ok_false = auth
        else:
            ok_true = batch_verdict(self.policy, [pair[0] for pair in pairs])
            ok_false = batch_verdict(self.policy, [pair[1] for pair in pairs])
        policy_reason = (
            f"Policy Violation: {self.policy.name} fails on a "
            f"posterior of {qinfo.name!r}"
        )
        for k, (ref, prior, pair, plan) in enumerate(zip(refs, priors, pairs, plans)):
            prior_size = prior.size()
            plan.ok_true = bool(ok_true[k])
            plan.ok_false = bool(ok_false[k])
            plan.ref_true = plan.ref_false = 0
            plan.post_true = plan.post_false = None
            plan.dec_true = plan.dec_false = None
            plan.rec_true = plan.rec_false = None
            plan.dec_refused = plan.rec_refused = None
            if plan.ok_true:
                post_ref = store.intern(pair[0])
                plan.ref_true = post_ref
                plan.post_true = table[post_ref]
                plan.dec_true = DowngradeDecision(
                    authorized=True, response=True, reason="ok"
                )
                plan.rec_true = DowngradeRecord(
                    query_name=query_name,
                    authorized=True,
                    response=True,
                    prior_size=prior_size,
                    posterior_size=pair[0].size(),
                )
            if plan.ok_false:
                post_ref = store.intern(pair[1])
                plan.ref_false = post_ref
                plan.post_false = table[post_ref]
                plan.dec_false = DowngradeDecision(
                    authorized=True, response=False, reason="ok"
                )
                plan.rec_false = DowngradeRecord(
                    query_name=query_name,
                    authorized=True,
                    response=False,
                    prior_size=prior_size,
                    posterior_size=pair[1].size(),
                )
            if not (plan.ok_true and plan.ok_false):
                plan.dec_refused = DowngradeDecision(
                    authorized=False,
                    response=None,
                    reason=policy_reason,
                    kind="policy",
                )
                plan.rec_refused = DowngradeRecord(
                    query_name=query_name,
                    authorized=False,
                    response=None,
                    prior_size=prior_size,
                    posterior_size=None,
                )
            self._plans[plan_key + (ref,)] = plan

    def _store_for(self, spec: SecretSpec) -> FleetStore:
        store = self._stores.get(spec.name)
        if store is None:
            store = FleetStore(spec)
            self._stores[spec.name] = store
        return store

    def _record(
        self,
        session_id: str,
        query_name: str,
        decision: DowngradeDecision,
        prior: AbstractDomain | None,
    ) -> DowngradeDecision:
        """Append one audit record to the session's trail.

        ``prior is None`` marks requests refused before any knowledge was
        consulted (unknown query, spec mismatch); like :class:`AnosyT`,
        those never touch the session's knowledge history — the
        service-level audit trail (:mod:`repro.service.api`) still logs
        them.
        """
        session = self.session(session_id)
        if prior is None:
            return decision
        posterior_size = (
            session.knowledge.size()
            if decision.authorized and session.knowledge is not None
            else None
        )
        session.history.append(
            DowngradeRecord(
                query_name=query_name,
                authorized=decision.authorized,
                response=decision.response,
                prior_size=prior.size(),
                posterior_size=posterior_size,
            )
        )
        return decision

    # -- introspection -----------------------------------------------------
    def open_count(self) -> int:
        """Number of open sessions."""
        with self._lock:
            return len(self.sessions)

    def authorized_count(self) -> int:
        """Authorized downgrades across all open sessions."""
        with self._lock:
            return sum(
                session.authorized_count() for session in self.sessions.values()
            )
