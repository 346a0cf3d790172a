"""The serving core: one batched ``downgrade``, shared by every serving path.

The paper's ``downgrade`` (Figure 2) looks up the prior, checks the
policy on both potential posteriors, runs the query and stores the
posterior.  :class:`ServingCore` is its batched form with the
privacy-budget ledger interposed, and the only place the runtime
serves a downgrade:

* a serving shard (:mod:`repro.server.workers`) runs one over its slice
  of sessions and its enforcement ledger;
* the gateway (:mod:`repro.server.gateway`) runs one over its own
  session manager and durable mirror ledger — for gateway-local serving
  and for the degraded fallback alike.

For each query batch the core partitions sessions into rounds that
never repeat a ledger user (:func:`rounds_by_user`), refuses unknown
sessions, checks ledger admission once per round
(:meth:`~repro.server.ledger.PrivacyBudgetLedger.preauthorize_batch`),
runs the admitted sessions through one
:meth:`~repro.service.session.SessionManager.downgrade_batch` pass,
commits the answered queries, and buffers the ``admission``/``serve``
decision spans of traced sessions.  Results are built by
:func:`~repro.service.api.downgrade_result`, the builder the service
facade uses too.

The core is synchronous and not reentrant: callers run one batch at a
time, so every ledger commit follows its own round's admission.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.qinfo import DomainPair
from repro.domains.base import AbstractDomain
from repro.lang.secrets import SecretSpec
from repro.monad.anosy import DowngradeInvariantError
from repro.obs.trace import Span, span_id_for
from repro.server import faults
from repro.server.ledger import PrivacyBudgetLedger
from repro.service.api import DowngradeResult, downgrade_result
from repro.service.session import SessionManager

__all__ = ["ServingCore", "result_kind", "rounds_by_user"]


def result_kind(result: DowngradeResult) -> str:
    """The machine-readable outcome class of one downgrade result.

    Derived from the result alone (not the internal decision object), so
    every serving configuration and a replay twin label the same result
    identically — the property the trace-tree bit-identity contract
    rests on.  Mirrors :class:`~repro.monad.anosy.DowngradeDecision`
    ``kind`` values, plus ``"budget"`` (ledger admission) and
    ``"unknown_session"``, which never reach the session layer.
    """
    if result.authorized:
        return "ok"
    reason = result.reason
    if reason.startswith("Can't downgrade"):
        return "unknown_query"
    if reason.startswith("Policy Violation"):
        return "policy"
    if reason.startswith("no open session"):
        return "unknown_session"
    if reason.startswith("budget exhausted"):
        return "budget"
    if ", secret is " in reason:
        return "spec_mismatch"
    return "refused"


def rounds_by_user(
    ids: Iterable[str], users: dict[str, str]
) -> list[list[str]]:
    """Partition session ids into rounds that never repeat a ledger user.

    When one user has several sessions in a batch, serving them in a
    single pass would preauthorize all of them against the *same* bound
    and then commit sequentially — the second commit could cross the
    floor mid-batch.  Round-partitioning makes every commit immediately
    follow the admission check it was granted under.
    """
    rounds: list[list[str]] = []
    placed: list[set[str]] = []
    for sid in ids:
        user = users.get(sid, sid)
        for round_ids, round_users in zip(rounds, placed):
            if user not in round_users:
                round_ids.append(sid)
                round_users.add(user)
                break
        else:
            rounds.append([sid])
            placed.append({user})
    return rounds


class ServingCore:
    """Sessions + optional ledger + session→user map + span buffer.

    ``users`` maps session ids to durable ledger users (a session is its
    own user when absent); the owner keeps it current as sessions open
    and close.  :attr:`spans` collects the decision spans of traced
    sessions until the owner drains them.
    """

    def __init__(
        self,
        manager: SessionManager,
        ledger: PrivacyBudgetLedger | None = None,
        users: dict[str, str] | None = None,
    ):
        self.manager = manager
        self.ledger = ledger
        self.users: dict[str, str] = {} if users is None else users
        self.spans: list[Span] = []

    def serve_batch(
        self,
        query_name: str,
        session_ids: Iterable[str],
        traces: dict[str, dict[str, str]] | None = None,
    ) -> tuple[list[DowngradeResult], dict[tuple[str, str], SecretSpec], int]:
        """Serve one query for many sessions.

        Returns the results in (deduplicated) request order, the
        ``(user_id, spec_name) → spec`` bounds the ledger committed, and
        the number of budget refusals.  ``traces`` (session id →
        ``{"trace_id", "parent"}``) names the trace each session's
        decision spans belong to.  Span attributes carry only
        secret-independent facts: under ``check_both`` admission
        ``allowed`` and serve ``authorized``/``kind`` are decided on both
        potential posteriors, never on the response.
        """
        ids = list(dict.fromkeys(session_ids))
        manager = self.manager
        compiled = manager.registry.lookup(query_name)
        ledger = self.ledger if compiled is not None else None
        results: dict[str, DowngradeResult] = {}
        touched: dict[tuple[str, str], SecretSpec] = {}
        refusals = 0
        for round_ids in rounds_by_user(ids, self.users):
            present: list[str] = []
            for sid in round_ids:
                if sid in manager.sessions:
                    present.append(sid)
                else:
                    results[sid] = downgrade_result(sid, query_name)
                    self._span(
                        traces, sid, "serve", authorized=False, kind="unknown_session"
                    )
            admitted = present
            # Admission's posterior pair per distinct bound, handed to the
            # session pass of this round only: a session whose knowledge
            # equals its ledger bound needs no intersection of its own.
            posteriors: dict[AbstractDomain, DomainPair] = {}
            if ledger is not None and present:
                # One batched admission pass: the floor is checked once
                # per distinct bound instead of once per session.
                admitted = []
                users = {sid: self.users.get(sid, sid) for sid in present}
                decisions = ledger.preauthorize_batch(
                    users.values(),
                    compiled.qinfo,
                    mode=manager.mode,
                    posteriors=posteriors,
                )
                for sid in present:
                    decision = decisions[users[sid]]
                    self._span(traces, sid, "admission", allowed=decision.allowed)
                    if decision.allowed:
                        admitted.append(sid)
                    else:
                        refusals += 1
                        results[sid] = downgrade_result(
                            sid,
                            query_name,
                            reason=decision.reason,
                            knowledge_size=decision.remaining,
                        )
            if not admitted:
                continue
            # Chaos kill point: admitted (preauthorized) but not yet
            # committed — a crash here must not charge anyone.
            faults.maybe_crash("serve.round", "crash_before_result")
            served = manager.downgrade_batch(
                query_name, admitted, posteriors=posteriors
            )
            for sid, decision in served.items():
                result = results[sid] = downgrade_result(
                    sid, query_name, decision, session=manager.sessions.get(sid)
                )
                self._span(
                    traces,
                    sid,
                    "serve",
                    authorized=result.authorized,
                    kind=result_kind(result),
                )
                if ledger is None or not result.authorized:
                    continue
                if result.response is None:
                    raise DowngradeInvariantError(
                        f"authorized downgrade of {query_name!r} for {sid!r} "
                        "carries no response"
                    )
                user_id = self.users.get(sid, sid)
                ledger.commit(
                    user_id, compiled.qinfo, result.response, mode=manager.mode
                )
                spec = compiled.qinfo.secret
                touched[(user_id, spec.name)] = spec
            # Chaos kill point: commits happened, but the caller has not
            # seen them — on a shard they die with the process.
            faults.maybe_crash("serve.round", "crash_after_commit")
        return [results[sid] for sid in ids], touched, refusals

    def drain_spans(self) -> list[Span]:
        """Hand over (and forget) the buffered decision spans."""
        spans, self.spans = self.spans, []
        return spans

    def _span(
        self,
        traces: dict[str, dict[str, str]] | None,
        sid: str,
        name: str,
        **attrs: Any,
    ) -> None:
        """Buffer one decision span for a traced session (else no-op)."""
        info = None if traces is None else traces.get(sid)
        if info is None:
            return
        trace_id = info["trace_id"]
        parent = info.get("parent")
        self.spans.append(
            Span(
                trace_id=trace_id,
                span_id=span_id_for(trace_id, parent, name, 0),
                parent_id=parent,
                name=name,
                attrs=attrs,
            )
        )
