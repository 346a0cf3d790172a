"""PrivacyBudgetLedger property tests.

The two acceptance invariants, driven by Hypothesis over random secrets,
random threshold-query workloads, and random floors:

1. a **refused** charge never changes any of the user's bounds;
2. after any **accepted** sequence, the sound bound still satisfies the
   floor (and a rogue ``commit`` that would cross it raises *without*
   mutating).

Queries are built directly as :class:`~repro.core.qinfo.QInfo` values
with exact ind.-set pairs (no synthesis), so hundreds of ledger
histories run in milliseconds.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core.qinfo import QInfo
from repro.domains.box import IntervalDomain
from repro.domains.powerset import PowersetDomain
from repro.lang.parser import parse_bool
from repro.lang.secrets import SecretSpec
from repro.monad.policy import size_above
from repro.monad.protected import ProtectedSecret
from repro.server.ledger import (
    DecayPolicy,
    LedgerFormatError,
    LedgerInvariantError,
    PrivacyBudgetLedger,
)
from repro.server.store import SQLiteStore
from repro.solver.boxes import Box

SPEC = SecretSpec.declare("Grid", x=(0, 15), y=(0, 15))


def threshold_qinfo(axis: str, threshold: int) -> QInfo:
    """An exact compiled artifact for ``axis <= threshold``."""
    if axis == "x":
        true_box = Box(((0, threshold), (0, 15)))
        false_box = Box(((threshold + 1, 15), (0, 15)))
    else:
        true_box = Box(((0, 15), (0, threshold)))
        false_box = Box(((0, 15), (threshold + 1, 15)))
    pair = (IntervalDomain(SPEC, true_box), IntervalDomain(SPEC, false_box))
    return QInfo(
        name=f"{axis}<={threshold}",
        query=parse_bool(f"{axis} <= {threshold}"),
        secret=SPEC,
        under_indset=pair,
        over_indset=pair,
    )


def snapshot(ledger: PrivacyBudgetLedger, user: str):
    account = ledger.account(user)
    return (
        dict(account.sound),
        dict(account.complete),
        list(account.charges),
    )


queries = st.lists(
    st.tuples(st.sampled_from(["x", "y"]), st.integers(min_value=0, max_value=14)),
    min_size=1,
    max_size=8,
)
secrets = st.tuples(
    st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15)
)
floors = st.integers(min_value=0, max_value=200)


@settings(max_examples=150, deadline=None)
@given(workload=queries, secret=secrets, floor=floors)
def test_refusal_never_updates_and_acceptance_never_crosses(
    workload, secret, floor
):
    ledger = PrivacyBudgetLedger(size_above(floor))
    protected = ProtectedSecret.seal(SPEC, secret)
    for axis, threshold in workload:
        qinfo = threshold_qinfo(axis, threshold)
        before = snapshot(ledger, "u")
        refusals_before = ledger.account("u").refusals
        decision = ledger.evaluate("u", qinfo, protected)
        account = ledger.account("u")
        if not decision.authorized:
            # Invariant 1: a refusal is bound-invisible.
            assert snapshot(ledger, "u") == before
            assert account.refusals == refusals_before + 1
            assert decision.response is None
        else:
            # Invariant 2: the sound bound still clears the floor, and the
            # charge trail reflects exactly this fold.
            bound = account.sound[SPEC.name]
            assert bound.size() > floor
            assert account.charges[-1].posterior_size == bound.size()
            assert account.charges[-1].response == decision.response
            # The bound is sound: it always contains the true secret.
            assert bound.contains(secret)
    # Monotone shrinkage: each accepted charge never grew the bound.
    sizes = [charge.posterior_size for charge in ledger.account("u").charges]
    priors = [charge.prior_size for charge in ledger.account("u").charges]
    assert all(post <= prior for post, prior in zip(sizes, priors))


@settings(max_examples=100, deadline=None)
@given(workload=queries, secret=secrets, floor=floors)
def test_preauthorize_never_mutates(workload, secret, floor):
    ledger = PrivacyBudgetLedger(size_above(floor))
    for axis, threshold in workload:
        qinfo = threshold_qinfo(axis, threshold)
        before = snapshot(ledger, "u")
        decision = ledger.preauthorize("u", qinfo)
        assert snapshot(ledger, "u") == before
        assert decision.remaining == ledger.remaining("u", SPEC)


@settings(max_examples=100, deadline=None)
@given(
    workload=queries,
    secret=secrets,
    floor=st.integers(min_value=8, max_value=200),
)
def test_rogue_commit_cannot_cross_the_floor(workload, secret, floor):
    """Even a caller that skips preauthorize cannot push a bound below
    the floor: the offending commit raises and mutates nothing."""
    ledger = PrivacyBudgetLedger(size_above(floor))
    protected = ProtectedSecret.seal(SPEC, secret)
    for axis, threshold in workload:
        qinfo = threshold_qinfo(axis, threshold)
        response = qinfo.run(protected.unprotect_tcb())
        before = snapshot(ledger, "u")
        try:
            ledger.commit("u", qinfo, response)
        except LedgerInvariantError:
            assert snapshot(ledger, "u") == before
        else:
            assert ledger.account("u").sound[SPEC.name].size() > floor


def test_accounts_are_per_user_and_per_spec():
    ledger = PrivacyBudgetLedger(size_above(4))
    qinfo = threshold_qinfo("x", 7)
    ledger.commit("alice", qinfo, True)
    assert ledger.remaining("alice", SPEC) == 8 * 16
    assert ledger.remaining("bob", SPEC) == SPEC.space_size()
    other = SecretSpec.declare("Other", z=(0, 9))
    assert ledger.remaining("alice", other) == other.space_size()
    assert ledger.users() == ["alice", "bob"]


def test_budget_survives_reconnect_scenario():
    """The cross-session scenario sessions cannot express: two sessions,
    one user, one budget."""
    ledger = PrivacyBudgetLedger(size_above(60))
    protected = ProtectedSecret.seal(SPEC, (3, 12))
    # Session 1 asks x<=7 (accepted: both posteriors are 128 > 60).
    assert ledger.evaluate("u", threshold_qinfo("x", 7), protected).authorized
    # Reconnect.  A fresh session's knowledge would reset to ⊤; the
    # ledger's does not: y<=7 still fits (64 > 60)...
    assert ledger.evaluate("u", threshold_qinfo("y", 7), protected).authorized
    # ...but a third halving would land at 32 <= 60 on both sides: refused,
    # even though a session-scoped tracker would have allowed it from ⊤.
    decision = ledger.evaluate("u", threshold_qinfo("x", 3), protected)
    assert not decision.authorized
    assert ledger.remaining("u", SPEC) == 64


def test_charge_records_are_frozen():
    record = PrivacyBudgetLedger(size_above(0))
    record.commit("u", threshold_qinfo("x", 7), True)
    charge = record.account("u").charges[-1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        charge.response = False


# ---------------------------------------------------------------------------
# Durability: bounds survive a ledger restart through a LedgerBackend
# ---------------------------------------------------------------------------

ALL_POINTS = [(x, y) for x in range(16) for y in range(16)]


@settings(max_examples=60, deadline=None)
@given(workload=queries, secret=secrets, floor=floors)
def test_bounds_survive_a_backend_restart(workload, secret, floor):
    """A ledger reloaded from its backend is decision-identical: same
    remaining budget, same bounds, same preauthorize verdicts."""
    with SQLiteStore(":memory:") as store:
        ledger = PrivacyBudgetLedger(size_above(floor), store=store)
        protected = ProtectedSecret.seal(SPEC, secret)
        for axis, threshold in workload:
            ledger.evaluate("u", threshold_qinfo(axis, threshold), protected)
        reborn = PrivacyBudgetLedger(size_above(floor), store=store)
        assert reborn.remaining("u", SPEC) == ledger.remaining("u", SPEC)
        for axis, threshold in workload:
            qinfo = threshold_qinfo(axis, threshold)
            assert (
                reborn.preauthorize("u", qinfo).allowed
                == ledger.preauthorize("u", qinfo).allowed
            )
        old = ledger.account("u").sound.get(SPEC.name)
        new = reborn.account("u").sound.get(SPEC.name)
        if old is None:
            assert new is None
        else:
            assert all(
                old.contains(p) == new.contains(p) for p in ALL_POINTS
            )


def test_apply_payload_rejects_foreign_format_versions():
    ledger = PrivacyBudgetLedger(size_above(0))
    ledger.commit("u", threshold_qinfo("x", 7), True)
    payload = ledger.export_bound("u", SPEC)
    bad = dict(payload, version=999)
    with pytest.raises(LedgerFormatError, match="999"):
        ledger.apply_payload("u", SPEC.name, bad)
    with SQLiteStore(":memory:") as store:
        store.put_ledger_bound("u", SPEC.name, bad)
        with pytest.raises(LedgerFormatError):
            PrivacyBudgetLedger(size_above(0), store=store)


# ---------------------------------------------------------------------------
# Decay: epoch dilation never tightens a bound
# ---------------------------------------------------------------------------

boxes = st.builds(
    lambda x0, xw, y0, yw: Box(
        ((x0, min(15, x0 + xw)), (y0, min(15, y0 + yw)))
    ),
    st.integers(0, 15),
    st.integers(0, 15),
    st.integers(0, 15),
    st.integers(0, 15),
)


@settings(max_examples=100, deadline=None)
@given(
    workload=queries,
    secret=secrets,
    floor=floors,
    radius=st.integers(min_value=0, max_value=4),
    epochs=st.integers(min_value=1, max_value=3),
)
def test_decay_is_never_tighter(workload, secret, floor, radius, epochs):
    """The soundness property of epoch decay: every point a bound
    contained before ``advance_epoch`` it still contains after — decayed
    bounds remain sound over-approximations of retained knowledge."""
    ledger = PrivacyBudgetLedger(
        size_above(floor), decay=DecayPolicy(radius=radius)
    )
    protected = ProtectedSecret.seal(SPEC, secret)
    for axis, threshold in workload:
        ledger.evaluate("u", threshold_qinfo(axis, threshold), protected)
    account = ledger.account("u")
    before = {
        key: [p for p in ALL_POINTS if bound.contains(p)]
        for key, bound in {
            ("sound", name): b for name, b in account.sound.items()
        }.items()
    }
    before.update(
        {
            ("complete", name): [
                p for p in ALL_POINTS if bound.contains(p)
            ]
            for name, bound in account.complete.items()
        }
    )
    assert ledger.advance_epoch(epochs) == epochs
    for (kind, name), points in before.items():
        bounds = account.sound if kind == "sound" else account.complete
        after = bounds[name]
        assert all(after.contains(p) for p in points)
        assert after.size() >= len(points)
        # The true secret never leaves a sound bound.
        if kind == "sound":
            assert after.contains(secret)


@settings(max_examples=80, deadline=None)
@given(
    include=st.lists(boxes, min_size=1, max_size=3),
    exclude=st.lists(boxes, min_size=0, max_size=3),
    radius=st.integers(min_value=0, max_value=4),
)
def test_dilate_powerset_is_never_tighter(include, exclude, radius):
    """Dilation on the powerset domain (grown includes, shrunk/dropped
    excludes) also only ever grows the represented set."""
    bound = PowersetDomain(SPEC, tuple(include), tuple(exclude))
    dilated = DecayPolicy(radius=radius).dilate(bound)
    for point in ALL_POINTS:
        if bound.contains(point):
            assert dilated.contains(point)


def test_decay_restores_refused_budget():
    """A user parked at the floor regains budget as epochs pass: the
    operational purpose of decay."""
    ledger = PrivacyBudgetLedger(size_above(100), decay=DecayPolicy(radius=2))
    protected = ProtectedSecret.seal(SPEC, (3, 3))
    assert ledger.evaluate("u", threshold_qinfo("x", 7), protected).authorized
    # x<=7 again: the false posterior is now empty, so check-both refuses.
    refused = threshold_qinfo("x", 6)
    assert not ledger.evaluate("u", refused, protected).authorized
    # Three epochs of radius-2 dilation re-widen the bound far enough
    # that both posteriors of the same query clear the floor again.
    ledger.advance_epoch(3)
    assert ledger.remaining("u", SPEC) > 128
    assert ledger.evaluate("u", refused, protected).authorized


def test_advance_epoch_requires_a_decay_policy():
    ledger = PrivacyBudgetLedger(size_above(0))
    with pytest.raises(ValueError, match="DecayPolicy"):
        ledger.advance_epoch()
    with pytest.raises(ValueError, match="radius"):
        DecayPolicy(radius=-1)


def test_decayed_bounds_persist_through_the_backend():
    with SQLiteStore(":memory:") as store:
        ledger = PrivacyBudgetLedger(
            size_above(0), store=store, decay=DecayPolicy(radius=1)
        )
        ledger.commit("u", threshold_qinfo("x", 7), True)
        assert ledger.remaining("u", SPEC) == 128
        ledger.advance_epoch()
        assert ledger.remaining("u", SPEC) == 144  # 9 x 16, clamped
        reborn = PrivacyBudgetLedger(
            size_above(0), store=store, decay=DecayPolicy(radius=1)
        )
        assert reborn.remaining("u", SPEC) == 144
        assert reborn.epoch == 1


@settings(max_examples=60, deadline=None)
@given(
    workload=queries,
    user_secrets=st.lists(secrets, min_size=1, max_size=6),
    floor=floors,
)
def test_preauthorize_batch_matches_scalar(workload, user_secrets, floor):
    """Batch admission is per-user identical to scalar ``preauthorize`` —
    decisions, reasons, ``remaining``, and refusal tallies."""
    scalar = PrivacyBudgetLedger(size_above(floor))
    batch = PrivacyBudgetLedger(size_above(floor))
    users = [f"u{i}" for i in range(len(user_secrets))]
    # Diversify the sound bounds first so the batch sees mixed priors.
    for uid, secret in zip(users, user_secrets):
        protected = ProtectedSecret.seal(SPEC, secret)
        for axis, threshold in workload[:2]:
            qinfo = threshold_qinfo(axis, threshold)
            for ledger in (scalar, batch):
                ledger.evaluate(uid, qinfo, protected)
    for axis, threshold in workload:
        qinfo = threshold_qinfo(axis, threshold)
        expected = {uid: scalar.preauthorize(uid, qinfo) for uid in users}
        actual = batch.preauthorize_batch(users, qinfo)
        assert actual == expected
        for uid in users:
            assert scalar.account(uid).refusals == batch.account(uid).refusals


def test_preauthorize_batch_collapses_duplicate_ids():
    ledger = PrivacyBudgetLedger(size_above(10**9))  # refuses everything
    qinfo = threshold_qinfo("x", 7)
    decisions = ledger.preauthorize_batch(["u", "u", "u"], qinfo)
    assert list(decisions) == ["u"]
    assert not decisions["u"].allowed
    assert ledger.account("u").refusals == 1


# ---------------------------------------------------------------------------
# Work per distinct bound: admission posteriors reused at commit, decay and
# delta folds computed once per distinct bound
# ---------------------------------------------------------------------------


def _diversified(ledger, users, user_secrets, workload):
    """Give each user a history so a batch sees mixed, partly shared bounds."""
    for uid, secret in zip(users, user_secrets):
        protected = ProtectedSecret.seal(SPEC, secret)
        for axis, threshold in workload[:2]:
            ledger.evaluate(uid, threshold_qinfo(axis, threshold), protected)


@settings(max_examples=60, deadline=None)
@given(
    workload=queries,
    user_secrets=st.lists(secrets, min_size=1, max_size=6),
    floor=floors,
)
def test_batch_admit_then_commit_matches_scalar(workload, user_secrets, floor):
    """Admitting a fleet in one batch and committing every admitted user
    (reusing the admission's posteriors) lands exactly where per-user
    preauthorize + commit lands: decisions, bounds, charges, refusals,
    and the durable payloads."""
    scalar = PrivacyBudgetLedger(size_above(floor))
    batch = PrivacyBudgetLedger(size_above(floor))
    users = [f"u{i}" for i in range(len(user_secrets))]
    for ledger in (scalar, batch):
        _diversified(ledger, users, user_secrets, workload)
    for axis, threshold in workload:
        qinfo = threshold_qinfo(axis, threshold)
        expected = {uid: scalar.preauthorize(uid, qinfo) for uid in users}
        assert batch.preauthorize_batch(users, qinfo) == expected
        for uid, secret in zip(users, user_secrets):
            if expected[uid].allowed:
                response = qinfo.run(secret)
                scalar.commit(uid, qinfo, response)
                batch.commit(uid, qinfo, response)
    for uid in users:
        assert snapshot(batch, uid) == snapshot(scalar, uid)
        assert batch.account(uid).refusals == scalar.account(uid).refusals
        assert batch.export_bound(uid, SPEC) == scalar.export_bound(uid, SPEC)


def test_commit_reuses_the_admitted_posteriors(monkeypatch):
    """After batch admission, commits intersect nothing: every user gets
    the posterior object admission computed for their bound."""
    import repro.server.ledger as ledger_module

    ledger = PrivacyBudgetLedger(size_above(10))
    qinfo = threshold_qinfo("x", 7)
    users = ["a", "b", "c", "d"]
    decisions = ledger.preauthorize_batch(users, qinfo)
    assert all(decision.allowed for decision in decisions.values())

    def no_intersections(*args):
        raise AssertionError("commit recomputed a posterior")

    monkeypatch.setattr(ledger_module, "intersect_knowledge", no_intersections)
    for uid, response in zip(users, (True, True, False, True)):
        ledger.commit(uid, qinfo, response)
    bounds = {uid: ledger.sound_bound(uid, SPEC) for uid in users}
    assert bounds["a"] is bounds["b"] is bounds["d"]
    assert bounds["a"].size() == bounds["c"].size() == 8 * 16
    assert ledger.account("a").complete[SPEC.name] is ledger.account("b").complete[SPEC.name]


def test_decay_dilates_each_distinct_bound_once():
    class CountingDecay(DecayPolicy):
        calls = 0

        def dilate(self, bound):
            CountingDecay.calls += 1
            return super().dilate(bound)

    ledger = PrivacyBudgetLedger(size_above(0), decay=CountingDecay(radius=1))
    qinfo = threshold_qinfo("y", 3)
    users = [f"u{i}" for i in range(10)]
    ledger.preauthorize_batch(users, qinfo)
    for i, uid in enumerate(users):
        ledger.commit(uid, qinfo, i % 2 == 0)
    ledger.advance_epoch(2)
    # Two distinct bounds (one per answer) in each of the sound and
    # complete tables, which here hold equal bounds: two distinct
    # values, two epochs each.
    assert CountingDecay.calls == 2 * 2
    assert ledger.sound_bound("u0", SPEC) is ledger.sound_bound("u2", SPEC)


def test_full_decay_restores_the_top_powerset_bound():
    """Dilated include boxes that grow to the whole space collapse to one:
    a fully decayed powerset bound equals ⊤, so batch admission groups it
    with every fresh user again."""
    top = PowersetDomain.top(SPEC)
    bound = PowersetDomain(
        SPEC,
        (Box(((0, 3), (0, 15))), Box(((8, 15), (0, 15)))),
        (Box(((1, 2), (1, 2))),),
    )
    assert DecayPolicy(radius=16).dilate(bound) == top
    assert hash(DecayPolicy(radius=16).dilate(bound)) == hash(top)


@settings(max_examples=60, deadline=None)
@given(
    include=st.lists(boxes, min_size=1, max_size=4),
    exclude=st.lists(boxes, min_size=0, max_size=3),
)
def test_pruned_powerset_is_the_same_set(include, exclude):
    bound = PowersetDomain(SPEC, tuple(include), tuple(exclude))
    pruned = bound.pruned()
    assert len(pruned.include) <= len(bound.include)
    assert pruned.size() == bound.size()
    assert all(pruned.contains(p) == bound.contains(p) for p in ALL_POINTS)


@settings(max_examples=40, deadline=None)
@given(
    workload=queries,
    user_secrets=st.lists(secrets, min_size=1, max_size=6),
)
def test_apply_payloads_matches_per_delta_folds(workload, user_secrets):
    """A mirror folding deduplicated deltas (users sharing one payload
    object) ends identical to one folding a fresh copy per user."""
    import json

    shard = PrivacyBudgetLedger(size_above(0))
    users = [f"u{i}" for i in range(len(user_secrets))]
    per_delta = PrivacyBudgetLedger(size_above(0))
    shared = PrivacyBudgetLedger(size_above(0))
    for axis, threshold in workload:
        qinfo = threshold_qinfo(axis, threshold)
        shard.preauthorize_batch(users, qinfo)
        for uid, secret in zip(users, user_secrets):
            shard.commit(uid, qinfo, qinfo.run(secret))
        deltas = [
            {"user_id": uid, "spec_name": SPEC.name, "payload": shard.export_bound(uid, SPEC)}
            for uid in users
        ]
        for delta in deltas:
            per_delta.apply_payload(
                delta["user_id"],
                delta["spec_name"],
                json.loads(json.dumps(delta["payload"])),
                monotone=True,
            )
        shared.apply_payloads(deltas, monotone=True)
    for uid in users:
        assert snapshot(shared, uid)[:2] == snapshot(per_delta, uid)[:2]
        assert shared.export_bound(uid, SPEC) == per_delta.export_bound(uid, SPEC)


def test_users_sharing_a_bound_share_its_payload():
    ledger = PrivacyBudgetLedger(size_above(0))
    qinfo = threshold_qinfo("x", 7)
    ledger.preauthorize_batch(["a", "b"], qinfo)
    ledger.commit("a", qinfo, True)
    ledger.commit("b", qinfo, True)
    assert ledger.export_bound("a", SPEC) is ledger.export_bound("b", SPEC)


def test_charge_history_is_bounded():
    from repro.server.ledger import CHARGE_HISTORY

    ledger = PrivacyBudgetLedger(size_above(0))
    qinfo = threshold_qinfo("x", 14)  # re-asked: narrows the bound once
    for _ in range(CHARGE_HISTORY + 5):
        ledger.commit("u", qinfo, True)
    account = ledger.account("u")
    assert len(account.charges) == CHARGE_HISTORY
    assert account.charged == CHARGE_HISTORY + 5


def test_batch_admission_telemetry_matches_scalar():
    """Per-user admission metrics are recorded in bulk per distinct bound,
    with the same totals as one record per user."""
    from repro.obs.metrics import MetricsRegistry

    scalar = PrivacyBudgetLedger(size_above(50))
    batch = PrivacyBudgetLedger(size_above(50))
    for ledger in (scalar, batch):
        ledger.metrics = MetricsRegistry()
        ledger.commit("spent", threshold_qinfo("x", 3), True)
    users = ["fresh1", "spent", "fresh2"]
    qinfo = threshold_qinfo("y", 7)
    for uid in users:
        scalar.preauthorize(uid, qinfo)
    decisions = batch.preauthorize_batch(users, qinfo)
    assert [decisions[uid].allowed for uid in users] == [True, False, True]
    assert batch.metrics.exposition() == scalar.metrics.exposition()


# -- flat powerset bounds vs the general algebra -------------------------------

ZONES = (
    "abs(x - 6) + abs(y - 6) <= 4",
    "x <= 9 and y >= 3",
    "abs(x - 10) + abs(y - 9) <= 5",
    "x >= 4 and x <= 11",
)


def compiled_zones():
    """Synthesized powerset artifacts: flat under-ind. sets, over-ind. sets
    with exclude boxes (so every ``complete`` fold is non-flat)."""
    from repro.core.plugin import CompileOptions, compile_query

    options = CompileOptions(domain="powerset", k=3, modes=("under", "over"))
    return [
        compile_query(f"zone{i}", source, SPEC, options) for i, source in enumerate(ZONES)
    ]


def _epoch_round_trip(workload, user_secrets, floor):
    """Admission → commit (→ radius-1 epoch), per step; every observable."""
    import json

    zones = [compiled.qinfo for compiled in compiled_zones()]
    ledger = PrivacyBudgetLedger(size_above(floor), decay=DecayPolicy(radius=1))
    users = [f"u{i}" for i in range(len(user_secrets))]
    log = []
    for index, epoch in workload:
        qinfo = zones[index]
        decisions = ledger.preauthorize_batch(users, qinfo)
        for uid, secret in zip(users, user_secrets):
            decision = decisions[uid]
            log.append((uid, decision))
            if decision.allowed:
                ledger.commit(uid, qinfo, qinfo.run(secret))
        if epoch:
            ledger.advance_epoch(1)
        for uid in users:
            log.append(
                (
                    ledger.remaining(uid, SPEC),
                    ledger.account(uid).refusals,
                    json.dumps(ledger.export_bound(uid, SPEC)),
                )
            )
    return log


@settings(max_examples=40, deadline=None)
@given(
    workload=st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(ZONES) - 1), st.booleans()),
        min_size=1,
        max_size=6,
    ),
    user_secrets=st.lists(secrets, min_size=1, max_size=5),
    floor=st.integers(min_value=0, max_value=120),
)
def test_flat_path_ledger_matches_the_general_algebra_through_epochs(
    workload, user_secrets, floor
):
    """Verdicts, refusals, ``remaining`` and the exported JSON bytes are
    the same when every domain is forced onto the general
    ``_prune``/``subtract_boxes`` path.  Steps chain flat folds; a
    radius-1 epoch between steps makes the bounds non-flat, so the next
    admission runs the general path against flat ind. sets."""
    from unittest import mock

    fast = _epoch_round_trip(workload, user_secrets, floor)
    with mock.patch.object(PowersetDomain, "is_flat", lambda self: False):
        reference = _epoch_round_trip(workload, user_secrets, floor)
    assert fast == reference


def test_one_intersection_per_prior_and_indset_per_round(monkeypatch):
    """Across admission, the session pass and commit, each distinct
    (prior, ind. set) pair is intersected exactly once per round: the
    session reuses admission's posteriors and commit folds nothing twice."""
    from collections import Counter

    import repro.domains.powerset as powerset_module
    from repro.core.plugin import QueryRegistry
    from repro.server.core import ServingCore
    from repro.service.session import SessionManager

    zones = compiled_zones()
    registry = QueryRegistry()
    for compiled in zones:
        registry.register(compiled)
    points = [(0, 0), (6, 6), (9, 3), (15, 15), (10, 9), (4, 12)]
    ledger = PrivacyBudgetLedger(size_above(0))
    top = PowersetDomain.top(SPEC)
    for vectorized in (False, True):
        manager = SessionManager(registry, size_above(0), vectorized=vectorized)
        core = ServingCore(manager, ledger, users={})
        sessions = []
        for i, point in enumerate(points):
            sid = f"{vectorized}-s{i}"
            manager.open_session(sid, (SPEC, point))
            core.users[sid] = f"{vectorized}-u{i}"
            sessions.append(sid)

        calls: Counter = Counter()
        real_intersect = PowersetDomain.intersect
        real_stacked = powerset_module.intersect_stacked

        def counted_intersect(self, other):
            calls[(self, other)] += 1
            return real_intersect(self, other)

        def counted_stacked(priors, other):
            calls.update((prior, other) for prior in priors)
            return real_stacked(priors, other)

        monkeypatch.setattr(PowersetDomain, "intersect", counted_intersect)
        monkeypatch.setattr(powerset_module, "intersect_stacked", counted_stacked)
        for compiled in zones:
            qinfo = compiled.qinfo
            calls.clear()
            accounts = [ledger.account(core.users[sid]) for sid in sessions]
            sound = {account.sound.get(SPEC.name, top) for account in accounts}
            complete = {account.complete.get(SPEC.name, top) for account in accounts}
            core.serve_batch(qinfo.name, sessions)
            assert max(calls.values()) == 1, calls.most_common(1)
            admitted = {(prior, ind) for prior in sound for ind in qinfo.under_indset}
            folded = {(prior, ind) for prior in complete for ind in qinfo.over_indset}
            assert admitted <= set(calls) <= admitted | folded
        monkeypatch.undo()
