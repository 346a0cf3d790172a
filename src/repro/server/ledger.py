"""The privacy-budget ledger: cross-query knowledge accounting per user.

A single downgrade is easy to police; *composition* is where
declassification leaks.  A user who asks ``x <= 200``, then ``y <= 200``,
then ``x <= 100`` passes a per-query policy every time while the
intersection of the answers corners the secret.  Sessions already track
knowledge, but sessions are ephemeral — close one, open another, and the
implicit budget resets.  The ledger makes the cumulative bound explicit
serving-layer state, keyed by a durable user identity.

Per user and secret type the ledger folds every *answered* query into two
lattice bounds, exactly the pair the paper synthesizes:

* the **sound** bound — intersections of under-approximated ind. sets, a
  subset of the true attacker knowledge.  The policy floor is enforced
  here: a monotone floor accepted on a subset holds for the true
  knowledge (the same soundness argument as section 3);
* the **complete** bound — intersections of over-approximated ind. sets,
  a superset of the true knowledge, tracked for reporting when queries
  were compiled with the ``over`` mode.

Two invariants, property-tested in ``tests/server/test_ledger.py``:

1. a refused charge never changes any bound (refusal is observable, so a
   refusal that leaked would be a side channel);
2. after any accepted sequence the sound bound still satisfies the floor
   — :meth:`~PrivacyBudgetLedger.commit` re-checks and raises *before*
   mutating, so not even a caller that skips
   :meth:`~PrivacyBudgetLedger.preauthorize` can cross it.

Admission follows the paper's section 3 discipline via
:func:`~repro.monad.anosy.pair_verdict`: *both* potential posteriors must
clear the floor before the query runs, keeping the accept/refuse decision
independent of the secret.  :meth:`~PrivacyBudgetLedger.evaluate` runs the
whole Figure 2 ``downgrade`` against the ledger bound by delegating to
:func:`~repro.monad.anosy.evaluate_downgrade` with the floor as policy.

Two serving-scale concerns live here as well:

* **Durability** — budgets are contracts attached to principals, not
  per-process state.  With a ``store`` attached (any
  :class:`LedgerBackend`, e.g. :class:`~repro.server.store.SQLiteStore`),
  every bound mutation is written through as a format-versioned JSON
  payload and the full account table is reloaded on attach, so a process
  restart cannot launder a budget (bounds survive exactly like compiled
  artifacts do).
* **Decay** — a strict intersection fold means long-lived users
  monotonically approach the floor and eventually saturate.  A
  :class:`DecayPolicy` dilates every bound by a configured radius per
  epoch (:meth:`~PrivacyBudgetLedger.advance_epoch`); dilation only ever
  *grows* a bound, so the decayed bound remains a sound
  over-approximation of any knowledge the attacker retains — the
  property test in ``tests/server/test_ledger.py`` checks exactly that
  ("decay is never tighter").

Ledger work scales with the number of *distinct* bounds, not users.
Bounds are immutable values: every user admitted against the same bound
folds into the same posterior object.  Batch admission computes each
distinct bound's posterior pair once and commit reuses it; decay, the
durable payload encoding and the mirror's delta decode-and-fold are
likewise computed once per distinct bound within a batch (see
:class:`_BatchMemo`), so a fleet sharing a handful of bounds costs a
handful of intersections per tick.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Protocol

from repro.core.qinfo import DomainPair, QInfo, intersect_knowledge
from repro.domains.base import AbstractDomain
from repro.domains.box import IntervalDomain
from repro.domains.powerset import PowersetDomain
from repro.lang.canonical import spec_from_json, spec_to_json
from repro.lang.secrets import SecretSpec
from repro.monad.anosy import (
    DowngradeDecision,
    DowngradeInvariantError,
    batch_pair_verdict,
    evaluate_downgrade,
    pair_verdict,
    top_knowledge_for,
)
from repro.monad.policy import QuantitativePolicy
from repro.monad.protected import Unprotectable
from repro.obs.metrics import NULL_REGISTRY
from repro.service.serialize import domain_from_json, domain_to_json
from repro.solver.boxes import Box

__all__ = [
    "LEDGER_FORMAT_VERSION",
    "LedgerBackend",
    "LedgerFormatError",
    "LedgerInvariantError",
    "LedgerDecision",
    "ChargeRecord",
    "BudgetAccount",
    "DecayPolicy",
    "PrivacyBudgetLedger",
]

#: Bumped whenever the persisted bound payload changes incompatibly.
LEDGER_FORMAT_VERSION = 1

#: Charge records kept per account (older ones are dropped; the
#: account's ``charged`` counter keeps the total).
CHARGE_HISTORY = 64


class LedgerFormatError(RuntimeError):
    """A persisted ledger payload was written by an incompatible codec."""


class LedgerInvariantError(RuntimeError):
    """A commit would have pushed a sound bound across the policy floor."""


class LedgerBackend(Protocol):
    """Durable storage for per-user knowledge bounds.

    Payloads are the JSON dictionaries built by
    :meth:`PrivacyBudgetLedger.export_bound`; the backend stores them
    opaquely, keyed by ``(user_id, spec_name)``.
    :class:`~repro.server.store.SQLiteStore` implements this next to its
    artifact table, so one file holds everything a restart must not lose.
    """

    def put_ledger_bound(
        self, user_id: str, spec_name: str, payload: dict[str, Any]
    ) -> None:
        """Durably store one user's bound payload (last write wins)."""
        ...  # pragma: no cover - protocol

    def ledger_bounds(self) -> Iterator[tuple[str, str, dict[str, Any]]]:
        """Iterate all ``(user_id, spec_name, payload)`` rows."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class LedgerDecision:
    """The outcome of a ledger admission check."""

    allowed: bool
    reason: str
    #: Size of the sound bound the decision was made against (the user's
    #: remaining budget *before* this query).
    remaining: int


@dataclass(frozen=True)
class ChargeRecord:
    """One committed charge against a user's budget."""

    query_name: str
    spec_name: str
    response: bool
    prior_size: int
    posterior_size: int


@dataclass
class BudgetAccount:
    """One user's cumulative knowledge bounds, keyed by secret type.

    Bounds are the durable contract (persisted through the attached
    :class:`LedgerBackend`); ``charges``, ``charged`` and ``refusals`` are
    per-process observability and reset on restart.
    """

    user_id: str
    #: Sound (under-approximated) bounds; absent key = still the full space.
    sound: dict[str, AbstractDomain] = field(default_factory=dict)
    #: Complete (over-approximated) bounds, tracked when available.
    complete: dict[str, AbstractDomain] = field(default_factory=dict)
    #: The most recent :data:`CHARGE_HISTORY` charges, oldest first — a
    #: long-lived user must not grow the process without bound.
    charges: deque[ChargeRecord] = field(
        default_factory=lambda: deque(maxlen=CHARGE_HISTORY)
    )
    #: Charges committed in this process, including dropped records.
    charged: int = 0
    refusals: int = 0


@dataclass(frozen=True)
class DecayPolicy:
    """Budget decay: dilate knowledge bounds by a radius per epoch.

    A strict intersection fold never forgets, so long-lived users drift
    monotonically toward the floor.  Decay models attacker knowledge
    going stale (secrets drift, answers age): each epoch every tracked
    bound is *dilated* — interval boxes and powerset include-boxes widen
    by ``radius`` cells per axis (clamped to the secret space), powerset
    exclude-boxes shrink by the same radius (dropped when they collapse).
    Every step only ever grows the represented set, so a decayed bound
    is still a sound over-approximation of whatever the attacker
    actually retains — decay can only make the ledger *more*
    conservative about what it refuses, never less.
    """

    #: Cells of dilation per axis, per epoch (0 = decay disabled).
    radius: int = 1

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")

    def dilate(self, bound: AbstractDomain) -> AbstractDomain:
        """One epoch's dilation of a bound (always ⊇ the input)."""
        if self.radius == 0:
            return bound
        space = Box(bound.spec.bounds())
        if isinstance(bound, IntervalDomain):
            if bound.box is None:
                return bound
            return IntervalDomain(bound.spec, self._grow(bound.box, space))
        if isinstance(bound, PowersetDomain):
            include = tuple(self._grow(box, space) for box in bound.include)
            exclude = tuple(
                shrunk
                for box in bound.exclude
                if (shrunk := self._shrink(box)) is not None
            )
            # Grown include boxes swallow each other; pruning keeps bounds
            # that decayed to the same set equal, so batch admission can
            # still group them (a fully decayed bound equals ⊤ again).
            return PowersetDomain(bound.spec, include, exclude).pruned()
        raise TypeError(f"cannot dilate domain type {type(bound)}")

    def _grow(self, box: Box, space: Box) -> Box:
        return Box(
            tuple(
                (max(slo, lo - self.radius), min(shi, hi + self.radius))
                for (lo, hi), (slo, shi) in zip(box.bounds, space.bounds)
            )
        )

    def _shrink(self, box: Box) -> Box | None:
        bounds = tuple(
            (lo + self.radius, hi - self.radius) for lo, hi in box.bounds
        )
        if any(lo > hi for lo, hi in bounds):
            return None
        return Box(bounds)

    def to_json(self) -> dict[str, Any]:
        """Encode for the shard-process configure op."""
        return {"radius": self.radius}

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "DecayPolicy":
        """Decode a policy encoded by :meth:`to_json`."""
        return cls(radius=int(data["radius"]))


class _BatchMemo:
    """Results of pure functions of immutable operands, for one batch.

    Keys are operand tuples compared by value (domains cache their hash),
    so users whose bounds are equal — not just identical — share one
    result.  The ledger clears every memo at the start of a batch, so a
    memo holds one batch's working set; :attr:`CAPACITY` is only a safety
    valve (the table is dropped wholesale when it fills).
    """

    CAPACITY = 8192

    def __init__(self) -> None:
        self._entries: dict[tuple[Any, ...], Any] = {}

    def get(self, key: tuple[Any, ...], compute: Callable[[], Any]) -> Any:
        """The memoized ``compute()`` for this key."""
        try:
            return self._entries[key]
        except KeyError:
            if len(self._entries) >= self.CAPACITY:
                self._entries.clear()
            value = self._entries[key] = compute()
            return value

    def put(self, key: tuple[Any, ...], value: Any) -> None:
        """Seed the result for this key."""
        self._entries.setdefault(key, value)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()


class PrivacyBudgetLedger:
    """Per-user cumulative knowledge bounds under a policy floor.

    ``floor`` is a monotone :class:`~repro.monad.policy.QuantitativePolicy`
    (e.g. ``size_above(10_000)``): the minimum uncertainty every user's
    sound bound must retain, across all queries they will ever ask.

    ``store`` (optional) makes the ledger durable: every bound mutation
    is written through to the backend and all persisted bounds are
    reloaded on construction, format-version-guarded — a restarted
    server refuses exactly what the killed one refused.  ``decay``
    (optional) enables :meth:`advance_epoch`.
    """

    def __init__(
        self,
        floor: QuantitativePolicy,
        *,
        store: LedgerBackend | None = None,
        decay: DecayPolicy | None = None,
    ):
        self.floor = floor
        self.store = store
        self.decay = decay
        #: Settable metrics registry (``repro.obs``); the gateway swaps in
        #: its hub's registry.  Refusal counts are decision-channel (the
        #: pair-checked verdict is secret-independent); remaining-cell
        #: sizes are declassified-channel (derived from committed bounds).
        self.metrics: Any = NULL_REGISTRY
        self.epoch = 0
        self._accounts: dict[str, BudgetAccount] = {}
        self._lock = threading.RLock()
        #: ``None`` = write-through durable mirror (every commit puts its
        #: bound immediately).  A journaled gateway switches to buffered
        #: mode (:meth:`buffer_writes`) so it can land each tick's bound
        #: puts in the *same* transaction as the journal rows they justify.
        self._buffered: list[tuple[str, str, dict[str, Any]]] | None = None
        #: ``(bound, ind. set)`` → their intersection.  Batch admission
        #: seeds it with the posterior pairs it computed, which is how
        #: :meth:`commit` reuses them.
        self._folds = _BatchMemo()
        #: ``(sound, complete, spec, epoch)`` → the shared export payload.
        self._payloads = _BatchMemo()
        #: ``id(payload)`` → ``(payload, spec, {"sound": ..., "complete": ...})``
        #: for export payloads (dicts are unhashable; the entry pins the
        #: payload, so its id cannot be reused while the entry lives).
        self._decoded = _BatchMemo()
        #: bound → its dilation by the current :meth:`advance_epoch`.
        self._dilations = _BatchMemo()
        #: ``(spec, powerset?)`` → the shared full-space bound.
        self._tops: dict[tuple[SecretSpec, bool], AbstractDomain] = {}
        if store is not None:
            for user_id, spec_name, payload in list(store.ledger_bounds()):
                self.apply_payload(user_id, spec_name, payload, persist=False)
            self._new_batch()

    # -- accounts ------------------------------------------------------------
    def account(self, user_id: str) -> BudgetAccount:
        """The user's account, created on first touch."""
        with self._lock:
            account = self._accounts.get(user_id)
            if account is None:
                account = BudgetAccount(user_id=user_id)
                self._accounts[user_id] = account
            return account

    def users(self) -> list[str]:
        """Users with an account, sorted."""
        with self._lock:
            return sorted(self._accounts)

    def sound_bound(self, user_id: str, spec: SecretSpec) -> AbstractDomain | None:
        """The user's sound bound for a secret type (``None`` = full space)."""
        with self._lock:
            return self.account(user_id).sound.get(spec.name)

    def remaining(self, user_id: str, spec: SecretSpec) -> int:
        """Size of the user's sound bound (full space if untouched)."""
        with self._lock:
            bound = self.account(user_id).sound.get(spec.name)
            return spec.space_size() if bound is None else bound.size()

    # -- admission -----------------------------------------------------------
    def _count_refusal(self, kind: str = "budget", times: int = 1) -> None:
        if self.metrics:
            self.metrics.counter(
                "anosy_ledger_refusals_total",
                "Ledger admission refusals by kind.",
                labels=("kind",),
            ).labels(kind=kind).inc(times)

    def _observe_remaining(self, remaining: int, times: int = 1) -> None:
        if self.metrics:
            self.metrics.histogram(
                "anosy_ledger_remaining_cells",
                "Sound-bound size (cells) at admission time.",
                channel="declassified",
            ).observe(float(remaining), times)

    def preauthorize(
        self, user_id: str, qinfo: QInfo, *, mode: str = "under"
    ) -> LedgerDecision:
        """Would answering this query keep the user above the floor?

        Checks the floor on *both* potential posteriors of the user's
        current sound bound (secret-independent, per section 3).  Never
        mutates a bound; a refusal is tallied on the account.
        """
        with self._lock:
            account = self.account(user_id)
            prior = self._sound_prior(account, qinfo)
            pair = qinfo.approx(prior, mode=mode)
            remaining = prior.size()
            self._observe_remaining(remaining)
            if pair_verdict(self.floor, pair):
                return LedgerDecision(
                    allowed=True, reason="ok", remaining=remaining
                )
            account.refusals += 1
            self._count_refusal()
            return LedgerDecision(
                allowed=False,
                reason=(
                    f"budget exhausted: {self.floor.name} would fail on a "
                    f"posterior of {qinfo.name!r}"
                ),
                remaining=prior.size(),
            )

    def preauthorize_batch(
        self,
        user_ids: Iterable[str],
        qinfo: QInfo,
        *,
        mode: str = "under",
        posteriors: dict[AbstractDomain, DomainPair] | None = None,
    ) -> dict[str, LedgerDecision]:
        """Batch admission: one floor check per *distinct* sound bound.

        Per-user decisions are identical to calling :meth:`preauthorize`
        for each user — same reasons, same ``remaining``, one refusal
        tallied per refused user — but whole fleets sharing a bound (the
        common case: fresh users all sit at the full space) cost one
        posterior intersection and one vectorized bound-size check.
        Duplicate ids collapse to one decision; serving rounds are
        already unique per user (:func:`repro.server.core.rounds_by_user`).

        Each distinct bound's posterior pair is kept for :meth:`commit`,
        so committing the admitted users folds no bound a second time.
        ``posteriors``, when given, receives the same pairs keyed by
        bound, for the session pass of the same round
        (:meth:`SessionManager.downgrade_batch
        <repro.service.session.SessionManager.downgrade_batch>`).
        """
        with self._lock:
            self._new_batch()
            ids = list(dict.fromkeys(user_ids))
            group: dict[AbstractDomain, int] = {}
            keys = [
                group.setdefault(self._sound_prior(self.account(uid), qinfo), len(group))
                for uid in ids
            ]
            distinct = list(group)
            pairs = qinfo.approx_batch(distinct, mode=mode)
            true_ind, false_ind = qinfo.indset_pair(mode=mode)
            for prior, (post_true, post_false) in zip(distinct, pairs):
                self._folds.put((prior, true_ind), post_true)
                self._folds.put((prior, false_ind), post_false)
            if posteriors is not None:
                posteriors.update(zip(distinct, pairs))
            allowed = batch_pair_verdict(self.floor, pairs)
            remaining = [prior.size() for prior in distinct]
            granted = [
                LedgerDecision(allowed=True, reason="ok", remaining=remaining[k])
                if allowed[k]
                else LedgerDecision(
                    allowed=False,
                    reason=(
                        f"budget exhausted: {self.floor.name} would fail on a "
                        f"posterior of {qinfo.name!r}"
                    ),
                    remaining=remaining[k],
                )
                for k in range(len(distinct))
            ]
            decisions: dict[str, LedgerDecision] = {}
            users_per_key = [0] * len(distinct)
            for uid, key in zip(ids, keys):
                decision = granted[key]
                users_per_key[key] += 1
                if not decision.allowed:
                    self._accounts[uid].refusals += 1
                decisions[uid] = decision
            for key, users in enumerate(users_per_key):
                self._observe_remaining(remaining[key], users)
                if not allowed[key]:
                    self._count_refusal(times=users)
            return decisions

    # -- charging ------------------------------------------------------------
    def commit(
        self, user_id: str, qinfo: QInfo, response: bool, *, mode: str = "under"
    ) -> AbstractDomain:
        """Fold one answered query into the user's bounds.

        Only call this for queries that were actually answered.  The floor
        is re-checked on the new sound bound *before* any mutation — a
        commit that would cross it raises :class:`LedgerInvariantError`
        and changes nothing, so invariant 2 holds even against callers
        that skipped :meth:`preauthorize`.

        The posterior is the intersection :meth:`preauthorize_batch`
        already computed for this bound when it admitted the user, and
        users sharing a bound share the resulting posterior object.
        """
        with self._lock:
            account = self.account(user_id)
            prior = self._sound_prior(account, qinfo)
            true_ind, false_ind = qinfo.indset_pair(mode=mode)
            posterior = self._fold(prior, true_ind if response else false_ind)
            if not self.floor(posterior):
                raise LedgerInvariantError(
                    f"committing {qinfo.name!r} for {user_id!r} would cross "
                    f"the floor {self.floor.name}"
                )
            spec_name = qinfo.secret.name
            account.sound[spec_name] = posterior
            if qinfo.over_indset is not None:
                over_prior = account.complete.get(spec_name)
                if over_prior is None:
                    over_prior = self._top(qinfo)
                over_true, over_false = qinfo.indset_pair(mode="over")
                account.complete[spec_name] = self._fold(
                    over_prior, over_true if response else over_false
                )
            account.charges.append(
                ChargeRecord(
                    query_name=qinfo.name,
                    spec_name=spec_name,
                    response=response,
                    prior_size=prior.size(),
                    posterior_size=posterior.size(),
                )
            )
            account.charged += 1
            self._persist(user_id, qinfo.secret)
            return posterior

    def evaluate(
        self,
        user_id: str,
        qinfo: QInfo,
        protected: Unprotectable,
        *,
        mode: str = "under",
        check_both: bool = True,
    ) -> DowngradeDecision:
        """Figure 2's ``downgrade`` run directly against the ledger bound.

        Reuses :func:`~repro.monad.anosy.evaluate_downgrade` with the
        floor as the policy and the user's sound bound as the prior, then
        folds the posterior on authorization.  This is the standalone
        entry point; the gateway uses the split
        :meth:`preauthorize`/:meth:`commit` form because the query itself
        runs inside :class:`~repro.service.session.SessionManager`.
        """
        with self._lock:
            account = self.account(user_id)
            prior = self._sound_prior(account, qinfo)
            decision, posterior = evaluate_downgrade(
                qinfo,
                self.floor,
                protected,
                prior,
                mode=mode,
                check_both=check_both,
            )
            if not decision.authorized:
                account.refusals += 1
                return decision
            if posterior is None or decision.response is None:
                raise DowngradeInvariantError(
                    f"authorized ledger downgrade of {qinfo.name!r} carries "
                    "no response or posterior"
                )
            self.commit(user_id, qinfo, decision.response, mode=mode)
            return decision

    # -- durability ----------------------------------------------------------
    def export_bound(self, user_id: str, spec: SecretSpec) -> dict[str, Any]:
        """The persistable payload of one user's bounds for one spec.

        The same shape the backend stores and the shard tier ships as
        ledger deltas: format version, the spec itself (so decoding
        needs no external registry), both bounds, and the epoch.

        Users holding the same bound objects get the same payload object;
        treat it as read-only.
        """
        with self._lock:
            account = self.account(user_id)
            sound = account.sound.get(spec.name)
            complete = account.complete.get(spec.name)
            return self._payloads.get(
                (sound, complete, spec, self.epoch),
                lambda: {
                    "version": LEDGER_FORMAT_VERSION,
                    "spec": spec_to_json(spec),
                    "sound": None if sound is None else domain_to_json(sound),
                    "complete": (
                        None if complete is None else domain_to_json(complete)
                    ),
                    "epoch": self.epoch,
                },
            )

    def apply_payload(
        self,
        user_id: str,
        spec_name: str,
        payload: dict[str, Any],
        *,
        persist: bool = True,
        monotone: bool = False,
    ) -> None:
        """Overwrite one user's bounds from an :meth:`export_bound` payload.

        Used on attach (reloading the backend) and by the gateway to fold
        authoritative shard-side deltas into its durable mirror.  By
        default the payload wins unconditionally — callers own the
        ordering.  With ``monotone=True`` (the gateway's delta-fold
        mode) an incoming bound is *intersected* with any existing one
        and an absent incoming bound keeps the existing one: replayed,
        reordered, or stale deltas — retries, duplicate deliveries, a
        rehydrated shard echoing its snapshot — can tighten the mirror
        but can never loosen it.  (Loosening is the job of epoch decay,
        which acts on the mirror directly, never through payloads.)

        A payload object is decoded once, and a fold of the same existing
        bound with the same incoming one is computed once: users whose
        deltas share one payload object (a deduplicated shard response)
        cost one decode and one intersection per distinct bound.
        """
        version = payload.get("version")
        if version != LEDGER_FORMAT_VERSION:
            raise LedgerFormatError(
                f"ledger payload for {user_id!r}/{spec_name!r} has format "
                f"version {version!r}, this codec speaks {LEDGER_FORMAT_VERSION}"
            )
        with self._lock:
            _pinned, spec, decoded = self._decoded.get(
                (id(payload),), lambda: (payload, *_decode_payload(payload))
            )
            account = self.account(user_id)
            for bounds, key in ((account.sound, "sound"), (account.complete, "complete")):
                incoming = decoded[key]
                if incoming is None:
                    if not monotone:
                        bounds.pop(spec_name, None)
                    continue
                existing = bounds.get(spec_name)
                if monotone and existing is not None:
                    incoming = self._fold(existing, incoming)
                bounds[spec_name] = incoming
            self.epoch = max(self.epoch, int(payload.get("epoch", 0)))
            if persist:
                self._persist(user_id, spec)

    def apply_payloads(
        self,
        deltas: Iterable[dict[str, Any]],
        *,
        persist: bool = True,
        monotone: bool = False,
    ) -> None:
        """:meth:`apply_payload` for a batch of ``{"user_id", "spec_name",
        "payload"}`` deltas (the shape :meth:`ServingShardPool.decode
        <repro.server.workers.ServingShardPool.decode>` returns)."""
        with self._lock:
            self._new_batch()
            for delta in deltas:
                self.apply_payload(
                    delta["user_id"],
                    delta["spec_name"],
                    delta["payload"],
                    persist=persist,
                    monotone=monotone,
                )

    # -- decay ---------------------------------------------------------------
    def advance_epoch(self, epochs: int = 1) -> int:
        """Dilate every tracked bound ``epochs`` times; returns the epoch.

        Requires a :class:`DecayPolicy`.  Dilation only grows bounds
        (soundness is preserved — see :class:`DecayPolicy`), so a user
        parked at the floor regains budget as their stale knowledge
        bound relaxes.  New bounds are written through to the store.
        Each distinct bound object is dilated once; the users sharing it
        share the result.
        """
        if self.decay is None:
            raise ValueError("advance_epoch requires a DecayPolicy")
        if epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {epochs}")
        decay = self.decay

        def dilated(bound: AbstractDomain) -> AbstractDomain:
            for _ in range(epochs):
                bound = decay.dilate(bound)
            return bound

        with self._lock:
            self._new_batch()
            self.epoch += epochs
            for account in self._accounts.values():
                specs: dict[str, SecretSpec] = {}
                for bounds in (account.sound, account.complete):
                    for spec_name, bound in list(bounds.items()):
                        bound = self._dilations.get((bound,), lambda: dilated(bound))
                        bounds[spec_name] = bound
                        specs[spec_name] = bound.spec
                for spec in specs.values():
                    self._persist(account.user_id, spec)
            return self.epoch

    # -- durable-mirror buffering --------------------------------------------
    def buffer_writes(self) -> None:
        """Switch the durable mirror to buffered (journal-atomic) mode.

        Commits and decay keep mutating the in-memory bounds immediately,
        but their store puts accumulate in a buffer instead of writing
        through; the owner drains the buffer (:meth:`drain_writes`) and
        persists it in one transaction with the matching journal rows.
        That atomicity is what closes the executed-but-unwritten crash
        window: after a crash, either both the bound and the row are
        durable or neither is, so a retry's re-execution always starts
        from the same prior the original execution saw.
        """
        with self._lock:
            if self._buffered is None:
                self._buffered = []

    def drain_writes(self) -> list[tuple[str, str, dict[str, Any]]]:
        """Take every buffered ``(user_id, spec_name, payload)`` put.

        Returns ``[]`` in write-through mode.  The caller owns the
        drained writes and must persist them (a journaled gateway lands
        them inside the ack transaction; shutdown flushes stragglers).
        """
        with self._lock:
            if self._buffered is None:
                return []
            drained, self._buffered = self._buffered, []
            return drained

    # -- internals -----------------------------------------------------------
    def _new_batch(self) -> None:
        """Start a batch: the identity memos forget the previous one."""
        for memo in (self._folds, self._payloads, self._decoded, self._dilations):
            memo.clear()

    def _persist(self, user_id: str, spec: SecretSpec) -> None:
        if self.store is None:
            return
        payload = self.export_bound(user_id, spec)
        with self._lock:
            if self._buffered is not None:
                self._buffered.append((user_id, spec.name, payload))
                return
        self.store.put_ledger_bound(user_id, spec.name, payload)

    def _sound_prior(self, account: BudgetAccount, qinfo: QInfo) -> AbstractDomain:
        bound = account.sound.get(qinfo.secret.name)
        return self._top(qinfo) if bound is None else bound

    def _top(self, qinfo: QInfo) -> AbstractDomain:
        """The full-space bound, one shared object per spec and domain kind."""
        indset = qinfo.under_indset or qinfo.over_indset
        if indset is None:
            return top_knowledge_for(qinfo)  # raises the typed CompileError
        key = (qinfo.secret, isinstance(indset[0], PowersetDomain))
        top = self._tops.get(key)
        if top is None:
            top = self._tops[key] = top_knowledge_for(qinfo)
        return top

    def _fold(self, bound: AbstractDomain, other: AbstractDomain) -> AbstractDomain:
        """``intersect_knowledge(bound, other)``, once per pair of objects."""
        return self._folds.get(
            (bound, other), lambda: intersect_knowledge(bound, other)
        )


def _decode_payload(
    payload: dict[str, Any],
) -> tuple[SecretSpec, dict[str, AbstractDomain | None]]:
    """The spec and both bounds of an :meth:`~PrivacyBudgetLedger.export_bound` payload."""
    spec = spec_from_json(payload["spec"])
    return spec, {
        key: None if payload.get(key) is None else domain_from_json(payload[key], spec)
        for key in ("sound", "complete")
    }
