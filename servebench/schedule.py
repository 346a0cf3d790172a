"""The seeded traffic shape every servebench workload shares.

Secret type, query family, policies and the per-user schedule live here,
so the workloads in :mod:`servebench.workloads` only decide *how* the
schedule reaches the server (coroutines or HTTP), never *what* it asks.

A schedule is a pure function of ``(seed, users)``: each user gets one
secret, an ordered choice of 4 distinct queries, and (for the edge
workload) which of those downgrades is re-sent under the same
idempotency key.  Every round replays the same schedule with fresh
sessions, and ``DecayPolicy(radius=64)`` dilates every ledger bound back
to the full space at each epoch, so round ``k`` must decide exactly what
round 1 decided — the stationarity the steady-state numbers rely on.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterable

from repro.core.plugin import CompileOptions
from repro.lang.eval import eval_bool
from repro.lang.parser import parse_bool
from repro.lang.secrets import SecretSpec
from repro.monad.policy import QuantitativePolicy, size_above
from repro.server.ledger import DecayPolicy

#: The 4-D ship space (2^22 cells): past the region-oracle cap.
SPEC = SecretSpec.declare("Ship", x=(0, 63), y=(0, 63), z=(0, 31), w=(0, 31))
OPTIONS = CompileOptions(domain="powerset", k=6, modes=("under", "over"))

#: The 12-query zone family of ``benchmarks/test_server_throughput.py``.
QUERIES: dict[str, str] = {
    f"zone{i}": (
        f"abs(x - {12 + 4 * i}) + abs(y - {16 + 3 * i}) "
        f"+ abs(z - {6 + (i % 5)}) + w <= {38 + 2 * i}"
    )
    for i in range(12)
}

QUERIES_PER_SESSION = 4
#: One downgrade in this many is re-sent under its idempotency key.
RETRY_EVERY = 10
POLICY_THRESHOLD = 10
DECAY_RADIUS = 64


def policy() -> QuantitativePolicy:
    """The session policy: knowledge must keep more than 10 secrets."""
    return size_above(POLICY_THRESHOLD)


def budget_floor() -> QuantitativePolicy:
    """The ledger floor (same threshold as the session policy)."""
    return size_above(POLICY_THRESHOLD)


def budget_decay() -> DecayPolicy:
    """Radius 64 covers every axis: one epoch restores the full space."""
    return DecayPolicy(radius=DECAY_RADIUS)


@dataclass(frozen=True)
class User:
    """One client's fixed part of the schedule."""

    index: int
    user_id: str
    secret: tuple[int, int, int, int]
    queries: tuple[str, ...]
    #: Per query: re-send this downgrade under the same idempotency key.
    retries: tuple[bool, ...]

    def session_id(self, round_no: int) -> str:
        """The session this user opens in one round (no ``/``: it is a URL part)."""
        return f"{self.user_id}-r{round_no}"


def make_schedule(seed: int, users: int) -> list[User]:
    """The deterministic schedule for ``users`` clients under ``seed``."""
    rng = random.Random(seed)
    names = sorted(QUERIES, key=lambda name: int(name[4:]))
    bounds = SPEC.bounds()
    drafts = []
    for index in range(users):
        secret = tuple(rng.randint(lo, hi) for lo, hi in bounds)
        queries = tuple(rng.sample(names, QUERIES_PER_SESSION))
        drafts.append((index, secret, queries))
    slots = users * QUERIES_PER_SESSION
    retried = set(rng.sample(range(slots), slots // RETRY_EVERY))
    return [
        User(
            index=index,
            user_id=f"u{index}",
            secret=secret,
            queries=queries,
            retries=tuple(
                index * QUERIES_PER_SESSION + j in retried
                for j in range(QUERIES_PER_SESSION)
            ),
        )
        for index, secret, queries in drafts
    ]


#: One decision: (user, query, authorized, response, knowledge_size).
Row = tuple[str, str, bool, "bool | None", "int | None"]


def digest(rows: Iterable[Row]) -> str:
    """SHA-256 over decision rows, in schedule order (user, then query)."""
    h = hashlib.sha256()
    for user_id, query, authorized, response, size in rows:
        h.update(f"{user_id}|{query}|{authorized}|{response}|{size}\n".encode())
    return h.hexdigest()


_PARSED = {name: parse_bool(text) for name, text in QUERIES.items()}


def truth(user: User, query: str) -> bool:
    """The query evaluated directly on the user's secret (the oracle)."""
    return eval_bool(_PARSED[query], SPEC.to_env(user.secret))


def wrong_answers(users: list[User], rows: list[Row]) -> int:
    """Authorized rows whose response differs from the oracle."""
    by_id = {user.user_id: user for user in users}
    return sum(
        1
        for user_id, query, authorized, response, _size in rows
        if authorized and response != truth(by_id[user_id], query)
    )
