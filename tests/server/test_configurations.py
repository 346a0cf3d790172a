"""One seeded schedule, every serving configuration, one observable outcome.

The gateway serves downgrades gateway-local, on inline serving shards, on
process serving shards, on the degraded fallback (every serving breaker
tripped), journaled, and with observability on or off.  None of that may
show in what the runtime decides.  Each configuration runs the same
schedule — opens (two sessions of one user in one tick included),
closes, epoch decay, floor refusals, an unknown session and an unknown
query, duplicate idempotency keys — and must produce identical results,
ledger bounds, budget-refusal counts and audit-trail kind sequences.
Journaled configurations must also agree on the journal's audit digest,
and observed ones on the canonical trace digest (trace ids derive from
journal sequence numbers when journaled and from a local counter
otherwise, so the trace digest is compared within each of those two
families).

``CHAOS_SEED`` picks the pinned schedule; the Hypothesis test explores
other schedules over the in-process configurations.
"""

import asyncio
import os
import random
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plugin import CompileOptions
from repro.lang.secrets import SecretSpec
from repro.monad.policy import size_above
from repro.server.gateway import DeclassificationServer, ServerConfig
from repro.server.journal import RequestJournal
from repro.server.ledger import DecayPolicy
from repro.server.store import SQLiteStore
from repro.service.api import CompileRequest

SEED = int(os.environ.get("CHAOS_SEED", "20220622"))

SPEC = SecretSpec.declare("CfgLoc", x=(0, 63), y=(0, 63))
OPTIONS = CompileOptions(domain="interval", modes=("under", "over"))
QUERIES = {
    "west": "x <= 31",
    "south": "y <= 31",
    "inner": "x <= 15",
    "corner": "x >= 40 and y >= 40",
}
USERS = ("alice", "bob", "carol", "dave")


@dataclass(frozen=True)
class Configuration:
    """How one run is served; every run gets the same schedule."""

    serving_shards: int = 0
    inline_serving: bool = True
    observe: bool = True
    journaled: bool = False
    #: Trip every serving breaker before the first downgrade.
    degraded: bool = False


CONFIGURATIONS = {
    "local": Configuration(),
    "local-dark": Configuration(observe=False),
    "inline-3": Configuration(serving_shards=3),
    "inline-3-dark": Configuration(serving_shards=3, observe=False),
    "degraded": Configuration(serving_shards=2, degraded=True),
    "journaled-local": Configuration(journaled=True),
    "journaled-inline-3": Configuration(serving_shards=3, journaled=True),
}
#: Real worker processes: run on the pinned schedule only (fork cost).
PROCESS = {"process-2": Configuration(serving_shards=2, inline_serving=False)}


# ---------------------------------------------------------------------------
# The schedule
# ---------------------------------------------------------------------------


def make_schedule(seed: int) -> list[list[tuple]]:
    """Ticks of ``(op, ...)`` steps; downgrades of one tick share a flush."""
    rng = random.Random(seed)
    secrets = {user: (rng.randrange(64), rng.randrange(64)) for user in USERS}
    ticks: list[list[tuple]] = []
    open_sessions: list[tuple[str, str]] = []
    counter = 0
    for tick in range(6):
        steps: list[tuple] = []
        opened = 1 if tick else 3
        if tick == 1:
            # Two sessions of one user, both asked in this very tick.
            user = rng.choice(USERS)
            for _ in range(2):
                counter += 1
                sid = f"s{counter}"
                steps.append(("open", sid, user, secrets[user]))
                open_sessions.append((sid, user))
        for _ in range(opened):
            user = rng.choice(USERS)
            counter += 1
            sid = f"s{counter}"
            steps.append(("open", sid, user, secrets[user]))
            open_sessions.append((sid, user))
        downgrades = []
        if tick == 0:
            # Halve one session's bound twice: the third halving crosses
            # the floor whatever the secret, a budget refusal every run.
            sid = open_sessions[0][0]
            for query in ("west", "south", "inner"):
                downgrades.append((sid, query, f"d/0/{query}"))
        for sid, _user in open_sessions:
            for query in rng.sample(sorted(QUERIES), 2):
                downgrades.append((sid, query, f"d/{tick}/{len(downgrades)}"))
        if tick == 2:
            downgrades.append(("ghost", "west", f"d/{tick}/ghost"))
            downgrades.append((open_sessions[0][0], "never_compiled", f"d/{tick}/nq"))
        # A duplicate delivery of one request inside the tick.
        downgrades.append(rng.choice(downgrades))
        steps.append(("downgrades", tuple(downgrades)))
        if tick % 2 == 1:
            steps.append(("epoch", 2, f"e/{tick}"))
        if len(open_sessions) > 2:
            sid, _user = open_sessions.pop(rng.randrange(len(open_sessions)))
            steps.append(("close", sid, f"c/{tick}/{sid}"))
        ticks.append(steps)
    return ticks


# ---------------------------------------------------------------------------
# Running one configuration
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    results: list[tuple]
    bounds: dict[str, dict]
    budget_refusals: int
    audit_kinds: list[str]
    audit_digest: str | None
    trace_digest: str | None


def _result_row(result) -> tuple:
    return (
        result.session_id,
        result.query_name,
        result.authorized,
        result.response,
        result.reason,
        result.knowledge_size,
    )


async def _run(configuration: Configuration, schedule) -> Outcome:
    store = SQLiteStore(":memory:") if configuration.journaled else None
    server = DeclassificationServer(
        size_above(40),
        budget_floor=size_above(600),
        budget_decay=DecayPolicy(radius=4),
        options=OPTIONS,
        store=store,
        journal=None if store is None else RequestJournal(store),
        config=ServerConfig(
            inline_compiles=True,
            serving_shards=configuration.serving_shards,
            inline_serving=configuration.inline_serving,
            observe=configuration.observe,
            # Every breaker tripped must not also shed the schedule.
            degraded_watermark=2.0,
        ),
    )
    try:
        for name, text in QUERIES.items():
            await server.register_query(
                CompileRequest(name, text, SPEC), idempotency_key=f"q/{name}"
            )
        if configuration.degraded:
            for shard in range(configuration.serving_shards):
                server.supervisor.breaker("serving", shard).trip(cooldown=3600)
        rows: list[tuple] = []
        first: dict[str, tuple] = {}
        for steps in schedule:
            for step in steps:
                op = step[0]
                if op == "open":
                    _op, sid, user, secret = step
                    server.open_session(
                        sid, (SPEC, secret), user_id=user, idempotency_key=f"o/{sid}"
                    )
                elif op == "close":
                    _op, sid, key = step
                    server.close_session(sid, idempotency_key=key)
                elif op == "epoch":
                    _op, epochs, key = step
                    server.advance_epoch(epochs, idempotency_key=key)
                else:
                    results = await asyncio.gather(
                        *(
                            server.downgrade(sid, query, idempotency_key=key)
                            for sid, query, key in step[1]
                        )
                    )
                    for (_sid, _query, key), result in zip(step[1], results):
                        rows.append(_result_row(result))
                        first.setdefault(key, _result_row(result))
        await server.flush()
        if server.journal is not None:
            # A retry in a later tick is answered from the journal.
            key, row = next(iter(first.items()))
            sid, query = row[0], row[1]
            assert _result_row(
                await server.downgrade(sid, query, idempotency_key=key)
            ) == row
        return Outcome(
            results=rows,
            bounds={
                user: server.ledger.export_bound(user, SPEC) for user in USERS
            },
            budget_refusals=server.stats.budget_refusals,
            audit_kinds=[event.kind for event in server.service.audit],
            audit_digest=(
                None if server.journal is None else server.journal.audit_digest()
            ),
            trace_digest=server.hub.tracer.digest() if server.hub.enabled else None,
        )
    finally:
        server.shutdown()
        if store is not None:
            store.close()


def run_all(configurations: dict[str, Configuration], seed: int) -> dict[str, Outcome]:
    schedule = make_schedule(seed)
    return {
        name: asyncio.run(_run(configuration, schedule))
        for name, configuration in configurations.items()
    }


def assert_agree(outcomes: dict[str, Outcome], configurations) -> None:
    reference_name, reference = next(iter(outcomes.items()))
    assert any(not row[2] and "budget" in row[4] for row in reference.results)
    assert any(row[2] for row in reference.results)
    for name, outcome in outcomes.items():
        pair = (reference_name, name)
        assert outcome.results == reference.results, pair
        assert outcome.bounds == reference.bounds, pair
        assert outcome.budget_refusals == reference.budget_refusals, pair
        assert outcome.audit_kinds == reference.audit_kinds, pair
    for journaled in (False, True):
        family = {
            name: outcome
            for name, outcome in outcomes.items()
            if configurations[name].journaled == journaled
        }
        audit = {outcome.audit_digest for outcome in family.values()}
        assert len(audit) <= 1, audit
        traces = {
            name: outcome.trace_digest
            for name, outcome in family.items()
            if outcome.trace_digest is not None
        }
        assert len(set(traces.values())) <= 1, traces


def test_every_configuration_agrees_on_the_pinned_schedule():
    configurations = {**CONFIGURATIONS, **PROCESS}
    assert_agree(run_all(configurations, SEED), configurations)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_in_process_configurations_agree_on_any_schedule(seed):
    assert_agree(run_all(CONFIGURATIONS, seed), CONFIGURATIONS)
