"""Chaos suite: kill shards mid-flight and prove the invariants hold.

Three invariants, end to end, under every fault the plan can schedule:

1. **No lost commits** — a bound the gateway mirror accepted survives any
   shard death; replays can only tighten it (monotone folds).
2. **No budget laundering** — no crash timing (before admission, between
   admission and commit, after commit) yields an answer the mirror's
   bounds would have refused, and refusals never mutate bounds.
3. **Bounded recovery** — the server returns to the shard path within a
   bounded number of requests plus one breaker cooldown, with zero
   recompiles (artifacts re-attach from the content-addressed cache).

``CHAOS_SEED`` parameterizes every seeded schedule; CI runs the suite
once with the pinned default and once with a random seed (echoed for
reproduction).
"""

import asyncio
import json
import os
import signal

import pytest

from repro.core.plugin import CompileOptions
from repro.lang.secrets import SecretSpec
from repro.monad.policy import size_above
from repro.server import faults
from repro.server.faults import FaultPlan, FaultSpec
from repro.server.gateway import (
    DeclassificationServer,
    ServerConfig,
    ServerDegraded,
)
from repro.server.store import SQLiteStore
from repro.service.api import CompileRequest

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "20220622"))

SPEC = SecretSpec.declare("ChaosLoc", x=(0, 199), y=(0, 199))
OPTIONS = CompileOptions(domain="interval", modes=("under", "over"))
#: Secret (30, 40): west/south/inner all answer True, with posterior
#: sizes 20000 / 10000 / 5000 against the 40000-point prior.
QUERIES = (("west", "x <= 99"), ("south", "y <= 99"), ("inner", "x <= 49"))
SECRET = (30, 40)


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    faults.clear_fault_plan()
    yield
    faults.clear_fault_plan()


def make_server(**kwargs) -> DeclassificationServer:
    kwargs.setdefault("options", OPTIONS)
    return DeclassificationServer(size_above(100), **kwargs)


async def boot(server, queries=QUERIES):
    for name, text in queries:
        await server.register_query(CompileRequest(name, text, SPEC))


# ---------------------------------------------------------------------------
# Real process death (actual SIGKILL, no fault plan)
# ---------------------------------------------------------------------------


def test_sigkill_serving_shard_recovers_with_zero_recompiles(tmp_path):
    """Headline: kill the shard process, keep the budget, skip resynthesis."""

    async def scenario():
        store = SQLiteStore(tmp_path / "chaos.db")
        config = ServerConfig(
            inline_compiles=True,
            serving_shards=1,
            max_retries=2,
            retry_backoff=0.01,
            breaker_threshold=5,
        )
        server = make_server(
            store=store, budget_floor=size_above(4000), config=config
        )
        await boot(server)
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        first = await server.downgrade("s1", "west")
        assert first.authorized and first.response is True
        assert server.ledger.remaining("alice", SPEC) == 20_000
        compiles_before = server.pool.total_submitted()

        # SIGKILL the live shard worker — abrupt death, no cleanup.
        executor = server.serving_pool._executors[0]
        assert executor is not None
        for pid in list(executor._processes):
            os.kill(pid, signal.SIGKILL)

        # The next batch rides the supervisor: restart, rehydrate, retry.
        second = await server.downgrade("s1", "south")
        assert second.authorized and second.response is True
        assert server.stats.shard_restarts >= 1
        # Invariant 1: the committed west bound survived the death.
        assert server.ledger.remaining("alice", SPEC) == 10_000
        # Invariant 3: recovery compiled nothing — artifacts re-attach
        # from the content-addressed cache, never from synthesis.
        assert server.pool.total_submitted() == compiles_before
        # Invariant 2: the refusal boundary is exactly the healthy one.
        assert (await server.downgrade("s1", "inner")).authorized
        refused = await server.downgrade("s1", "west")
        assert not refused.authorized
        assert "budget exhausted" in refused.reason
        assert refused.knowledge_size == 5000
        server.shutdown()
        store.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Crash-timing attacks on the ledger (inline shards, simulated death)
# ---------------------------------------------------------------------------

INLINE_SHARDED = dict(
    inline_compiles=True,
    serving_shards=1,
    inline_serving=True,
    max_retries=2,
    retry_backoff=0.001,
    breaker_threshold=5,
)


def test_crash_between_admission_and_commit_charges_nobody():
    """Death after preauthorization but before commit must not charge."""

    async def scenario():
        plan = FaultPlan(
            [FaultSpec(site="serve.round", kind="crash_before_result")],
            seed=CHAOS_SEED,
        )
        server = make_server(
            budget_floor=size_above(4000),
            config=ServerConfig(**INLINE_SHARDED),
            fault_plan=plan,
        )
        await boot(server)
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        # Attempt 1 admits s1, then dies before the downgrade runs; the
        # retry re-checks admission on a rehydrated shard and commits
        # exactly once.
        result = await server.downgrade("s1", "west")
        assert result.authorized and result.response is True
        assert server.stats.shard_restarts == 1
        assert server.ledger.remaining("alice", SPEC) == 20_000
        # The plan crossed the payload boundary as a fingerprint-matched
        # clone; the installed copy records the firing.
        installed = faults.active_fault_plan()
        assert installed.fired() == [("serve.round", "crash_before_result")]
        server.shutdown()

    asyncio.run(scenario())


def test_crash_after_commit_charges_exactly_once():
    """Shard-local commits that die pre-delta replay without double-charge."""

    async def scenario():
        plan = FaultPlan(
            [FaultSpec(site="serve.round", kind="crash_after_commit")],
            seed=CHAOS_SEED,
        )
        server = make_server(
            budget_floor=size_above(4000),
            config=ServerConfig(**INLINE_SHARDED),
            fault_plan=plan,
        )
        await boot(server)
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        # Attempt 1 commits on the shard's local ledger, then dies before
        # the delta reaches the mirror — the charge dies with the shard.
        # The retry re-serves on a fresh shard; intersection is
        # idempotent, so the mirror ends exactly one charge tighter.
        result = await server.downgrade("s1", "west")
        assert result.authorized
        assert server.ledger.remaining("alice", SPEC) == 20_000
        server.shutdown()

    asyncio.run(scenario())


def test_crashes_and_refusals_never_launder_a_refused_budget():
    """Once the mirror holds a bound, no crash or refusal loosens it."""

    async def scenario():
        plan = FaultPlan(
            [FaultSpec(site="serve", kind="crash_before_result", times=1)],
            seed=CHAOS_SEED,
        )
        server = make_server(
            budget_floor=size_above(4000),
            config=ServerConfig(**INLINE_SHARDED),
            fault_plan=plan,
        )
        await boot(server)
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        for name in ("west", "south", "inner"):
            assert (await server.downgrade("s1", name)).authorized
        assert server.ledger.remaining("alice", SPEC) == 5000
        # The crash fault is still armed: the next request kills the
        # shard (state and local ledger die), forcing rehydration from
        # the mirror.  The refusal must be byte-identical every time.
        refusals = [await server.downgrade("s1", "west") for _ in range(3)]
        assert server.stats.shard_restarts == 1
        for refused in refusals:
            assert not refused.authorized
            assert refused.reason == refusals[0].reason
            assert refused.knowledge_size == 5000
        assert server.ledger.remaining("alice", SPEC) == 5000
        server.shutdown()

    asyncio.run(scenario())


def test_recovery_within_bounded_requests_and_one_cooldown():
    """Breaker opens → degraded answers → probe → shard path resumes."""

    async def scenario():
        plan = FaultPlan(
            [FaultSpec(site="serve", kind="crash_before_result")],
            seed=CHAOS_SEED,
        )
        config = ServerConfig(
            inline_compiles=True,
            serving_shards=1,
            inline_serving=True,
            max_retries=0,
            breaker_threshold=1,
            breaker_cooldown=0.15,
        )
        server = make_server(
            budget_floor=size_above(4000), config=config, fault_plan=plan
        )
        await boot(server)
        server.open_session("s1", (SPEC, SECRET), user_id="alice")

        # Request 1: the only attempt dies; the breaker opens and the
        # batch degrades onto the gateway-local path — still answered,
        # still charged on the mirror.
        first = await server.downgrade("s1", "west")
        assert first.authorized and first.response is True
        assert server.stats.degraded_batches == 1
        assert server.stats.shard_restarts == 1
        assert server.ledger.remaining("alice", SPEC) == 20_000
        assert server.supervisor.breaker("serving", 0).state() == "open"
        assert "s1" in server._degraded_sessions

        # Request 2 (breaker still open): served degraded immediately —
        # the shard is not even attempted.
        second = await server.downgrade("s1", "south")
        assert second.authorized
        assert server.stats.degraded_batches == 2
        assert server.ledger.remaining("alice", SPEC) == 10_000

        # One cooldown later the half-open probe runs the real shard
        # path (the fault budget is spent); success closes the breaker
        # and retires the degraded session mirror.
        await asyncio.sleep(0.2)
        third = await server.downgrade("s1", "inner")
        assert third.authorized
        assert server.supervisor.breaker("serving", 0).state() == "closed"
        assert server.stats.degraded_batches == 2  # no new degraded work
        assert "s1" not in server._degraded_sessions
        assert "s1" not in server.manager.sessions

        # Cross-path budget continuity: the rehydrated shard saw the
        # degraded-path commits (ship-time bound refresh), so the floor
        # is exactly where a healthy run would have put it.
        refused = await server.downgrade("s1", "west")
        assert not refused.authorized
        assert "budget exhausted" in refused.reason
        server.shutdown()

    asyncio.run(scenario())


def test_degraded_path_stays_fault_free_under_a_live_round_fault():
    """The gateway runs the same serving core as the shards — kill points
    included — but with faults suppressed: with a ``serve.round`` crash
    armed for every round, only shard attempts die, and every request is
    still answered on the degraded path."""

    async def scenario():
        plan = FaultPlan(
            [
                FaultSpec(
                    site="serve.round", kind="crash_before_result", times=10**9
                )
            ],
            seed=CHAOS_SEED,
        )
        config = ServerConfig(
            inline_compiles=True,
            serving_shards=1,
            inline_serving=True,
            max_retries=0,
            breaker_threshold=1,
            breaker_cooldown=0.15,
        )
        server = make_server(
            budget_floor=size_above(4000), config=config, fault_plan=plan
        )
        await boot(server)
        server.open_session("s1", (SPEC, SECRET), user_id="alice")

        first = await server.downgrade("s1", "west")
        assert first.authorized and first.response is True
        assert server.supervisor.breaker("serving", 0).state() == "open"
        second = await server.downgrade("s1", "south")
        assert second.authorized
        # One cooldown later the half-open probe dies on the shard again;
        # the request still rides the degraded path.
        await asyncio.sleep(0.2)
        third = await server.downgrade("s1", "inner")
        assert third.authorized
        assert server.stats.degraded_batches == 3
        assert server.ledger.remaining("alice", SPEC) == 5000
        refused = await server.downgrade("s1", "west")
        assert not refused.authorized
        assert "budget exhausted" in refused.reason
        # Every firing is a shard attempt's: the gateway core never fired.
        fired = faults.active_fault_plan().fired()
        assert set(fired) == {("serve.round", "crash_before_result")}
        assert len(fired) == server.supervisor.stats.crashes
        server.shutdown()

    asyncio.run(scenario())


def test_degraded_load_shedding_names_a_retry_time():
    async def scenario():
        config = ServerConfig(
            inline_compiles=True,
            serving_shards=2,
            inline_serving=True,
            max_queued_downgrades=4,
            degraded_watermark=0.5,
            breaker_cooldown=0.25,
        )
        server = make_server(config=config)
        await boot(server)
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        server.supervisor.breaker("serving", 0).trip(cooldown=3600.0)
        server.supervisor.breaker("serving", 1).trip(cooldown=3600.0)
        # Every shard down: the queue bound collapses to the minimum.
        queued = asyncio.ensure_future(server.downgrade("s1", "west"))
        await asyncio.sleep(0)  # let it enqueue
        with pytest.raises(ServerDegraded) as excinfo:
            await server.downgrade("s1", "south")
        assert excinfo.value.retry_after > 0
        assert server.stats.degraded_shed == 1
        # The queued request still gets answered (degraded path).
        result = await queued
        assert result.authorized
        assert server.stats.degraded_batches == 1
        server.shutdown()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# The full fault matrix, under inline AND real-process serving shards
# ---------------------------------------------------------------------------

MATRIX = [
    ("crash_before_result", "serve"),
    ("crash_after_commit", "serve.round"),
    ("delay", "serve"),
    ("duplicate_delivery", "serve"),
    ("corrupt_payload", "serve"),
    ("db_locked", "store.write"),
]


@pytest.mark.parametrize("inline", [True, False], ids=["inline", "process"])
@pytest.mark.parametrize("kind,site", MATRIX, ids=[k for k, _s in MATRIX])
def test_fault_matrix_preserves_answers_and_charges(kind, site, inline):
    """Whatever fires, the caller sees the healthy run's answer and the
    mirror ends with the healthy run's bounds — then the shard path
    resumes after at most one breaker cooldown."""

    async def scenario():
        # Process-mode crashes re-fire in every replacement worker (the
        # plan ships inside each payload), so recovery there rides the
        # degraded path; inline workers keep fire counters, so recovery
        # rides a retry.  The invariants don't care which.
        plan = FaultPlan(
            [FaultSpec(site=site, kind=kind, delay=1.0)], seed=CHAOS_SEED
        )
        config = ServerConfig(
            inline_compiles=True,
            serving_shards=1,
            inline_serving=inline,
            max_retries=2,
            retry_backoff=0.005,
            breaker_threshold=3,
            breaker_cooldown=0.1,
            serving_deadline=(
                0.3 if kind == "delay" and not inline else None
            ),
        )
        store = SQLiteStore(":memory:")
        server = make_server(
            store=store,
            budget_floor=size_above(4000),
            config=config,
            fault_plan=plan,
        )
        if kind == "db_locked":
            # Store writes run in the gateway process; arm it there too
            # (same fingerprint, so inline installs share the counters).
            faults.install_fault_plan(plan, simulate=True)
        await boot(server)
        server.open_session("s1", (SPEC, SECRET), user_id="alice")

        first = await server.downgrade("s1", "west")
        assert first.authorized and first.response is True, (kind, inline)
        assert server.ledger.remaining("alice", SPEC) == 20_000

        # Disarm, wait out any open breaker, and prove the shard path is
        # back: the next answer is served and the breaker ends closed.
        server.fault_plan = None
        server.pool.fault_plan = None
        server.serving_pool.fault_plan = None
        if kind == "delay" and inline:
            pass  # a bare inline delay never failed anything
        await asyncio.sleep(0.12)
        second = await server.downgrade("s1", "south")
        assert second.authorized and second.response is True
        assert server.ledger.remaining("alice", SPEC) == 10_000
        assert server.supervisor.breaker("serving", 0).state() == "closed"
        assert store.ledger_bound_count() == 1
        server.shutdown()
        store.close()

    asyncio.run(scenario())


def test_compile_fault_matrix_inline():
    """Compile-side faults: crash retries, codec retries, breaker failover."""

    async def scenario():
        plan = FaultPlan(
            [
                FaultSpec(site="compile", kind="crash_before_result"),
                FaultSpec(site="compile", kind="corrupt_payload"),
                FaultSpec(site="compile", kind="duplicate_delivery"),
            ],
            seed=CHAOS_SEED,
        )
        config = ServerConfig(
            inline_compiles=True, max_retries=2, retry_backoff=0.001
        )
        server = make_server(config=config, fault_plan=plan)
        # Three registrations, three faults, three good artifacts.
        receipts = [
            await server.register_query(CompileRequest(name, text, SPEC))
            for name, text in QUERIES
        ]
        assert all(r.verified for r in receipts)
        assert server.supervisor.stats.crashes >= 1
        assert server.supervisor.stats.codec_errors >= 1
        assert server.stats.degraded_compiles == 0
        server.shutdown()

    asyncio.run(scenario())


def test_compile_deadline_times_out_a_hung_process_shard():
    """A hung compile shard (the runbook's "Job hangs" row): the
    ``compile_deadline`` cancels the attempt, the supervisor records the
    timeout and replaces the worker, and the receipt's artifact is the
    one an unfaulted compile caches.  The replacement serves the next
    compile on the shard path once the plan is disarmed."""

    async def scenario():
        control = make_server(config=ServerConfig(inline_compiles=True))
        await control.register_query(CompileRequest("west", "x <= 99", SPEC))
        control_keys = set(control.cache.keys())
        control.shutdown()

        plan = FaultPlan(
            [FaultSpec(site="compile", kind="delay", times=1, delay=5.0)],
            seed=CHAOS_SEED,
        )
        # No retries: the timeout fails over to inline execution at once
        # (the retry path is the test below).
        config = ServerConfig(compile_deadline=0.3, max_retries=0)
        server = make_server(config=config, fault_plan=plan)
        receipt = await server.register_query(
            CompileRequest("west", "x <= 99", SPEC)
        )
        assert receipt.verified and not receipt.cache_hit
        assert set(server.cache.keys()) == control_keys
        stats = server.supervisor.stats
        assert (stats.timeouts, stats.restarts, stats.failovers) == (1, 1, 1)
        assert server.stats.shard_restarts == 1
        assert server.stats.degraded_compiles == 1

        server.fault_plan = server.pool.fault_plan = None
        again = await server.register_query(CompileRequest("south", "y <= 99", SPEC))
        assert again.verified
        assert stats.timeouts == 1 and server.stats.degraded_compiles == 1
        assert server.supervisor.breaker("compile", again.shard).state() == "closed"
        server.shutdown()

    asyncio.run(scenario())


def test_compile_retry_succeeds_on_the_replacement_process_shard():
    """A one-shot fault fires once per plan, not once per worker: the
    hung compile times out, the supervisor replaces the worker, and the
    retry compiles on the replacement shard with no inline failover."""

    async def scenario():
        control = make_server(config=ServerConfig(inline_compiles=True))
        await control.register_query(CompileRequest("west", "x <= 99", SPEC))
        control_keys = set(control.cache.keys())
        control.shutdown()

        plan = FaultPlan(
            [FaultSpec(site="compile", kind="delay", times=1, delay=60.0)],
            seed=CHAOS_SEED,
        )
        config = ServerConfig(compile_deadline=1.0, max_retries=2)
        server = make_server(config=config, fault_plan=plan)
        receipt = await server.register_query(
            CompileRequest("west", "x <= 99", SPEC)
        )
        assert receipt.verified and not receipt.cache_hit
        assert set(server.cache.keys()) == control_keys
        stats = server.supervisor.stats
        assert (stats.timeouts, stats.retries, stats.restarts) == (1, 1, 1)
        assert stats.failovers == 0
        assert server.stats.degraded_compiles == 0
        server.shutdown()

    asyncio.run(scenario())


def test_compile_breaker_fails_over_to_inline_execution():
    async def scenario():
        plan = FaultPlan(
            [FaultSpec(site="compile", kind="crash_before_result", times=10)],
            seed=CHAOS_SEED,
        )
        config = ServerConfig(
            inline_compiles=True,
            max_retries=0,
            breaker_threshold=1,
            breaker_cooldown=3600.0,
        )
        server = make_server(config=config, fault_plan=plan)
        receipt = await server.register_query(
            CompileRequest("west", "x <= 99", SPEC)
        )
        # The shard attempt died, the breaker opened, and the compile ran
        # inline on a clean payload — same artifact, no shard.
        assert receipt.verified
        assert server.stats.degraded_compiles >= 1
        assert server.supervisor.breaker("compile", server.pool.shard_for("x <= 99")
                                         ).state() == "open"
        # The artifact is genuinely usable.
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        result = await server.downgrade("s1", "west")
        assert result.authorized and result.response is True
        server.shutdown()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Seeded fault storm: mirror monotonicity
# ---------------------------------------------------------------------------


def test_mirror_bounds_only_tighten_under_a_fault_storm():
    """Remaining budget per user is non-increasing through arbitrary chaos."""

    async def scenario():
        plan = FaultPlan(
            [
                FaultSpec(
                    site="serve", kind="crash_before_result", times=2,
                    probability=0.5,
                ),
                FaultSpec(
                    site="serve.round", kind="crash_after_commit", times=2,
                    probability=0.5,
                ),
                FaultSpec(
                    site="serve", kind="corrupt_payload", times=2,
                    probability=0.4,
                ),
                FaultSpec(
                    site="serve", kind="duplicate_delivery", times=3,
                    probability=0.5,
                ),
            ],
            seed=CHAOS_SEED,
        )
        config = ServerConfig(**{**INLINE_SHARDED, "serving_shards": 2})
        server = make_server(
            budget_floor=size_above(4000), config=config, fault_plan=plan
        )
        await boot(server)
        users = {f"s{i}": f"user-{i % 3}" for i in range(6)}
        for sid, user in users.items():
            server.open_session(sid, (SPEC, SECRET), user_id=user)
        histories = {user: [40_000] for user in set(users.values())}
        for name, _text in QUERIES * 2:
            for sid, user in users.items():
                result = await server.downgrade(sid, name)
                # Every request resolves: authorized or budget-refused.
                assert result.authorized or "budget" in result.reason, (
                    f"seed {CHAOS_SEED}: unexpected refusal {result.reason!r}"
                )
                histories[user].append(server.ledger.remaining(user, SPEC))
        for user, history in histories.items():
            assert history == sorted(history, reverse=True), (
                f"seed {CHAOS_SEED}: bounds loosened for {user}: {history}"
            )
            assert history[-1] >= 4000  # the floor held
        server.shutdown()

    asyncio.run(scenario())


def test_store_write_lock_storm_absorbed_end_to_end(tmp_path):
    async def scenario():
        store = SQLiteStore(tmp_path / "locky.db")
        server = make_server(
            store=store,
            budget_floor=size_above(4000),
            config=ServerConfig(**INLINE_SHARDED),
        )
        faults.install_fault_plan(
            FaultPlan(
                [FaultSpec(site="store.write", kind="db_locked", times=3)],
                seed=CHAOS_SEED,
            ),
            simulate=True,
        )
        await boot(server)
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        result = await server.downgrade("s1", "west")
        assert result.authorized
        # The write-through landed despite the lock storm.
        assert store.ledger_bound_count() == 1
        rows = list(store.ledger_bounds())
        assert rows[0][0] == "alice"
        assert json.dumps(rows[0][2])  # a real, decodable payload
        server.shutdown()
        store.close()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Journal crash windows (PR 9; the full drill lives in test_replay.py)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["crash_after_execute_before_ack"])
def test_journal_crash_windows_fire_and_leave_a_pending_row(kind):
    """The journal's crash window hits the journal site: the request
    dies after executing and before its one durable write, so it leaves
    no row and no bound behind — the client's retry re-runs it (see
    tests/server/test_replay.py for the end-to-end kill-and-restart
    drill)."""
    from concurrent.futures.process import BrokenProcessPool

    from repro.server.journal import RequestJournal
    from repro.server.store import SQLiteStore as _Store

    async def scenario():
        store = _Store(":memory:")
        journal = RequestJournal(store)
        server = make_server(
            store=store,
            budget_floor=size_above(4000),
            config=ServerConfig(inline_compiles=True),
            journal=journal,
        )
        await boot(server, QUERIES[:1])
        server.open_session("s1", (SPEC, SECRET), user_id="alice")
        faults.install_fault_plan(
            FaultPlan([FaultSpec(site="journal", kind=kind)], seed=CHAOS_SEED),
            simulate=True,
        )
        with pytest.raises(BrokenProcessPool):
            await server.downgrade("s1", "west", idempotency_key="doomed")
        faults.clear_fault_plan()
        assert journal.entry("doomed") is None
        assert all(e.status == "done" for e in journal.entries())
        # Atomic fold+write: an unwritten request left no durable charge.
        assert store.ledger_bound_count() == 0
        store.close()

    asyncio.run(scenario())
