"""DeclassificationServer: coalescing, batching, restart, budget, shedding."""

import asyncio
import concurrent.futures

import pytest

from repro.core.plugin import CompileOptions
from repro.lang.eval import eval_bool
from repro.lang.secrets import SecretSpec
from repro.monad.policy import size_above
from repro.server.gateway import (
    DeclassificationServer,
    ServerConfig,
    ServerOverloaded,
)
from repro.server.store import SQLiteStore
from repro.service.api import CompileRequest

SPEC = SecretSpec.declare("GwLoc", x=(0, 199), y=(0, 199))
OPTIONS = CompileOptions(domain="interval", modes=("under", "over"))
INLINE = ServerConfig(inline_compiles=True)
SHARDED = ServerConfig(
    inline_compiles=True, serving_shards=3, inline_serving=True
)

QUERIES = {
    "east": "x >= 100",
    "north": "y >= 100",
    "plaza": "abs(x - 100) + abs(y - 100) <= 60",
}


def make_server(**kwargs) -> DeclassificationServer:
    kwargs.setdefault("options", OPTIONS)
    kwargs.setdefault("config", INLINE)
    return DeclassificationServer(size_above(100), **kwargs)


def test_compile_cache_and_coalescing():
    async def scenario():
        server = make_server()
        first = await server.register_query(CompileRequest("q", "x <= 50", SPEC))
        assert not first.cache_hit and not first.coalesced
        assert first.shard is not None and first.verified
        # Same canonical problem, new tenant, commuted spelling: a hit.
        again = await server.register_query(
            CompileRequest("q2", "50 >= x", SPEC)
        )
        assert again.cache_hit and not again.coalesced
        assert server.pool.total_submitted() == 1
        assert sorted(server.manager.registry.names()) == ["q", "q2"]
        # Concurrent identical problems coalesce onto one shard job.
        receipts = await asyncio.gather(
            *(
                server.register_query(CompileRequest(f"p{i}", "y <= 20", SPEC))
                for i in range(4)
            )
        )
        assert server.pool.total_submitted() == 2
        assert sum(1 for r in receipts if not r.cache_hit and not r.coalesced) == 1
        assert sum(1 for r in receipts if r.coalesced) == 3
        assert server.stats.compile_coalesced == 3
        server.shutdown()

    asyncio.run(scenario())


@pytest.mark.parametrize("config", [INLINE, SHARDED], ids=["INLINE", "SHARDED"])
def test_downgrades_batch_per_tick_and_match_truth(config):
    async def scenario():
        server = make_server(config=config)
        for name, text in QUERIES.items():
            await server.register_query(CompileRequest(name, text, SPEC))
        secrets = {f"u{i}": (i * 37 % 200, i * 53 % 200) for i in range(40)}
        for sid, value in secrets.items():
            server.open_session(sid, (SPEC, value))

        # Quadrant queries: every posterior chain stays a 100x200-or-larger
        # box, so check-both authorizes all 80 requests.
        await server.start()
        results = await asyncio.gather(
            *(server.downgrade(sid, "east") for sid in secrets),
            *(server.downgrade(sid, "north") for sid in secrets),
        )
        await server.stop()

        compiled = {n: server.manager.registry.lookup(n).qinfo for n in QUERIES}
        for result in results:
            assert result.authorized
            env = SPEC.to_env(secrets[result.session_id])
            assert result.response == eval_bool(
                compiled[result.query_name].query, env
            )
        # Batching really happened: far fewer service batches than requests.
        batches = [e for e in server.service.audit if e.kind == "batch"]
        assert len(batches) < len(results)
        assert server.stats.downgrades_served == len(results) == 80
        server.shutdown()

    asyncio.run(scenario())


def test_kill_and_restart_warm_starts_with_zero_recompiles(tmp_path):
    """The acceptance test: a restarted server re-serves every previously
    compiled query without a single shard job."""
    path = tmp_path / "artifacts.db"

    async def serve(store: SQLiteStore):
        server = make_server(store=store)
        receipts = [
            await server.register_query(CompileRequest(name, text, SPEC))
            for name, text in QUERIES.items()
        ]
        server.open_session("u", (SPEC, (120, 80)))
        result = await server.downgrade("u", "east")
        assert result.authorized and result.response is True
        server.shutdown()
        return server, receipts

    with SQLiteStore(path) as store:
        server1, receipts1 = asyncio.run(serve(store))
        assert all(not r.cache_hit for r in receipts1)
        assert server1.pool.total_submitted() == len(QUERIES)
        assert server1.stats.warm_entries == 0
        assert len(store) == len(QUERIES)

    # Kill.  Restart on the same store: all hits, zero compile jobs.
    with SQLiteStore(path) as store:
        server2, receipts2 = asyncio.run(serve(store))
        assert all(r.cache_hit for r in receipts2)
        assert server2.pool.total_submitted() == 0
        assert server2.stats.warm_entries == len(QUERIES)
        # The artifacts are byte-identical across the restart.
        for name in QUERIES:
            q1 = server1.manager.registry.lookup(name).qinfo
            q2 = server2.manager.registry.lookup(name).qinfo
            assert q1.under_indset == q2.under_indset
            assert q1.over_indset == q2.over_indset


def test_budget_ledger_interposes_on_serving():
    async def scenario():
        server = make_server(budget_floor=size_above(4000))
        for name, text in (
            ("west", "x <= 99"),
            ("south", "y <= 99"),
            ("inner", "x <= 49"),
        ):
            await server.register_query(CompileRequest(name, text, SPEC))
        server.open_session("s1", (SPEC, (30, 40)), user_id="alice")

        first = await server.downgrade("s1", "west")  # 20_000 both sides
        second = await server.downgrade("s1", "south")  # 10_000 both sides
        assert first.authorized and second.authorized
        # Third halving: 5_000 both sides > 4_000 — still fits.
        third = await server.downgrade("s1", "inner")
        assert third.authorized
        # Alice reconnects with a new session: sessions reset, the budget
        # does not.  Any further halving would land at 2_500 <= 4_000.
        server.close_session("s1")
        server.open_session("s2", (SPEC, (30, 40)), user_id="alice")
        refused = await server.downgrade("s2", "west")
        assert not refused.authorized
        assert "budget exhausted" in refused.reason
        # The refusal is invisible everywhere but the refusal itself:
        # session knowledge untouched, ledger bound unchanged.
        assert server.manager.session("s2").knowledge is None
        assert server.ledger.remaining("alice", SPEC) == 5000
        assert server.stats.budget_refusals == 1
        # A different user is unaffected.
        server.open_session("s3", (SPEC, (150, 150)), user_id="bob")
        fresh = await server.downgrade("s3", "west")
        assert fresh.authorized
        server.shutdown()

    asyncio.run(scenario())


def test_downgrade_queue_load_shedding():
    async def scenario():
        server = make_server(
            config=ServerConfig(
                inline_compiles=True, max_queued_downgrades=2
            )
        )
        await server.register_query(CompileRequest("q", "x <= 50", SPEC))
        server.open_session("u", (SPEC, (10, 10)))
        await server.start()  # the first enqueue's flush runs after we resume
        t1 = asyncio.ensure_future(server.downgrade("u", "q"))
        t2 = asyncio.ensure_future(server.downgrade("u", "q"))
        await asyncio.sleep(0)  # let both enqueue
        with pytest.raises(ServerOverloaded):
            await server.downgrade("u", "q")
        await server.stop()  # final flush serves the queued two
        assert (await t1).authorized and (await t2).authorized
        server.shutdown()

    asyncio.run(scenario())


def test_unknown_session_and_unknown_query_are_refusals_not_errors():
    async def scenario():
        server = make_server(budget_floor=size_above(100))
        await server.register_query(CompileRequest("q", "x <= 50", SPEC))
        ghost = await server.downgrade("nobody", "q")
        assert not ghost.authorized and "no open session" in ghost.reason
        server.open_session("u", (SPEC, (10, 10)))
        unknown = await server.downgrade("u", "never_compiled")
        assert not unknown.authorized
        assert "Can't downgrade" in unknown.reason
        server.shutdown()

    asyncio.run(scenario())


def test_compile_shed_surfaces_and_recovers():
    async def scenario():
        server = make_server(
            config=ServerConfig(inline_compiles=True, max_pending_compiles=1)
        )
        from repro.server.workers import ShardOverloaded

        shard = server.pool.shard_for("x <= 77")
        server.pool._reserve(shard)  # a stuck in-flight job
        with pytest.raises(ShardOverloaded):
            await server.register_query(CompileRequest("q", "x <= 77", SPEC))
        assert server.stats.compile_shed == 1
        server.pool._release(shard)
        receipt = await server.register_query(
            CompileRequest("q", "x <= 77", SPEC)
        )
        assert not receipt.cache_hit
        server.shutdown()

    asyncio.run(scenario())


def test_flush_isolates_a_failing_batch_and_ticker_survives(monkeypatch):
    """One query group blowing up must fail only its own waiters; other
    groups in the same tick are still served and later ticks still run."""

    async def scenario():
        server = make_server()
        for name, text in (("good", "x <= 99"), ("bad", "y <= 99")):
            await server.register_query(CompileRequest(name, text, SPEC))
        server.open_session("u", (SPEC, (10, 10)))

        real_serve_batch = server.core.serve_batch

        def exploding(query_name, session_ids, traces=None):
            if query_name == "bad":
                raise RuntimeError("boom")
            return real_serve_batch(query_name, session_ids, traces)

        monkeypatch.setattr(server.core, "serve_batch", exploding)
        await server.start()
        good = asyncio.ensure_future(server.downgrade("u", "good"))
        bad = asyncio.ensure_future(server.downgrade("u", "bad"))
        assert (await good).authorized
        with pytest.raises(RuntimeError, match="boom"):
            await bad
        # The ticker survived the failing batch: later requests serve.
        later = await server.downgrade("u", "good")
        assert later.query_name == "good"
        await server.stop()
        server.shutdown()

    asyncio.run(scenario())


def test_cancelled_flush_still_counts_the_groups_it_served(monkeypatch):
    """Cancelling a flush mid-tick must not lose the count (or the audit
    event) of the jobs it already resolved.  Only awaited shard jobs can
    be cancelled part-way: a gateway-local tick never yields."""

    async def scenario():
        server = make_server(
            config=ServerConfig(
                inline_compiles=True, serving_shards=2, inline_serving=True
            )
        )
        for name, text in (("a", "x <= 99"), ("b", "y <= 99")):
            await server.register_query(CompileRequest(name, text, SPEC))
        pool = server.serving_pool
        by_shard: dict[int, str] = {}
        for i in range(64):
            by_shard.setdefault(pool.shard_for(f"u{i}"), f"u{i}")
        first_user, second_user = by_shard[0], by_shard[1]
        for sid in (first_user, second_user):
            server.open_session(sid, (SPEC, (10, 10)))
        real_submit = pool.submit

        def stalling(shard, ops):
            if shard == 1:
                return concurrent.futures.Future()  # never answers
            return real_submit(shard, ops)

        monkeypatch.setattr(pool, "submit", stalling)
        first = asyncio.ensure_future(server.downgrade(first_user, "a"))
        second = asyncio.ensure_future(server.downgrade(second_user, "b"))
        await asyncio.sleep(0)  # both enqueue; the auto-flush is created
        flush = server._flush_task
        assert (await first).authorized
        flush.cancel()  # the flush now awaits shard 1's job
        with pytest.raises(asyncio.CancelledError):
            await flush
        assert second.cancelled()
        assert server.stats.downgrades_served == 1
        batches = [e.data for e in server.service.audit if e.kind == "batch"]
        assert batches == [{"query_name": "a", "sessions": 1, "authorized": 1}]
        server.shutdown()

    asyncio.run(scenario())


def test_flush_cancelled_before_the_lock_does_not_stall_later_downgrades():
    """A flush task cancelled while it waits for the flush lock is done;
    the next arrival must schedule a fresh one, not wait on the corpse."""

    async def scenario():
        server = make_server()
        await server.register_query(CompileRequest("q", "x <= 50", SPEC))
        server.open_session("u", (SPEC, (10, 10)))
        await server._flush_lock.acquire()
        first = asyncio.ensure_future(server.downgrade("u", "q"))
        await asyncio.sleep(0)  # first enqueues and schedules a flush
        await asyncio.sleep(0)  # the flush now waits on the lock
        stuck = server._flush_task
        stuck.cancel()
        server._flush_lock.release()
        with pytest.raises(asyncio.CancelledError):
            await stuck
        later = await asyncio.wait_for(server.downgrade("u", "q"), timeout=5)
        assert later.authorized
        assert (await asyncio.wait_for(first, timeout=5)).authorized
        server.shutdown()

    asyncio.run(scenario())


def test_same_user_sessions_in_one_tick_commit_in_rounds():
    """Two sessions of one user in one tick must not corrupt the ledger:
    the second is admitted against the bound the first produced (and is
    cleanly refused when that bound no longer affords the query)."""

    async def scenario():
        server = make_server(budget_floor=size_above(15_000))
        await server.register_query(CompileRequest("west", "x <= 99", SPEC))
        # Same user, contradictory secrets: the answers disagree, so a
        # naive preauthorize-all-then-commit-all would intersect both
        # sides and crash mid-tick with LedgerInvariantError.
        server.open_session("a", (SPEC, (10, 10)), user_id="alice")
        server.open_session("b", (SPEC, (150, 150)), user_id="alice")
        await server.start()
        ra, rb = await asyncio.gather(
            server.downgrade("a", "west"), server.downgrade("b", "west")
        )
        await server.stop()
        # Exactly one was answered; the other was refused by the budget
        # (its posterior against the first answer's bound is empty).
        assert sorted([ra.authorized, rb.authorized]) == [False, True]
        refused = ra if not ra.authorized else rb
        assert "budget exhausted" in refused.reason
        # The ledger bound reflects only the answered query.
        assert server.ledger.remaining("alice", SPEC) == 20_000
        assert len(server.ledger.account("alice").charges) == 1
        server.shutdown()

    asyncio.run(scenario())


def test_kill_and_restart_preserves_the_budget_ledger(tmp_path):
    """Budget continuity across a restart: a near-floor user reconnecting
    to a rebooted server gets the *same* refusal the killed server gave —
    zero recompiles, no ledger reset."""
    path = tmp_path / "state.db"
    budget_queries = (
        ("west", "x <= 99"),  # 40_000 -> 20_000
        ("south", "y <= 99"),  # -> 10_000
        ("inner", "x <= 49"),  # -> 5_000; floor 4_000: next halving refused
    )

    async def boot_and_probe(store, session_id, *, spend_budget):
        server = make_server(store=store, budget_floor=size_above(4000))
        for name, text in budget_queries:
            await server.register_query(CompileRequest(name, text, SPEC))
        server.open_session(session_id, (SPEC, (30, 40)), user_id="alice")
        if spend_budget:
            for name, _text in budget_queries:
                result = await server.downgrade(session_id, name)
                assert result.authorized
        refused = await server.downgrade(session_id, "west")
        server.shutdown()
        return server, refused

    with SQLiteStore(path) as store:
        server1, refused1 = asyncio.run(
            boot_and_probe(store, "s1", spend_budget=True)
        )
        assert not refused1.authorized
        assert "budget exhausted" in refused1.reason
        assert server1.ledger.remaining("alice", SPEC) == 5000
        assert store.ledger_bound_count() == 1

    # Kill.  Restart on the same store: the mirror reloads alice's bounds
    # before any request, so the budget picks up exactly where it stopped.
    with SQLiteStore(path) as store:
        server2, refused2 = asyncio.run(
            boot_and_probe(store, "s2", spend_budget=False)
        )
        assert server2.pool.total_submitted() == 0  # zero recompiles
        assert server2.ledger.remaining("alice", SPEC) == 5000  # no reset
        # The refusal verdict is identical to the pre-kill one.
        assert not refused2.authorized
        assert refused2.reason == refused1.reason
        assert refused2.knowledge_size == refused1.knowledge_size == 5000
        # And a brand-new user still has the full space.
        assert server2.ledger.remaining("someone-else", SPEC) == 40_000


# ---------------------------------------------------------------------------
# Shard-serving mode: the warm path runs on serving-shard processes
# ---------------------------------------------------------------------------


def test_shard_serving_matches_gateway_local_serving():
    """Same workload, both serving modes: identical verdicts and responses."""

    async def run_mode(config):
        server = make_server(config=config)
        for name, text in QUERIES.items():
            await server.register_query(CompileRequest(name, text, SPEC))
        secrets = {f"u{i}": (i * 37 % 200, i * 53 % 200) for i in range(12)}
        for sid, value in secrets.items():
            server.open_session(sid, (SPEC, value), user_id=f"user-{sid}")
        results = await asyncio.gather(
            *(server.downgrade(sid, "east") for sid in secrets),
            *(server.downgrade(sid, "north") for sid in secrets),
        )
        server.shutdown()
        return {(r.session_id, r.query_name): (r.authorized, r.response) for r in results}

    local = asyncio.run(run_mode(INLINE))
    sharded = asyncio.run(run_mode(SHARDED))
    assert local == sharded
    assert len(sharded) == 24


def test_shard_serving_enforces_the_budget_with_a_durable_mirror():
    async def scenario():
        store = SQLiteStore(":memory:")
        server = make_server(
            store=store, budget_floor=size_above(4000), config=SHARDED
        )
        for name, text in (
            ("west", "x <= 99"),
            ("south", "y <= 99"),
            ("inner", "x <= 49"),
        ):
            await server.register_query(CompileRequest(name, text, SPEC))
        server.open_session("s1", (SPEC, (30, 40)), user_id="alice")
        for name in ("west", "south", "inner"):
            assert (await server.downgrade("s1", name)).authorized
        # The shard's commits flowed back as deltas: the gateway mirror
        # and the store already hold the spent budget.
        assert server.ledger.remaining("alice", SPEC) == 5000
        assert store.ledger_bound_count() == 1
        # Reconnect on a fresh session: the budget did not reset.
        server.close_session("s1")
        server.open_session("s2", (SPEC, (30, 40)), user_id="alice")
        refused = await server.downgrade("s2", "west")
        assert not refused.authorized
        assert "budget exhausted" in refused.reason
        assert server.stats.budget_refusals == 1
        server.shutdown()
        store.close()

    asyncio.run(scenario())


def test_shard_serving_same_user_sessions_commit_in_rounds():
    """The round-per-user discipline holds inside a shard too (both
    sessions of one user route to the same shard by construction)."""

    async def scenario():
        server = make_server(budget_floor=size_above(15_000), config=SHARDED)
        await server.register_query(CompileRequest("west", "x <= 99", SPEC))
        server.open_session("a", (SPEC, (10, 10)), user_id="alice")
        server.open_session("b", (SPEC, (150, 150)), user_id="alice")
        ra, rb = await asyncio.gather(
            server.downgrade("a", "west"), server.downgrade("b", "west")
        )
        assert sorted([ra.authorized, rb.authorized]) == [False, True]
        refused = ra if not ra.authorized else rb
        assert "budget exhausted" in refused.reason
        assert server.ledger.remaining("alice", SPEC) == 20_000
        server.shutdown()

    asyncio.run(scenario())


def test_shard_serving_restart_preserves_budget(tmp_path):
    """Budget continuity in shard mode: the mirror snapshot shipped at
    open_session restores enforcement on a fresh shard process."""
    path = tmp_path / "sharded.db"

    async def boot(store, session_id, *, spend):
        server = make_server(
            store=store, budget_floor=size_above(4000), config=SHARDED
        )
        for name, text in (
            ("west", "x <= 99"),
            ("south", "y <= 99"),
            ("inner", "x <= 49"),
        ):
            await server.register_query(CompileRequest(name, text, SPEC))
        server.open_session(session_id, (SPEC, (30, 40)), user_id="alice")
        if spend:
            for name in ("west", "south", "inner"):
                assert (await server.downgrade(session_id, name)).authorized
        refused = await server.downgrade(session_id, "west")
        server.shutdown()
        return refused

    with SQLiteStore(path) as store:
        refused1 = asyncio.run(boot(store, "s1", spend=True))
        assert not refused1.authorized
    with SQLiteStore(path) as store:
        refused2 = asyncio.run(boot(store, "s2", spend=False))
        assert not refused2.authorized
        assert refused2.reason == refused1.reason
        assert refused2.knowledge_size == refused1.knowledge_size == 5000


def test_shard_serving_unknown_session_and_query_are_refusals():
    async def scenario():
        server = make_server(config=SHARDED)
        await server.register_query(CompileRequest("q", "x <= 50", SPEC))
        ghost = await server.downgrade("nobody", "q")
        assert not ghost.authorized and "no open session" in ghost.reason
        server.open_session("u", (SPEC, (10, 10)))
        unknown = await server.downgrade("u", "never_compiled")
        assert not unknown.authorized
        assert "Can't downgrade" in unknown.reason
        server.shutdown()

    asyncio.run(scenario())


def test_shard_serving_epoch_decay_regrows_budget():
    from repro.server.ledger import DecayPolicy

    async def scenario():
        small = SecretSpec.declare("GwSmall", x=(0, 15), y=(0, 15))
        server = make_server(
            budget_floor=size_above(100),
            budget_decay=DecayPolicy(radius=2),
            config=SHARDED,
        )
        await server.register_query(CompileRequest("half", "x <= 7", small))
        await server.register_query(CompileRequest("most", "x <= 6", small))
        server.open_session("s", (small, (3, 3)), user_id="alice")
        assert (await server.downgrade("s", "half")).authorized
        # A reconnect resets session knowledge but not the ledger: the
        # budget still refuses the tighter query.
        server.close_session("s")
        server.open_session("s2", (small, (3, 3)), user_id="alice")
        refused = await server.downgrade("s2", "most")
        assert not refused.authorized
        assert "budget exhausted" in refused.reason
        # Decay: the mirror advances now; the shard applies the queued
        # epoch op before its next batch.  After the bound re-widens, a
        # fresh session of the same user is served again.
        assert server.advance_epoch(3) == 3
        assert server.ledger.remaining("alice", small) > 128
        server.close_session("s2")
        server.open_session("s3", (small, (3, 3)), user_id="alice")
        assert (await server.downgrade("s3", "most")).authorized
        server.shutdown()

    asyncio.run(scenario())


def test_shard_serving_requires_encodable_policies():
    with pytest.raises(ValueError, match="encoding"):
        from repro.monad.policy import QuantitativePolicy

        DeclassificationServer(
            QuantitativePolicy("opaque", lambda dom: True),
            options=OPTIONS,
            config=SHARDED,
        )


def test_contains_promotes_store_writes_from_other_processes(tmp_path):
    """An artifact another process persisted after this server booted is
    served as a cache hit, not recompiled."""
    path = tmp_path / "shared.db"

    async def scenario():
        with SQLiteStore(path) as store:
            server = make_server(store=store)  # preloads an empty store
            # "Another process" compiles the query and writes it through.
            from repro.core.plugin import compile_query
            from repro.service.serialize import compiled_query_to_json

            compiled = compile_query("elsewhere", "x <= 123", SPEC, OPTIONS)
            key = server.cache.key_for(compiled.qinfo.query, SPEC, OPTIONS)
            store.put(key, compiled_query_to_json(compiled))

            receipt = await server.register_query(
                CompileRequest("local", "x <= 123", SPEC)
            )
            assert receipt.cache_hit
            assert server.pool.total_submitted() == 0
            server.shutdown()

    asyncio.run(scenario())
