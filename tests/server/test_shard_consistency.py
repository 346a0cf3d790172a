"""Serving shards hold the mirror's bounds; each journal write holds its own job's.

A serving shard enforces the budget floor on its own copy of its users'
bounds, and the gateway's durable mirror ledger folds what the shard
commits.  Every scenario here runs journaled inline serving shards next
to a gateway-local control on the same requests, and two invariants are
checked throughout:

* after every flush, each shard's ledger bound equals the mirror's for
  every user the shard holds (when the gateway vouches for the shard);
* every journal write carries exactly the bounds of the users its own
  downgrade rows charged (an epoch's write, which dilates every user,
  aside).

``CHAOS_SEED`` draws the secrets wherever the scenario allows it.
"""

import asyncio
import json
import os
import random
import sqlite3
from concurrent.futures import Future

from repro.core.plugin import CompileOptions
from repro.lang.secrets import SecretSpec
from repro.monad.policy import size_above
from repro.server import workers
from repro.server.gateway import DeclassificationServer, ServerConfig
from repro.server.journal import RequestJournal
from repro.server.ledger import DecayPolicy
from repro.server.store import SQLiteStore
from repro.server.workers import serve_shard_of
from repro.service.api import CompileRequest

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "20220622"))

SPEC = SecretSpec.declare("ConsLoc", x=(0, 199), y=(0, 199))
OPTIONS = CompileOptions(domain="interval", modes=("under", "over"))
SHARDED = ServerConfig(inline_compiles=True, serving_shards=2, inline_serving=True)
LOCAL = ServerConfig(inline_compiles=True)
QUERIES = {
    "west": "x <= 99",
    "south": "y <= 99",
    "north": "y >= 100",
    "east": "x >= 100",
    "east145": "x >= 145",
    "inner": "x <= 49",
}


def secret(rng: random.Random, x=(0, 199), y=(0, 199)) -> tuple[int, int]:
    return rng.randint(*x), rng.randint(*y)


def user_on(shard: int) -> str:
    """A user id that routes to *shard* of two."""
    return next(
        f"user{i}" for i in range(100) if serve_shard_of(f"user{i}", 2) == shard
    )


class Watched:
    """A journaled server whose writes and flushes are checked as they happen.

    A flush runs as its own task, so a failed check is kept in
    ``violations`` and raised by :meth:`close`.
    """

    def __init__(self, path, config, floor, *, decay=None, fail_write=None):
        self.store = SQLiteStore(path)
        self.server = DeclassificationServer(
            size_above(100),
            budget_floor=floor,
            budget_decay=decay,
            store=self.store,
            options=OPTIONS,
            config=config,
            journal=RequestJournal(self.store),
        )
        #: Session id -> user id, for every session the test opens.
        self.users: dict[str, str] = {}
        #: Downgrade writes seen; the one numbered *fail_write* fails.
        self.downgrade_writes = 0
        self.fail_write = fail_write
        self.failed_keys: list[str] = []
        self.violations: list[Exception] = []
        write = self.store.journal_write

        def journal_write(rows, bounds=()):
            bounds = list(bounds)
            self.checked(self.check_write, rows, bounds)
            if any(row[2] == "downgrade" for row in rows):
                self.downgrade_writes += 1
                if self.downgrade_writes == self.fail_write:
                    self.failed_keys = [row[1] for row in rows]
                    raise sqlite3.OperationalError("disk I/O error")
            return write(rows, bounds)

        self.store.journal_write = journal_write
        flush = self.server.flush

        async def checked_flush():
            served = await flush()
            self.checked(assert_shards_hold_the_mirror, self.server)
            return served

        self.server.flush = checked_flush

    def checked(self, check, *args) -> None:
        try:
            check(*args)
        except Exception as exc:
            self.violations.append(exc)

    def check_write(self, rows, bounds) -> None:
        if any(row[2] == "advance_epoch" for row in rows):
            return  # an epoch dilates every user's bound
        charged = {
            self.users[json.loads(row[3])["session_id"]]
            for row in rows
            if row[2] == "downgrade" and json.loads(row[5])["authorized"]
        }
        assert {user for user, _spec, _payload in bounds} == charged

    def open(self, session_id: str, user: str, value) -> None:
        self.users[session_id] = user
        self.server.open_session(session_id, (SPEC, value), user_id=user)

    async def register(self, *names: str) -> None:
        for name in names:
            await self.server.register_query(CompileRequest(name, QUERIES[name], SPEC))

    def remaining(self, user: str) -> int:
        return self.server.ledger.remaining(user, SPEC)

    def close(self) -> None:
        self.server.shutdown()
        self.store.close()
        if self.violations:
            raise self.violations[0]


def shard_ledger(server, user: str):
    """The ledger of the inline shard that owns *user*."""
    pool = server.serving_pool
    return workers._SERVING_STATE[f"{pool._pool_id}/{pool.shard_for(user)}"].ledger


def bound(ledger, user: str) -> dict:
    payload = ledger.export_bound(user, SPEC)
    return {key: payload[key] for key in ("sound", "complete")}


def assert_shards_hold_the_mirror(server) -> None:
    """Each shard the gateway vouches for holds the mirror's bound for
    every user in its ledger."""
    if server.serving_pool is None:
        return
    pool = server.serving_pool
    for shard in server._shard_views:
        ledger = workers._SERVING_STATE[f"{pool._pool_id}/{shard}"].ledger
        for user in ledger.users():
            assert bound(ledger, user) == bound(server.ledger, user), (shard, user)


def both(scenario, tmp_path):
    """Run *scenario* on inline shards and on the gateway-local control."""
    sharded = asyncio.run(scenario(SHARDED, tmp_path / "sharded.db"))
    local = asyncio.run(scenario(LOCAL, tmp_path / "local.db"))
    return sharded, local


def test_restart_open_epoch_does_not_dilate_the_reopened_bound_twice(tmp_path):
    """A successor on a file store reopens a session, an epoch runs, then
    the shard serves: the shard starts from the dilated mirror bound and
    applies no second dilation, so the floor refuses ``x >= 145``."""
    rng = random.Random(CHAOS_SEED)
    # x >= 145 keeps the answer on the charged side of east145.
    value = secret(rng, x=(145, 199))
    floor, decay = size_above(6300), DecayPolicy(radius=10)

    async def scenario(config, path):
        first = Watched(path, config, floor, decay=decay)
        await first.register("north", "east145")
        first.open("s1", "alice", value)
        assert (await first.server.downgrade("s1", "north")).authorized
        first.close()

        second = Watched(path, config, floor, decay=decay)
        await second.register("north", "east145")
        second.open("s2", "alice", value)
        second.server.advance_epoch(1)
        result = await second.server.downgrade("s2", "east145")
        remaining = second.remaining("alice")
        second.close()
        return (result.authorized, result.reason), remaining

    sharded, local = both(scenario, tmp_path)
    assert not local[0][0] and "budget exhausted" in local[0][1]
    assert local[1] == 22_000  # 200 x 110 cells after one dilation
    assert sharded == local


def test_each_shard_job_writes_its_own_bounds(tmp_path):
    """One tick over two shards writes one transaction per job, each with
    only its own users' bounds: when the second write fails, the
    successor holds no charge for that request, and its retry runs."""
    rng = random.Random(CHAOS_SEED)
    users = {"a": user_on(0), "b": user_on(1)}
    values = {"a": secret(rng), "b": secret(rng)}
    floor = size_above(4000)

    async def scenario(config, path):
        first = Watched(path, config, floor, fail_write=2)
        await first.register("west", "south")
        for sid, user in users.items():
            first.open(sid, user, values[sid])
        keys = {"a": ("west", "ka"), "b": ("south", "kb")}
        outcomes = await asyncio.gather(
            *(
                first.server.downgrade(sid, query, idempotency_key=key)
                for sid, (query, key) in keys.items()
            ),
            return_exceptions=True,
        )
        assert first.server.stats.ticks == 1
        assert first.downgrade_writes == 2
        failed = [
            sid for sid, outcome in zip(keys, outcomes) if isinstance(outcome, Exception)
        ]
        assert [keys[sid][1] for sid in failed] == first.failed_keys
        first.close()

        successor = Watched(path, config, floor)
        successor.users.update(users)
        await successor.server.recover_from_journal()
        retried = {}
        for sid in failed:
            query, key = keys[sid]
            result = await successor.server.downgrade(sid, query, idempotency_key=key)
            retried[sid] = (result.authorized, result.reason)
        remaining = {user: successor.remaining(user) for user in users.values()}
        successor.close()
        return retried, remaining

    sharded, local = both(scenario, tmp_path)
    assert len(local[0]) == 1 and all(ok for ok, _reason in local[0].values())
    assert set(local[1].values()) == {20_000}
    assert sharded == local


def test_half_open_probe_starts_from_the_degraded_commits(tmp_path):
    """A degraded batch commits on the gateway core while the shard keeps
    its old copy of the user; the half-open probe must not serve from
    that copy."""
    rng = random.Random(CHAOS_SEED)
    value = secret(rng)
    floor = size_above(12000)

    async def scenario(config, path):
        watched = Watched(path, config, floor)
        server = watched.server
        await watched.register("inner", "north", "east")
        watched.open("s1", "alice", value)
        answers = []
        # Refused by the floor (10,000 cells on one side): nothing is
        # charged, but the shard now holds alice.
        answers.append(await server.downgrade("s1", "inner"))
        breaker = None
        if server.serving_pool is not None:
            shard = server.serving_pool.shard_for("alice")
            breaker = server.supervisor.breaker("serving", shard)
            breaker.trip(cooldown=3600.0)
        answers.append(await server.downgrade("s1", "north"))
        if breaker is not None:
            breaker.trip(cooldown=0.0)  # the next attempt is the probe
            assert breaker.state() == "half_open"
        answers.append(await server.downgrade("s1", "east"))
        if breaker is not None:
            assert server.stats.degraded_batches == 1
            assert breaker.state() == "closed"
        remaining = watched.remaining("alice")
        watched.close()
        return [(r.authorized, r.reason) for r in answers], remaining

    sharded, local = both(scenario, tmp_path)
    assert [ok for ok, _reason in local[0]] == [False, True, False]
    assert "budget exhausted" in local[0][2][1]
    assert local[1] == 20_000
    assert sharded == local


def test_epoch_during_a_shard_job_leaves_the_shard_at_the_mirror(tmp_path):
    """An epoch runs while a shard job is awaited.  The shard committed
    from the undilated prior, so the gateway forgets what it holds and
    the next job re-ships the mirror's bound instead of dilating the
    shard's copy on top of it."""
    rng = random.Random(CHAOS_SEED)
    value = secret(rng)
    floor, decay = size_above(4000), DecayPolicy(radius=10)

    async def sharded_run(path):
        watched = Watched(path, SHARDED, floor, decay=decay)
        server = watched.server
        await watched.register("north")
        watched.open("s1", "alice", value)
        pool = server.serving_pool
        submit = pool.submit
        held: list[tuple[Future, Future]] = []

        def held_submit(shard, ops):
            done, waiting = submit(shard, ops), Future()
            held.append((done, waiting))
            return waiting

        pool.submit = held_submit
        job = asyncio.ensure_future(server.downgrade("s1", "north"))
        while not held:
            await asyncio.sleep(0)
        server.advance_epoch(1)
        done, waiting = held.pop()
        waiting.set_result(done.result())
        assert (await job).authorized
        del pool.submit
        mirror_after_job = watched.remaining("alice")
        # The next job: re-asking north is refused either way.
        again = await server.downgrade("s1", "north")
        shard_bound = shard_ledger(server, "alice").remaining("alice", SPEC)
        remaining = watched.remaining("alice")
        watched.close()
        return mirror_after_job, again.authorized, shard_bound, remaining

    async def local_run(path):
        watched = Watched(path, LOCAL, floor, decay=decay)
        await watched.register("north")
        watched.open("s1", "alice", value)
        assert (await watched.server.downgrade("s1", "north")).authorized
        watched.server.advance_epoch(1)
        again = await watched.server.downgrade("s1", "north")
        remaining = watched.remaining("alice")
        watched.close()
        return again.authorized, remaining

    mirror_after_job, again, shard_bound, remaining = asyncio.run(
        sharded_run(tmp_path / "sharded.db")
    )
    local_again, local_remaining = asyncio.run(local_run(tmp_path / "local.db"))
    assert mirror_after_job == 20_000
    assert again is local_again is False
    assert shard_bound == remaining == 20_000
    # The mirror misses the one dilation that ran mid-job: it sits on the
    # refusing side of the gateway-local control.
    assert local_remaining == 22_000
    assert remaining <= local_remaining
