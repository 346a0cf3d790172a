"""Worker tier: compile-shard routing/codec/admission, serving shards."""

import json
from concurrent.futures import Future

import pytest

from repro.core.plugin import CompileOptions, compile_query
from repro.lang.canonical import spec_to_json
from repro.lang.parser import parse_bool
from repro.lang.secrets import SecretSpec
from repro.server import faults
from repro.server.supervise import CodecError, ShardCrash
from repro.server.workers import (
    ServingShardPool,
    ShardOverloaded,
    ShardedCompilePool,
    compile_payload,
    rounds_by_user,
    serve_shard_of,
    shard_of,
)
from repro.service.serialize import compiled_query_to_json, policy_to_json


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    faults.clear_fault_plan()
    yield
    faults.clear_fault_plan()

SPEC = SecretSpec.declare("UserLoc", x=(0, 99), y=(0, 99))
OPTIONS = CompileOptions(domain="interval", modes=("under", "over"))
QUERY = "abs(x - 50) + abs(y - 50) <= 30"
#: The same query as another tenant writes it (commuted ``+``).
QUERY_REORDERED = "abs(y - 50) + abs(x - 50) <= 30"


def test_alpha_equivalent_queries_route_to_same_shard():
    a, b = parse_bool(QUERY), parse_bool(QUERY_REORDERED)
    for shards in (2, 3, 7):
        assert shard_of(a, shards) == shard_of(b, shards)
    pool = ShardedCompilePool(4, inline=True)
    assert pool.shard_for(QUERY) == pool.shard_for(QUERY_REORDERED)


def test_routing_is_stable_and_in_range():
    queries = [f"x <= {t}" for t in range(20)]
    pool = ShardedCompilePool(4, inline=True)
    shards = [pool.shard_for(q) for q in queries]
    assert shards == [pool.shard_for(q) for q in queries]
    assert all(0 <= s < 4 for s in shards)
    # The hash spreads work: 20 distinct queries never pile onto one shard.
    assert len(set(shards)) > 1


def test_inline_compile_matches_local_compile():
    pool = ShardedCompilePool(2, inline=True)
    future = pool.submit("q", QUERY, SPEC, OPTIONS)
    compiled, provenance = pool.decode(future.result())
    local = compile_query("q", QUERY, SPEC, OPTIONS)
    assert compiled.name == "q"
    assert compiled.qinfo.under_indset == local.qinfo.under_indset
    assert compiled.qinfo.over_indset == local.qinfo.over_indset
    assert all(report.verified for report in compiled.reports.values())
    assert provenance["shard_cache_hit"] is False
    assert pool.total_submitted() == 1


def test_shard_local_cache_skips_resynthesis():
    pool = ShardedCompilePool(1, inline=True)
    first = pool.submit("a", QUERY, SPEC, OPTIONS).result()
    second = pool.submit("b", QUERY_REORDERED, SPEC, OPTIONS).result()
    _, prov1 = pool.decode(first)
    _, prov2 = pool.decode(second)
    compiled_b, _ = pool.decode(second)
    assert prov2["shard_cache_hit"] is True or prov1["shard_cache_hit"] is True
    assert compiled_b.name == "b"


def test_admission_control_sheds_at_bound():
    pool = ShardedCompilePool(1, max_pending=2, inline=True)
    # Hold reservations open the way in-flight process jobs would.
    pool._reserve(0)
    pool._reserve(0)
    with pytest.raises(ShardOverloaded):
        pool.submit("q", QUERY, SPEC, OPTIONS)
    assert pool.total_shed() == 1
    pool._release(0)
    # One slot free again: the job is admitted.
    future = pool.submit("q", QUERY, SPEC, OPTIONS)
    compiled, _ = pool.decode(future.result())
    assert compiled.name == "q"
    pool._release(0)


def test_invalid_construction():
    with pytest.raises(ValueError):
        ShardedCompilePool(0)
    with pytest.raises(ValueError):
        ShardedCompilePool(1, max_pending=0)


class _FakeExecutor:
    """Stands in for a shard's ProcessPoolExecutor in failure tests."""

    def __init__(self, broken: bool = True):
        self.broken = broken

    def submit(self, fn, payload):
        if self.broken:
            raise RuntimeError("executor is broken")
        future: Future = Future()
        future.set_result(fn(payload))
        return future

    def shutdown(self, wait=True):
        pass


def test_submit_failure_releases_admission_slot():
    """Regression: a broken executor must not eat the shard's capacity.

    Before the fix, every failed submit leaked its reserved slot, so
    ``max_pending`` failures bricked the shard into shedding everything.
    """
    pool = ShardedCompilePool(1, max_pending=4)
    fake = _FakeExecutor(broken=True)
    pool._executors[0] = fake
    for _ in range(5):
        with pytest.raises(RuntimeError, match="executor is broken"):
            pool.submit("q", QUERY, SPEC, OPTIONS)
    stats = pool.stats()[0]
    # Slots were returned each time: nothing shed, nothing still pending.
    assert stats.pending == 0
    assert stats.failed == 5
    assert stats.shed == 0 and pool.total_shed() == 0
    assert stats.submitted == 5
    # The shard still admits once the executor works again.
    fake.broken = False
    compiled, _ = pool.decode(pool.submit("q", QUERY, SPEC, OPTIONS).result())
    assert compiled.name == "q"
    assert pool.stats()[0].pending == 0


def test_inline_crash_fault_surfaces_as_typed_shard_crash():
    pool = ShardedCompilePool(1, inline=True)
    pool.fault_plan = faults.FaultPlan(
        [faults.FaultSpec(site="compile", kind="crash_before_result")]
    )
    future = pool.submit("q", QUERY, SPEC, OPTIONS)
    failure = future.exception()
    assert isinstance(failure, ShardCrash)
    assert failure.shard == pool.shard_for(QUERY) and failure.site == "compile"
    # The fault budget is spent: the retry succeeds.
    compiled, _ = pool.decode(pool.submit("q", QUERY, SPEC, OPTIONS).result())
    assert compiled.name == "q"
    assert pool.stats()[failure.shard].pending == 0


def test_undecodable_results_raise_codec_error():
    with pytest.raises(CodecError, match="undecodable compile"):
        ShardedCompilePool.decode("\x00corrupt")
    with pytest.raises(CodecError, match="undecodable compile"):
        ShardedCompilePool.decode(json.dumps({"artifact": None}))
    with pytest.raises(CodecError, match="undecodable serving"):
        ServingShardPool.decode("{half a json")
    with pytest.raises(CodecError, match="undecodable serving"):
        ServingShardPool.decode(json.dumps({"results": []}))


def test_clean_payload_skips_fault_fragment():
    pool = ShardedCompilePool(1, inline=True)
    pool.fault_plan = faults.FaultPlan(
        [faults.FaultSpec(site="compile", kind="crash_before_result")]
    )
    armed = json.loads(pool.payload_for("q", QUERY, SPEC, OPTIONS))
    clean = json.loads(
        pool.payload_for("q", QUERY, SPEC, OPTIONS, with_faults=False)
    )
    assert "faults" in armed and "faults" not in clean
    # The degraded path runs clean payloads: no crash, real artifact.
    compiled, _ = pool.decode(compile_payload(json.dumps(clean)))
    assert compiled.name == "q"


def test_process_pool_compiles_and_shuts_down():
    """The real process path: fork, compile remotely, decode, tear down."""
    with ShardedCompilePool(2) as pool:
        futures = [
            pool.submit(f"q{t}", f"x <= {t}", SPEC, OPTIONS) for t in (10, 60)
        ]
        for t, future in zip((10, 60), futures):
            compiled, provenance = pool.decode(future.result(timeout=60))
            local = compile_query(f"q{t}", f"x <= {t}", SPEC, OPTIONS)
            assert compiled.qinfo.under_indset == local.qinfo.under_indset
            assert isinstance(provenance["pid"], int)
    assert pool.total_submitted() == 2


# ---------------------------------------------------------------------------
# Serving shards
# ---------------------------------------------------------------------------


def test_serve_shard_routing_is_stable_by_user_and_in_range():
    users = [f"user-{i}" for i in range(50)]
    for shards in (1, 2, 5):
        routed = [serve_shard_of(u, shards) for u in users]
        assert routed == [serve_shard_of(u, shards) for u in users]
        assert all(0 <= s < shards for s in routed)
    # SHA-256 spreads distinct users across shards.
    assert len({serve_shard_of(u, 5) for u in users}) > 1
    pool = ServingShardPool(5, inline=True)
    assert pool.shard_for("alice") == serve_shard_of("alice", 5)


def test_rounds_by_user_never_repeats_a_user_per_round():
    users = {"a1": "alice", "a2": "alice", "a3": "alice", "b1": "bob"}
    rounds = rounds_by_user(["a1", "b1", "a2", "a3"], users)
    assert rounds == [["a1", "b1"], ["a2"], ["a3"]]
    for round_ids in rounds:
        owners = [users.get(sid, sid) for sid in round_ids]
        assert len(owners) == len(set(owners))
    # Unmapped sessions fall back to their own id as the user.
    assert rounds_by_user(["x", "y"], {}) == [["x", "y"]]


def _serving_ops(policy_floor=None):
    """A canonical op sequence: configure, attach, open two sessions."""
    small = SecretSpec.declare("WkSmall", x=(0, 15), y=(0, 15))
    from repro.monad.policy import size_above

    compiled = compile_query(
        "half", "x <= 7", small, CompileOptions(domain="interval")
    )
    ops = [
        {
            "op": "configure",
            "policy": policy_to_json(size_above(0)),
            "floor": (
                None if policy_floor is None else policy_to_json(policy_floor)
            ),
            "decay": None,
            "mode": "under",
            "check_both": True,
        },
        {
            "op": "attach_query",
            "name": "half",
            "artifact": compiled_query_to_json(compiled),
        },
        {
            "op": "open_session",
            "session_id": "s1",
            "user_id": "alice",
            "spec": spec_to_json(small),
            "value": [3, 3],
            "bounds": None,
        },
        {
            "op": "open_session",
            "session_id": "s2",
            "user_id": "bob",
            "spec": spec_to_json(small),
            "value": [12, 3],
            "bounds": None,
        },
        {
            "op": "downgrade_batch",
            "query_name": "half",
            "session_ids": ["s1", "s2", "ghost"],
        },
    ]
    return ops


def test_inline_serving_pool_round_trips_results_and_deltas():
    from repro.monad.policy import size_above

    with ServingShardPool(2, inline=True) as pool:
        response = ServingShardPool.decode(
            pool.submit(0, _serving_ops(policy_floor=size_above(100))).result()
        )
    results = {r.session_id: r for r in response["results"]}
    assert results["s1"].authorized and results["s1"].response is True
    assert results["s2"].authorized and results["s2"].response is False
    assert not results["ghost"].authorized
    assert "no open session" in results["ghost"].reason
    # One delta per committed (user, spec); payloads are versioned JSON.
    deltas = {d["user_id"]: d["payload"] for d in response["deltas"]}
    assert set(deltas) == {"alice", "bob"}
    assert all(p["version"] == 1 for p in deltas.values())
    assert response["budget_refusals"] == 0


def test_serving_response_ships_each_distinct_bound_once():
    """Users whose commits landed on the same bound share one payload on
    the wire; decoding hands every delta that payload as one object."""
    from repro.monad.policy import size_above

    ops = _serving_ops(policy_floor=size_above(100))
    batch = ops.pop()
    secrets = {"carol": [1, 9], "dave": [5, 0], "erin": [14, 14]}
    for index, (user, value) in enumerate(secrets.items()):
        opened = dict(ops[2], session_id=f"t{index}", user_id=user, value=value)
        ops.append(opened)
    ops.append(dict(batch, session_ids=["s1", "s2", "t0", "t1", "t2"]))
    with ServingShardPool(1, inline=True) as pool:
        raw = pool.submit(0, ops).result()
    wire = json.loads(raw)
    # Five users, two answers of ``x <= 7``: two distinct bounds.
    assert len(wire["deltas"]) == 5
    assert len(wire["bounds"]) == 2
    response = ServingShardPool.decode(raw)
    payloads = {d["user_id"]: d["payload"] for d in response["deltas"]}
    assert payloads["alice"] is payloads["carol"] is payloads["dave"]
    assert payloads["bob"] is payloads["erin"]
    assert payloads["alice"] != payloads["bob"]


def test_serving_decode_rejects_a_dangling_bound_index():
    wire = {
        "results": [],
        "bounds": [],
        "deltas": [["alice", "WkSmall", 0]],
        "budget_refusals": 0,
        "pid": 1,
    }
    with pytest.raises(CodecError, match="undecodable"):
        ServingShardPool.decode(json.dumps(wire))


def test_inline_pools_do_not_share_state():
    """Two inline pools in one process must not see each other's shards."""
    from repro.monad.policy import size_above

    floor = size_above(100)
    with ServingShardPool(1, inline=True) as pool_a:
        pool_a.submit(0, _serving_ops(policy_floor=floor)).result()
        with ServingShardPool(1, inline=True) as pool_b:
            # Same shard index, fresh pool: opening "s1" again must not
            # collide with pool_a's already-open "s1".
            response = ServingShardPool.decode(
                pool_b.submit(0, _serving_ops(policy_floor=floor)).result()
            )
    assert all(
        r.authorized for r in response["results"] if r.session_id != "ghost"
    )


def test_unknown_op_is_an_error():
    from repro.monad.policy import size_above

    with ServingShardPool(1, inline=True) as pool:
        ops = _serving_ops(policy_floor=size_above(0))[:1]
        ops.append({"op": "frobnicate"})
        with pytest.raises(ValueError, match="frobnicate"):
            pool.submit(0, ops).result()


def test_serving_process_pool_serves_and_shuts_down():
    """The real process path: ops execute in a shard process, results and
    deltas decode on this side, and provenance proves the hop."""
    import os

    from repro.monad.policy import size_above

    with ServingShardPool(1) as pool:
        raw = pool.submit(0, _serving_ops(policy_floor=size_above(100))).result(
            timeout=60
        )
        response = ServingShardPool.decode(raw)
        assert isinstance(response["pid"], int)
        assert response["pid"] != os.getpid()
        results = {r.session_id: r for r in response["results"]}
        assert results["s1"].response is True
        assert results["s2"].response is False
        # The raw wire format really is JSON, not pickles.
        json.loads(raw)


def test_inline_restart_drops_shard_state():
    """Inline restart is the analogue of process death: state is gone."""
    from repro.monad.policy import size_above

    floor = size_above(100)
    with ServingShardPool(1, inline=True) as pool:
        first = ServingShardPool.decode(
            pool.submit(0, _serving_ops(policy_floor=floor)).result()
        )
        assert {r.session_id: r.authorized for r in first["results"]}["s1"]
        pool.restart_shard(0)
        # The replacement knows nothing: configure it again, then ask for
        # the old sessions without re-opening them.
        ops = _serving_ops(policy_floor=floor)
        ops = [op for op in ops if op["op"] != "open_session"]
        second = ServingShardPool.decode(pool.submit(0, ops).result())
    for result in second["results"]:
        assert not result.authorized
        assert "no open session" in result.reason


def test_ping_and_restart_on_process_shards():
    with ShardedCompilePool(1) as pool:
        assert pool.ping(0, timeout=60)
        pool.restart_shard(0)
        # A replacement process forks lazily on the next use.
        assert pool.ping(0, timeout=60)
    assert ShardedCompilePool(1, inline=True).ping(0)
