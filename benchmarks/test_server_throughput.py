"""Benchmark S2 — the serving runtime: shards, warm store, batched ticks.

Three claims of the ``repro.server`` architecture, measured and gated:

* **warm store beats cold compiles** — a restarted server answering the
  same compile workload from its persistent store is ≥ 3x the
  per-request cold-compile throughput (in practice orders of magnitude),
  with **zero** shard jobs submitted (the kill-and-restart story);
* **shards scale with cores** — cold compile throughput at 1/2/4 shards
  on the 4-D powerset workload scales near-linearly in the cores
  actually available: we gate *parallel efficiency*
  (speedup ÷ min(shards, cpu)) rather than raw speedup.  On a runner
  with fewer than 4 cores the efficiency number is measured and
  reported but **not** asserted (``gates.parallel_efficiency_enforced``
  / ``gates.parallel_efficiency_skip_reason`` in the artifact record
  why) — a 1-CPU box has no cores to convert shards into speedup;
* **ticks batch serving** — concurrent downgrades through the gateway
  collapse into far fewer batch passes than requests; the same workload
  is also measured on the per-shard serving tier (``serving_sharded``,
  reported, not gated);
* **degradation is graceful** — the same sharded workload with 1 of 4
  serving shards breaker-tripped (its users served on the gateway-local
  fallback path) keeps ≥ half the healthy sharded throughput
  (``degraded_rps``; gated only on runners with ≥ 4 cores, where the
  sharded baseline actually uses the cores it loses);
* **vectorized fleet ticks beat the scalar loop** — the structure-of-
  arrays warm path (one stacked intersection + one vectorized verdict +
  one batched query kernel per tick) serves the same fleet ≥ 10x faster
  than the per-session scalar reference (``served_rps_vectorized``;
  the speedup is re-measured everywhere but, like the other ratio
  gates, only asserted on ≥ 4-core runners where timing noise from a
  contended CI core can't flip it);
* **journaling is cheap** — the same sharded workload with every
  request journaled to a file-backed SQLite store (each job's rows
  written once, after it executed, with the bounds it charged) keeps
  ≥ 0.7x the unjournaled sharded throughput (``serving_journaled``;
  soft-reported below 4 cores like the other ratio gates);
* **observation is cheap** — the same sharded workload with the full
  telemetry surface on (metric counters on every layer, replay-stable
  trace spans piggybacked on shard batch responses) keeps ≥ 0.9x the
  unobserved sharded throughput (``serving_observed``; the ratio
  baselines run with ``observe=False`` so it isolates instrumentation
  overhead; soft-reported below 4 cores like the other ratio gates).

Results land in ``BENCH_server.json`` at the repository root (uploaded
as a CI artifact alongside ``BENCH_solver.json``).
"""

import asyncio
import json
import os
import time
from pathlib import Path

import pytest

from repro.core.plugin import CompileOptions
from repro.lang.secrets import SecretSpec
from repro.monad.policy import size_above
from repro.server.gateway import DeclassificationServer, ServerConfig
from repro.server.store import SQLiteStore
from repro.service.api import CompileRequest

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_server.json"

#: The 4-D ship-style space: past the region-oracle cap, so every compile
#: pays the worklist/front machinery — a realistic "expensive query".
SPEC = SecretSpec.declare("Ship", x=(0, 63), y=(0, 63), z=(0, 31), w=(0, 31))
OPTIONS = CompileOptions(domain="powerset", k=6, modes=("under", "over"))

QUERIES = [
    (
        f"zone{i}",
        f"abs(x - {12 + 4 * i}) + abs(y - {16 + 3 * i}) "
        f"+ abs(z - {6 + (i % 5)}) + w <= {38 + 2 * i}",
    )
    for i in range(12)
]

SHARD_COUNTS = (1, 2, 4)
SERVING_SHARDS = 4
MIN_WARM_SPEEDUP = 3.0
MIN_PARALLEL_EFFICIENCY = 0.55
MIN_DEGRADED_FRACTION = 0.5
MIN_VECTORIZED_SPEEDUP = 10.0
MIN_JOURNALED_FRACTION = 0.7
MIN_OBSERVED_FRACTION = 0.9

#: shard count → measurements, aggregated by the report test.
RESULTS: dict[int, dict] = {}


def _server(shards: int, store: SQLiteStore | None) -> DeclassificationServer:
    return DeclassificationServer(
        size_above(100),
        store=store,
        options=OPTIONS,
        config=ServerConfig(shards=shards, max_pending_compiles=len(QUERIES)),
    )


async def _register_all(server: DeclassificationServer) -> float:
    start = time.perf_counter()
    await asyncio.gather(
        *(
            server.register_query(CompileRequest(name, text, SPEC))
            for name, text in QUERIES
        )
    )
    return time.perf_counter() - start


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_cold_and_warm_compile_throughput(shards, tmp_path):
    store_path = tmp_path / f"store-{shards}.db"

    with SQLiteStore(store_path) as store:
        cold_server = _server(shards, store)
        cold_time = asyncio.run(_register_all(cold_server))
        assert cold_server.pool.total_submitted() == len(QUERIES)
        cold_server.shutdown()

    # Kill and restart on the same store: the whole workload must be
    # answered from the warm start with zero recompiles.
    with SQLiteStore(store_path) as store:
        warm_server = _server(shards, store)
        assert warm_server.stats.warm_entries == len(QUERIES)
        warm_time = asyncio.run(_register_all(warm_server))
        assert warm_server.pool.total_submitted() == 0, "warm start recompiled!"
        assert warm_server.stats.compile_cache_hits == len(QUERIES)
        warm_server.shutdown()

    RESULTS[shards] = {
        "cold_seconds": cold_time,
        "cold_rps": len(QUERIES) / cold_time,
        "warm_seconds": warm_time,
        "warm_rps": len(QUERIES) / warm_time,
        "warm_recompiles": 0,
    }
    print(
        f"\n{shards} shard(s): cold {len(QUERIES) / cold_time:6.1f} req/s, "
        f"warm {len(QUERIES) / warm_time:8.1f} req/s"
    )


def test_batched_downgrade_throughput():
    n_sessions = 400

    async def scenario():
        server = _server(1, None)
        server.pool.inline = True  # serving path under test, not compiles
        await server.register_query(CompileRequest(*QUERIES[0], SPEC))
        rng_state = 1234567
        for i in range(n_sessions):
            rng_state = (1103515245 * rng_state + 12345) % (1 << 31)
            server.open_session(
                f"u{i}",
                (
                    SPEC,
                    (
                        rng_state % 64,
                        (rng_state >> 8) % 64,
                        (rng_state >> 16) % 32,
                        (rng_state >> 20) % 32,
                    ),
                ),
            )
        await server.start()
        start = time.perf_counter()
        results = await asyncio.gather(
            *(server.downgrade(f"u{i}", QUERIES[0][0]) for i in range(n_sessions))
        )
        elapsed = time.perf_counter() - start
        await server.stop()
        server.shutdown()
        assert len(results) == n_sessions
        # Ticks batched: far fewer batch passes than requests.
        batches = sum(1 for e in server.service.audit if e.kind == "batch")
        assert batches < n_sessions / 4
        return n_sessions / elapsed, batches

    served_rps, batches = asyncio.run(scenario())
    RESULTS["serving"] = {
        "sessions": n_sessions,
        "served_rps": served_rps,
        "batch_passes": batches,
    }
    print(f"\nserving: {served_rps:,.0f} downgrades/s in {batches} batch passes")


async def _sharded_serving_scenario(
    n_sessions: int, *, trip_shards=(), store=None, observe=False
):
    """One sharded serving run; optionally trip breakers before serving.

    With *store* set, every request is journaled to it —
    the ``serving_journaled`` configuration, identical except for the
    journal so the ratio isolates journaling overhead.  *observe*
    defaults off so every ratio shares the uninstrumented baseline;
    the ``serving_observed`` row flips it on, and that single toggle is
    the instrumentation overhead being measured.
    """
    from repro.server.journal import RequestJournal

    server = DeclassificationServer(
        size_above(100),
        store=store,
        journal=None if store is None else RequestJournal(store),
        options=OPTIONS,
        config=ServerConfig(
            shards=1,
            max_pending_compiles=len(QUERIES),
            inline_compiles=True,
            serving_shards=SERVING_SHARDS,
            observe=observe,
        ),
    )
    await server.register_query(CompileRequest(*QUERIES[0], SPEC))
    rng_state = 7654321
    for i in range(n_sessions):
        rng_state = (1103515245 * rng_state + 12345) % (1 << 31)
        server.open_session(
            f"u{i}",
            (
                SPEC,
                (
                    rng_state % 64,
                    (rng_state >> 8) % 64,
                    (rng_state >> 16) % 32,
                    (rng_state >> 20) % 32,
                ),
            ),
            user_id=f"user{i}",
        )
    for shard in trip_shards:
        # The operator/benchmark override: pin the shard out of rotation
        # far past the run, so its users ride the degraded path.
        server.supervisor.breaker("serving", shard).trip(cooldown=3600.0)
    await server.start()
    start = time.perf_counter()
    results = await asyncio.gather(
        *(server.downgrade(f"u{i}", QUERIES[0][0]) for i in range(n_sessions))
    )
    elapsed = time.perf_counter() - start
    await server.stop()
    degraded_batches = server.stats.degraded_batches
    journaled = 0 if server.journal is None else len(server.journal)
    server.shutdown()
    assert len(results) == n_sessions
    assert all(r.authorized for r in results)
    return n_sessions / elapsed, degraded_batches, journaled


def test_sharded_serving_throughput():
    """The serving-shard tier: downgrade batches on worker processes.

    Measured and reported (not hard-gated: process startup dominates on
    tiny CI boxes): the same downgrade workload as the tick-batching
    benchmark, executed on four serving shards routed by user id.
    """
    n_sessions = 200
    served_rps, _, _ = asyncio.run(_sharded_serving_scenario(n_sessions))
    RESULTS["serving_sharded"] = {
        "sessions": n_sessions,
        "serving_shards": SERVING_SHARDS,
        "served_rps": served_rps,
    }
    print(
        f"\nsharded serving: {served_rps:,.0f} downgrades/s "
        f"on {SERVING_SHARDS} shards"
    )


def test_degraded_serving_throughput():
    """Graceful degradation: 1 of 4 serving shards down, still serving.

    The tripped shard's users fall over to the gateway-local path; every
    request is still answered and enforced.  Reported always; gated
    (≥ ``MIN_DEGRADED_FRACTION`` of healthy sharded throughput) only on
    ≥ 4-core runners, in the report test.
    """
    n_sessions = 200
    served_rps, degraded_batches, _ = asyncio.run(
        _sharded_serving_scenario(n_sessions, trip_shards=(0,))
    )
    assert degraded_batches > 0, "no traffic rode the degraded path"
    RESULTS["serving_degraded"] = {
        "sessions": n_sessions,
        "serving_shards": SERVING_SHARDS,
        "shards_down": 1,
        "served_rps": served_rps,
        "degraded_batches": degraded_batches,
    }
    print(
        f"\ndegraded serving: {served_rps:,.0f} downgrades/s with 1 of "
        f"{SERVING_SHARDS} shards down ({degraded_batches} degraded batches)"
    )


def test_journaled_serving_throughput(tmp_path):
    """Journaling on the sharded serving path, measured.

    Same workload as ``serving_sharded`` with a file-backed SQLite
    store journaling every request (one transaction per job, written
    after it executed, with the ledger mirror's bounds when one
    exists).  Reported always; gated at ≥ ``MIN_JOURNALED_FRACTION`` of
    the unjournaled sharded throughput on ≥ 4-core runners.
    """
    n_sessions = 200
    with SQLiteStore(tmp_path / "journal.db") as store:
        served_rps, _, journaled = asyncio.run(
            _sharded_serving_scenario(n_sessions, store=store)
        )
    # Every request made it into the journal: one configure, one
    # compile, one open per session, one downgrade per request.
    assert journaled == 2 + 2 * n_sessions, "journal missed requests"
    RESULTS["serving_journaled"] = {
        "sessions": n_sessions,
        "serving_shards": SERVING_SHARDS,
        "served_rps": served_rps,
        "journal_entries": journaled,
    }
    print(
        f"\njournaled serving: {served_rps:,.0f} downgrades/s "
        f"({journaled} journal entries)"
    )


def test_observed_serving_throughput():
    """The full telemetry surface on, same workload: observation is cheap.

    Identical to ``serving_sharded`` except ``observe=True``: every
    layer counts its decisions, the gateway derives trace ids for the
    batch, and serving shards piggyback metric deltas and trace spans
    on their batch responses.  Reported always; gated at
    ≥ ``MIN_OBSERVED_FRACTION`` of the unobserved sharded throughput on
    ≥ 4-core runners, in the report test.
    """
    n_sessions = 200
    served_rps, _, _ = asyncio.run(
        _sharded_serving_scenario(n_sessions, observe=True)
    )
    RESULTS["serving_observed"] = {
        "sessions": n_sessions,
        "serving_shards": SERVING_SHARDS,
        "served_rps": served_rps,
    }
    print(
        f"\nobserved serving: {served_rps:,.0f} downgrades/s "
        f"with full telemetry on"
    )


def test_vectorized_fleet_throughput():
    """Scalar loop vs SoA warm path on identical fleet ticks.

    Measures :meth:`SessionManager.downgrade_batch` directly (no event
    loop, no shard codec: the tick itself is the claim) on a fleet of
    3000 sessions alternating between two compiled zone queries, after a
    warm-up tick per query so both paths start from mixed priors with
    pinned kernels.  Asserts bit-identical decisions along the way —
    a fast path that drifts from the reference measures nothing.
    """
    from repro.core.plugin import QueryRegistry
    from repro.service.session import SessionManager

    n_sessions, ticks = 3000, 6
    registry = QueryRegistry()
    for name, text in QUERIES[:2]:
        registry.compile_and_register(name, text, SPEC, options=OPTIONS)
    rng_state = 24681012
    secrets = {}
    for i in range(n_sessions):
        rng_state = (1103515245 * rng_state + 12345) % (1 << 31)
        secrets[f"u{i}"] = (
            SPEC,
            (
                rng_state % 64,
                (rng_state >> 8) % 64,
                (rng_state >> 16) % 32,
                (rng_state >> 20) % 32,
            ),
        )

    def run(vectorized):
        manager = SessionManager(
            registry=registry, policy=size_above(100), vectorized=vectorized
        )
        manager.open_sessions(secrets)
        for name, _ in QUERIES[:2]:  # warm-up: mixed priors, pinned kernels
            manager.downgrade_batch(name)
        outcomes = []
        start = time.perf_counter()
        for tick in range(ticks):
            outcomes.append(manager.downgrade_batch(QUERIES[tick % 2][0]))
        elapsed = time.perf_counter() - start
        return outcomes, ticks * n_sessions / elapsed

    scalar_outcomes, scalar_rps = run(False)
    vectorized_outcomes, vectorized_rps = run(True)
    assert scalar_outcomes == vectorized_outcomes, "fast path drifted"

    RESULTS["serving_vectorized"] = {
        "sessions": n_sessions,
        "ticks": ticks,
        "served_rps_scalar": scalar_rps,
        "served_rps_vectorized": vectorized_rps,
        "vectorized_speedup": vectorized_rps / scalar_rps,
    }
    print(
        f"\nfleet ticks: scalar {scalar_rps:,.0f}/s, "
        f"vectorized {vectorized_rps:,.0f}/s "
        f"({vectorized_rps / scalar_rps:.1f}x)"
    )


def test_report_and_gates():
    assert set(SHARD_COUNTS) <= set(RESULTS), "run the whole module"
    cpu = os.cpu_count() or 1

    base = RESULTS[1]
    warm_speedup = base["warm_rps"] / base["cold_rps"]
    scaling = RESULTS[4]["cold_rps"] / base["cold_rps"]
    ideal = min(4, cpu)
    efficiency = scaling / ideal

    # Parallel efficiency divides by min(shards, cpu), but on a box with
    # fewer than 4 cores the 4-shard run adds pure process overhead with
    # no cores to spend it on: the gate is meaningless noise there (the
    # standard 1-CPU CI runner).  Soft-report instead of asserting, and
    # say so in the artifact so a reader of BENCH_server.json knows the
    # number was measured but not enforced.
    efficiency_enforced = cpu >= 4
    efficiency_skip_reason = (
        None
        if efficiency_enforced
        else f"cpu_count={cpu} < 4: 4-shard efficiency reported, not gated"
    )

    # Same reasoning for the degraded gate: with fewer cores than shards
    # the healthy baseline is already contended, so the degraded/healthy
    # ratio measures scheduler noise rather than the fallback path.
    sharded_rps = RESULTS.get("serving_sharded", {}).get("served_rps", 0.0)
    degraded_rps = RESULTS.get("serving_degraded", {}).get("served_rps", 0.0)
    degraded_fraction = degraded_rps / sharded_rps if sharded_rps else 0.0
    degraded_enforced = cpu >= 4
    degraded_skip_reason = (
        None
        if degraded_enforced
        else f"cpu_count={cpu} < 4: degraded throughput reported, not gated"
    )

    # Journaling overhead is also a ratio against the sharded baseline,
    # with the same contended-core caveat.
    journaled_rps = RESULTS.get("serving_journaled", {}).get("served_rps", 0.0)
    journaled_fraction = journaled_rps / sharded_rps if sharded_rps else 0.0
    journaled_enforced = cpu >= 4
    journaled_skip_reason = (
        None
        if journaled_enforced
        else f"cpu_count={cpu} < 4: journaled throughput reported, not gated"
    )

    # Observation overhead is a ratio against the same sharded baseline,
    # with the same contended-core caveat.
    observed_rps = RESULTS.get("serving_observed", {}).get("served_rps", 0.0)
    observed_fraction = observed_rps / sharded_rps if sharded_rps else 0.0
    observed_enforced = cpu >= 4
    observed_skip_reason = (
        None
        if observed_enforced
        else f"cpu_count={cpu} < 4: observed throughput reported, not gated"
    )

    # The vectorized/scalar ratio is a single-core property, but on a
    # contended 1-CPU CI box the scalar baseline's timing jitter can
    # swing the ratio by itself: measure and report everywhere, assert
    # only where there's headroom.
    vectorized_speedup = RESULTS.get("serving_vectorized", {}).get(
        "vectorized_speedup", 0.0
    )
    vectorized_enforced = cpu >= 4
    vectorized_skip_reason = (
        None
        if vectorized_enforced
        else f"cpu_count={cpu} < 4: vectorized speedup reported, not gated"
    )

    payload = {
        "workload": {
            "description": "4-D powerset compiles (k=6, under+over, verified)",
            "queries": len(QUERIES),
            "secret_space": SPEC.space_size(),
            "domain": OPTIONS.domain,
            "k": OPTIONS.k,
        },
        "cpu_count": cpu,
        "shards": {str(s): RESULTS[s] for s in SHARD_COUNTS},
        "serving": RESULTS.get("serving", {}),
        "serving_sharded": RESULTS.get("serving_sharded", {}),
        "serving_degraded": RESULTS.get("serving_degraded", {}),
        "serving_journaled": RESULTS.get("serving_journaled", {}),
        "serving_observed": RESULTS.get("serving_observed", {}),
        "serving_vectorized": RESULTS.get("serving_vectorized", {}),
        "warm_speedup_vs_cold": warm_speedup,
        "scaling_1_to_4_shards": scaling,
        "parallel_efficiency": efficiency,
        "degraded_fraction": degraded_fraction,
        "journaled_fraction": journaled_fraction,
        "observed_fraction": observed_fraction,
        "vectorized_speedup": vectorized_speedup,
        "gates": {
            "min_warm_speedup": MIN_WARM_SPEEDUP,
            "min_parallel_efficiency": MIN_PARALLEL_EFFICIENCY,
            "parallel_efficiency_enforced": efficiency_enforced,
            "parallel_efficiency_skip_reason": efficiency_skip_reason,
            "min_degraded_fraction": MIN_DEGRADED_FRACTION,
            "degraded_enforced": degraded_enforced,
            "degraded_skip_reason": degraded_skip_reason,
            "min_journaled_fraction": MIN_JOURNALED_FRACTION,
            "journaled_enforced": journaled_enforced,
            "journaled_skip_reason": journaled_skip_reason,
            "min_observed_fraction": MIN_OBSERVED_FRACTION,
            "observed_enforced": observed_enforced,
            "observed_skip_reason": observed_skip_reason,
            "min_vectorized_speedup": MIN_VECTORIZED_SPEEDUP,
            "vectorized_enforced": vectorized_enforced,
            "vectorized_skip_reason": vectorized_skip_reason,
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(
        f"\nwarm/cold {warm_speedup:,.0f}x; 1→4 shards {scaling:.2f}x "
        f"on {cpu} core(s) (efficiency {efficiency:.2f}); "
        f"wrote {BENCH_PATH.name}"
    )

    assert warm_speedup >= MIN_WARM_SPEEDUP, (
        f"warm store only {warm_speedup:.1f}x over cold compiles "
        f"(gate {MIN_WARM_SPEEDUP}x)"
    )
    if degraded_enforced:
        assert degraded_fraction >= MIN_DEGRADED_FRACTION, (
            f"1-of-{SERVING_SHARDS}-shards-down serving at "
            f"{degraded_fraction:.2f} of healthy throughput "
            f"(gate {MIN_DEGRADED_FRACTION})"
        )
    else:
        print(f"degraded-throughput gate skipped: {degraded_skip_reason}")
    if journaled_enforced:
        assert journaled_fraction >= MIN_JOURNALED_FRACTION, (
            f"journaled serving at {journaled_fraction:.2f} of unjournaled "
            f"sharded throughput (gate {MIN_JOURNALED_FRACTION})"
        )
    else:
        print(f"journaled-throughput gate skipped: {journaled_skip_reason}")
    if observed_enforced:
        assert observed_fraction >= MIN_OBSERVED_FRACTION, (
            f"observed serving at {observed_fraction:.2f} of unobserved "
            f"sharded throughput (gate {MIN_OBSERVED_FRACTION})"
        )
    else:
        print(f"observed-throughput gate skipped: {observed_skip_reason}")
    if vectorized_enforced:
        assert vectorized_speedup >= MIN_VECTORIZED_SPEEDUP, (
            f"vectorized fleet ticks only {vectorized_speedup:.1f}x over "
            f"the scalar loop (gate {MIN_VECTORIZED_SPEEDUP}x)"
        )
    else:
        print(f"vectorized-speedup gate skipped: {vectorized_skip_reason}")
    if not efficiency_enforced:
        print(f"parallel-efficiency gate skipped: {efficiency_skip_reason}")
        return
    assert efficiency >= MIN_PARALLEL_EFFICIENCY, (
        f"1→4 shard scaling {scaling:.2f}x on {cpu} cores is "
        f"{efficiency:.2f} of ideal (gate {MIN_PARALLEL_EFFICIENCY})"
    )
