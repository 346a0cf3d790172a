"""Tests of the servebench harness itself (small schedules, seconds each).

Run with ``PYTHONPATH=src python -m pytest servebench -q`` from the
repository root.
"""

import asyncio
import dataclasses

import pytest

from servebench import layers, run, workloads
from servebench.schedule import QUERIES, User, digest, make_schedule, truth, wrong_answers


@pytest.fixture(scope="module")
def artifacts():
    """Every compiled query, compiled once for the whole module."""

    async def compile_all():
        server = workloads._server(sharded=False, observe=False, inline_compiles=True)
        await workloads._register_all(server)
        server.shutdown()
        return {key: server.cache.get(key) for key in server.cache.keys()}

    return asyncio.run(compile_all())


def _warm(server, artifacts):
    for key, compiled in artifacts.items():
        server.cache.put(key, compiled)
    return server


async def _rounds(server, users, rounds):
    await workloads._register_all(server)
    try:
        return [await workloads._fleet_round(server, users, k, workloads.Phase())
                for k in range(rounds)]
    finally:
        server.shutdown()


def test_schedule_is_a_function_of_the_seed():
    assert make_schedule(7, 50) == make_schedule(7, 50)
    assert make_schedule(7, 50) != make_schedule(8, 50)
    users = make_schedule(7, 50)
    assert all(len(set(user.queries)) == 4 for user in users)
    assert all(query in QUERIES for user in users for query in user.queries)
    assert sum(sum(user.retries) for user in users) == 50 * 4 // 10


def test_rounds_are_stationary(artifacts):
    users = make_schedule(3, 40)
    server = _warm(workloads._server(sharded=False, observe=False, inline_compiles=True),
                   artifacts)
    rounds = asyncio.run(_rounds(server, users, 4))
    for rows in rounds[1:]:
        assert rows == rounds[1]
    assert rounds[0] == rounds[1]
    authorized = sum(row[2] for row in rounds[1])
    assert 0 < authorized < len(rounds[1]), "need both authorized and refused decisions"
    assert wrong_answers(users, rounds[1]) == 0


@pytest.mark.parametrize("serving", ["inline", "process"])
def test_serving_configurations_share_one_digest(artifacts, serving):
    users = make_schedule(5, 30)
    local = _warm(workloads._server(sharded=False, observe=False, inline_compiles=True),
                  artifacts)
    sharded = _warm(workloads._server(sharded=True, observe=False, inline_compiles=True,
                                      inline_serving=serving == "inline"), artifacts)
    expected = [digest(rows) for rows in asyncio.run(_rounds(local, users, 2))]
    assert [digest(rows) for rows in asyncio.run(_rounds(sharded, users, 2))] == expected


def test_truth_oracle_matches_the_query_text():
    user = User(0, "u0", (12, 16, 6, 0), ("zone0",), (False,))
    assert truth(user, "zone0") is True  # the zone's centre
    far = dataclasses.replace(user, secret=(63, 63, 31, 31))
    assert truth(far, "zone0") is False


def test_summarize_self_time_and_coverage():
    spans = [
        ("gateway.flush", 0.0, 4.0, 1, 3),
        ("session.downgrade_batch", 1.0, 2.0, 3, None),
        ("api.handle_batch", 0.5, 2.5, 3, None),
        ("gateway.downgrade", 0.0, 5.0, 1, "k1"),
        ("ledger.admit", 6.0, 7.0, 2, (1, 1)),
    ]
    m = layers.summarize(spans, (0.0, 10.0), (0.0, 0.0), edge_requests=[])
    assert m["gateway.self_s"] == pytest.approx(2.0)  # 4 s tick minus 2 s of api
    assert m["api.result_self_s"] == pytest.approx(1.0)
    assert m["session.us_per_downgrade"] == pytest.approx(1e6 / 3)
    assert m["gateway.queue_wait_ms_p50"] == pytest.approx(0.0)
    assert m["ledger.refusals"] == 1 and m["ledger.distinct_prior_frac"] == 0.5
    # Covered: [0, 4] and [6, 7]; the downgrade lifetime is waiting, not work.
    assert m["trace.unattributed_frac"] == pytest.approx(0.5)


def test_edge_self_time_counts_first_deliveries_only():
    spans = [("gateway.downgrade", 1.0, 5.0, 1, "k1")]
    requests = [(0.0, 6.0, "k1"), (7.0, 7.5, "k1")]  # the second is a retry
    m = layers.summarize(spans, (0.0, 10.0), (0.0, 0.0), edge_requests=requests)
    assert m["edge.self_ms_p50"] == pytest.approx(2000.0)
    assert m["edge.requests"] == 2


@pytest.mark.parametrize("workload, users", [("fleet-local", 40), ("edge-interactive", 20)])
def test_traced_run_counts_agree_with_the_server(tmp_path, monkeypatch, workload, users):
    monkeypatch.setattr(workloads, "MIN_SAMPLES", 50)
    tracing = layers.Tracing()
    tracing.install()
    try:
        out = workloads.WORKLOADS[workload](1, 0.0, 1, tmp_path, users=users)
    finally:
        tracing.uninstall()
    metrics = layers.summarize(tracing.log.spans, out.window, out.setup_window,
                               edge_requests=out.phase.requests)
    assert run.cross_check(out, metrics) == []
    assert run.checks(out) == []
    assert metrics["session.calls"] > 0 and metrics["gateway.ticks"] > 0
    if workload == "edge-interactive":
        assert metrics["compile.cache_hits"] == len(QUERIES)
        assert metrics["edge.requests"] > 0 and metrics["journal.duplicates"] > 0
    else:
        assert metrics["compile.count"] == len(QUERIES)
    assert not hasattr(workloads.DeclassificationServer.downgrade, "__wrapped__")
