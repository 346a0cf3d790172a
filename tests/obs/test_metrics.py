"""The metrics registry: buckets, thread-safety, snapshots, exposition.

The four properties ISSUE 10 names: histogram bucket boundaries land
observations where the ``le`` semantics say they must; concurrent
recording from many threads loses nothing; snapshots are isolated
(no torn sum/count pairs, ever); and the Prometheus text exposition
round-trips through the small parser in tests/obs/prom.py.
"""

import threading

import pytest
from prom import parse_exposition

from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    log_buckets,
)

# ---------------------------------------------------------------------------
# Bucket boundaries
# ---------------------------------------------------------------------------


def test_log_buckets_fixed_spacing_and_coverage():
    bounds = log_buckets(1e-4, 100.0, per_decade=3)
    assert bounds[0] == 1e-4
    assert bounds[-1] >= 100.0
    # Fixed log spacing: three buckets per decade.
    ratios = [b / a for a, b in zip(bounds, bounds[1:])]
    assert all(abs(r - 10 ** (1 / 3)) < 1e-3 for r in ratios)
    assert bounds == DEFAULT_TIME_BUCKETS


def test_log_buckets_rejects_bad_ranges():
    with pytest.raises(ValueError):
        log_buckets(0.0, 1.0)
    with pytest.raises(ValueError):
        log_buckets(2.0, 1.0)
    with pytest.raises(ValueError):
        log_buckets(1.0, 10.0, per_decade=0)


def test_observation_on_boundary_is_inclusive():
    """Prometheus ``le`` is <=: a value equal to a bound lands in it."""
    registry = MetricsRegistry()
    hist = registry.histogram("h", buckets=(1.0, 10.0, 100.0))
    hist.observe(1.0)  # exactly the first bound
    hist.observe(10.0)  # exactly the second
    hist.observe(10.5)  # strictly inside the third
    hist.observe(1000.0)  # past every finite bound -> +Inf only
    series = registry.snapshot()["h"]["series"][""]
    assert series["buckets"] == [1, 1, 1, 1]
    assert series["count"] == 4 and series["sum"] == 1021.5
    text = registry.exposition()
    families = parse_exposition(text)
    samples = families["h"].samples
    assert samples[("h_bucket", frozenset({("le", "1")}))] == 1
    assert samples[("h_bucket", frozenset({("le", "10")}))] == 2
    assert samples[("h_bucket", frozenset({("le", "100")}))] == 3
    assert samples[("h_bucket", frozenset({("le", "+Inf")}))] == 4


def test_repeated_observation_equals_one_at_a_time():
    """``observe(v, times=n)`` records exactly what n single calls would."""
    bulk, single = MetricsRegistry(), MetricsRegistry()
    for value, times in ((3.0, 4), (250.0, 1), (7.0, 0)):
        bulk.histogram("h", buckets=(1.0, 10.0, 100.0)).observe(value, times)
        for _ in range(times):
            single.histogram("h", buckets=(1.0, 10.0, 100.0)).observe(value)
    assert bulk.snapshot() == single.snapshot()
    assert bulk.exposition() == single.exposition()
    NULL_REGISTRY.histogram("h").observe(1.0, 5)  # the null path accepts it


def test_default_buckets_follow_channel():
    registry = MetricsRegistry()
    timing = registry.histogram("t", channel="timing")
    sizes = registry.histogram("s", channel="decision")
    assert timing.bounds == DEFAULT_TIME_BUCKETS
    assert sizes.bounds == DEFAULT_SIZE_BUCKETS


# ---------------------------------------------------------------------------
# Declaration discipline
# ---------------------------------------------------------------------------


def test_redeclaration_is_idempotent_but_shape_changes_raise():
    registry = MetricsRegistry()
    first = registry.counter("c", "help", labels=("kind",))
    assert registry.counter("c", "other help", labels=("kind",)) is first
    with pytest.raises(ValueError):
        registry.gauge("c", labels=("kind",))
    with pytest.raises(ValueError):
        registry.counter("c")
    with pytest.raises(ValueError):
        registry.counter("c", labels=("kind",), channel="timing")
    with pytest.raises(ValueError):
        registry.counter("x", channel="nope")


def test_label_and_kind_guards():
    registry = MetricsRegistry()
    counter = registry.counter("c", labels=("kind",))
    with pytest.raises(ValueError):
        counter.inc()  # labeled: must go through .labels()
    with pytest.raises(ValueError):
        counter.labels(wrong="x")
    with pytest.raises(ValueError):
        counter.labels(kind="x").inc(-1)
    hist = registry.histogram("h")
    with pytest.raises(TypeError):
        hist._require_default().inc()
    with pytest.raises(TypeError):
        hist._require_default().set(1.0)


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------


def test_concurrent_recording_loses_nothing():
    registry = MetricsRegistry()
    counter = registry.counter("hits", labels=("worker",))
    hist = registry.histogram("sizes", buckets=(1.0, 2.0, 4.0))
    threads, per_thread = 8, 2_000

    def work(worker: int) -> None:
        child = counter.labels(worker=str(worker))
        for i in range(per_thread):
            child.inc()
            hist.observe(float(worker % 4))

    pool = [
        threading.Thread(target=work, args=(worker,))
        for worker in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()

    snap = registry.snapshot()
    hits = snap["hits"]["series"]
    assert all(
        hits[f'{{worker="{w}"}}'] == per_thread for w in range(threads)
    )
    sizes = snap["sizes"]["series"][""]
    assert sizes["count"] == threads * per_thread
    assert sum(sizes["buckets"]) == sizes["count"]


def test_snapshot_isolation_no_torn_pairs():
    """A snapshot can never see count moved but sum unmoved (or v.v.)."""
    registry = MetricsRegistry()
    hist = registry.histogram("pairs", buckets=(10.0,))
    stop = threading.Event()

    def writer() -> None:
        while not stop.is_set():
            hist.observe(1.0)

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        for _ in range(500):
            series = registry.snapshot()["pairs"]["series"][""]
            # Every observation is 1.0, so a consistent snapshot has
            # sum == count and buckets summing to count, exactly.
            assert series["sum"] == series["count"]
            assert sum(series["buckets"]) == series["count"]
    finally:
        stop.set()
        thread.join()


# ---------------------------------------------------------------------------
# Exposition round-trip and the drain/absorb fold
# ---------------------------------------------------------------------------


def _populated() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("req", "requests", labels=("route", "status")).labels(
        route="/v1/x", status="200"
    ).inc(3)
    registry.gauge("depth", "queue depth").set(7)
    registry.gauge("frac", channel="timing").set(0.25)
    hist = registry.histogram("lat", "latency", channel="timing")
    for value in (0.001, 0.01, 0.01, 5.0):
        hist.observe(value)
    return registry


def test_exposition_round_trips_through_parser():
    registry = _populated()
    families = parse_exposition(registry.exposition())
    assert families["req"].kind == "counter"
    assert families["req"].help == "requests"
    key = ("req", frozenset({("route", "/v1/x"), ("status", "200")}))
    assert families["req"].samples[key] == 3
    assert families["depth"].samples[("depth", frozenset())] == 7
    assert families["lat"].kind == "histogram"
    assert families["lat"].samples[("lat_count", frozenset())] == 4
    assert families["lat"].samples[("lat_sum", frozenset())] == pytest.approx(
        5.021
    )


def test_exposition_is_deterministic_and_channel_filtered():
    one, two = _populated(), _populated()
    assert one.exposition() == two.exposition()
    decision_only = one.exposition(channels=("decision",))
    assert "req" in decision_only and "depth" in decision_only
    assert "lat" not in decision_only and "frac" not in decision_only
    parse_exposition(decision_only)  # still well-formed


def test_label_values_are_escaped():
    registry = MetricsRegistry()
    registry.counter("c", labels=("v",)).labels(v='a"b\\c\nd').inc()
    families = parse_exposition(registry.exposition())
    (key,) = families["c"].samples
    assert dict(key[1])["v"] == 'a"b\\c\nd'


def test_drain_absorb_reproduces_the_registry():
    source = _populated()
    target = MetricsRegistry()
    target.absorb(source.drain())
    assert target.exposition() == source.exposition()
    # Drain marks everything reported: a second drain is empty...
    assert all(
        entry["kind"] == "gauge"
        for entry in source.drain()["instruments"]
    )
    # ...and new recordings ship as deltas that fold additively.
    source.counter("req", labels=("route", "status")).labels(
        route="/v1/x", status="200"
    ).inc(2)
    target.absorb(source.drain())
    key = ("req", frozenset({("route", "/v1/x"), ("status", "200")}))
    assert parse_exposition(target.exposition())["req"].samples[key] == 5


def test_null_registry_is_falsy_and_inert():
    assert not NULL_REGISTRY
    assert MetricsRegistry()  # the real one is truthy
    NULL_REGISTRY.counter("c", labels=("x",)).labels(x="1").inc()
    NULL_REGISTRY.histogram("h").observe(3.0)
    NULL_REGISTRY.gauge("g").set(2.0)
    assert NULL_REGISTRY.snapshot() == {}
    assert NULL_REGISTRY.exposition() == ""
    assert NULL_REGISTRY.drain() == {"instruments": []}
