"""The replay-stable tracer: derived ids, canonical trees, digests."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    span_id_for,
    trace_id_for,
)


def test_ids_are_deterministic_digests():
    assert trace_id_for("key", 7) == trace_id_for("key", 7)
    assert trace_id_for("key", 7) != trace_id_for("key", 8)
    assert trace_id_for("key", 7) != trace_id_for("other", 7)
    assert len(trace_id_for("key", 7)) == 32
    tid = trace_id_for("key", 7)
    assert span_id_for(tid, None, "downgrade", 0) == span_id_for(
        tid, None, "downgrade", 0
    )
    assert span_id_for(tid, None, "downgrade", 0) != span_id_for(
        tid, None, "downgrade", 1
    )
    assert len(span_id_for(tid, None, "downgrade", 0)) == 16


def test_repeated_names_get_per_parent_indices():
    tracer = Tracer()
    tid = trace_id_for("k", 1)
    first = tracer.record(tid, "retry")
    second = tracer.record(tid, "retry")
    assert first.span_id != second.span_id
    assert second.span_id == span_id_for(tid, None, "retry", 1)


def test_canonical_tree_excludes_transport_and_elapsed():
    tracer = Tracer()
    tid = trace_id_for("k", 1)
    root = tracer.record(tid, "downgrade", session="s1", elapsed=1.25)
    tracer.record(tid, "serve", parent_id=root.span_id, authorized=True)
    tracer.record(
        tid, "shard_roundtrip", parent_id=root.span_id, transport=True
    )
    tree = tracer.tree(tid)
    assert tree == {
        "name": "downgrade",
        "attrs": {"session": "s1"},
        "children": [
            {"name": "serve", "attrs": {"authorized": True}, "children": []}
        ],
    }
    # Transport spans still exist on the raw timeline.
    assert [s.name for s in tracer.spans(tid)] == [
        "downgrade",
        "serve",
        "shard_roundtrip",
    ]
    assert "elapsed" not in json.dumps(tree)


def test_child_order_is_canonical_not_arrival_order():
    def build(order: list[tuple[str, dict]]) -> Tracer:
        tracer = Tracer()
        tid = trace_id_for("k", 1)
        root = tracer.record(tid, "downgrade")
        for name, attrs in order:
            tracer.record(tid, name, parent_id=root.span_id, **attrs)
        return tracer

    forward = build([("admission", {"allowed": True}), ("serve", {})])
    reverse = build([("serve", {}), ("admission", {"allowed": True})])
    tid = trace_id_for("k", 1)
    assert forward.tree(tid) == reverse.tree(tid)
    assert forward.digest() == reverse.digest()


def test_absorb_round_trips_piggybacked_spans():
    source = Tracer()
    tid = trace_id_for("k", 1)
    root = source.record(tid, "downgrade", session="s1")
    source.record(tid, "serve", parent_id=root.span_id, authorized=False)

    target = Tracer()
    target.absorb(span.to_json() for span in source.spans(tid))
    assert target.tree(tid) == source.tree(tid)
    assert target.digest() == source.digest()
    decoded = Span.from_json(root.to_json())
    assert decoded == root


def test_capacity_evicts_oldest_trace():
    tracer = Tracer(capacity=2)
    ids = [trace_id_for("k", seq) for seq in range(3)]
    for tid in ids:
        tracer.record(tid, "downgrade")
    assert tracer.trace_ids() == ids[1:]
    assert tracer.tree(ids[0]) is None
    assert set(tracer.trees()) == set(ids[1:])


def _orphans(tracer: Tracer) -> list[str]:
    """Retained traces without a root span."""
    return [
        tid
        for tid in tracer.trace_ids()
        if not any(span.parent_id is None for span in tracer.spans(tid))
    ]


def test_children_of_evicted_traces_open_no_buckets():
    # The fleet shape: a tick's roots are all recorded before any child
    # arrives, and there are more roots than the tracer retains.
    tracer = Tracer(capacity=1024)
    ids = [trace_id_for("k", seq) for seq in range(1500)]
    roots = [tracer.record(tid, "downgrade") for tid in ids]
    for tid, root in zip(ids, roots):
        tracer.absorb(
            [
                Span(
                    trace_id=tid,
                    span_id=span_id_for(tid, root.span_id, "serve", 0),
                    parent_id=root.span_id,
                    name="serve",
                    attrs={"authorized": True},
                ).to_json()
            ]
        )
        child = tracer.record(
            tid, "shard_roundtrip", parent_id=root.span_id, transport=True
        )
        # A dropped child still carries its deterministic id.
        assert child.span_id == span_id_for(
            tid, root.span_id, "shard_roundtrip", 0
        )
    assert tracer.trace_ids() == ids[-1024:]
    assert _orphans(tracer) == []
    assert len(tracer._indices) == 1024
    for tid in ids[-1024:]:
        assert [span.name for span in tracer.spans(tid)] == [
            "downgrade",
            "serve",
            "shard_roundtrip",
        ]
    assert tracer.tree(ids[0]) is None


@st.composite
def _span_streams(draw):
    """More traces than capacity, each a root followed by descendants,
    interleaved at random across traces (per-trace order kept)."""
    capacity = draw(st.integers(min_value=1, max_value=4))
    count = draw(st.integers(min_value=capacity + 1, max_value=capacity + 6))
    events = st.tuples(
        st.sampled_from(["record", "absorb"]),
        st.sampled_from(["serve", "admission", "retry"]),
        st.integers(min_value=0, max_value=7),
        st.booleans(),
    )
    traces = [
        [(draw(st.sampled_from(["record", "absorb"])), "downgrade", 0, False)]
        + draw(st.lists(events, max_size=5))
        for _ in range(count)
    ]
    cursors = [0] * count
    stream = []
    while live := [t for t in range(count) if cursors[t] < len(traces[t])]:
        t = draw(st.sampled_from(live))
        stream.append((t, traces[t][cursors[t]]))
        cursors[t] += 1
    return capacity, count, stream


@settings(max_examples=200, deadline=None)
@given(_span_streams())
def test_bounded_tracer_matches_unbounded_reference(case):
    capacity, count, stream = case
    bounded, reference = Tracer(capacity=capacity), Tracer(capacity=10**9)
    ids = [trace_id_for("k", seq) for seq in range(count)]
    # Span ids each tracer handed out per trace (parents for later events).
    made = {tracer: [[] for _ in ids] for tracer in (bounded, reference)}
    rooted: list[str] = []
    for step, (t, (how, name, pick, transport)) in enumerate(stream):
        tid = ids[t]
        if not made[reference][t]:
            rooted.append(tid)
        for tracer in (bounded, reference):
            spans = made[tracer][t]
            parent = spans[pick % len(spans)] if spans else None
            if how == "record":
                span = tracer.record(
                    tid, name, parent_id=parent, transport=transport
                )
            else:
                # A piggybacked span carries its id; ``step`` keeps it unique.
                span = Span(
                    trace_id=tid,
                    span_id=span_id_for(tid, parent, name, step),
                    parent_id=parent,
                    name=name,
                    transport=transport,
                )
                tracer.absorb([span.to_json() if pick % 2 else span])
            spans.append(span.span_id)
        # FIFO by root: the newest ``capacity`` roots, in arrival order.
        assert bounded.trace_ids() == rooted[-capacity:]
        assert len(bounded._indices) <= capacity
        assert _orphans(bounded) == []
    assert len(reference.trace_ids()) == count
    for tid in bounded.trace_ids():
        assert bounded.canonical(tid) == reference.canonical(tid)
        assert bounded.spans(tid) == reference.spans(tid)


def test_digest_covers_trace_id_set_and_tree_bytes():
    one, two = Tracer(), Tracer()
    for tracer in (one, two):
        tracer.record(trace_id_for("k", 1), "downgrade", session="s1")
    assert one.digest() == two.digest()
    two.record(trace_id_for("k", 2), "downgrade", session="s2")
    assert one.digest() != two.digest()


def test_null_tracer_is_falsy_with_stable_digest():
    assert not NULL_TRACER and Tracer()
    assert NULL_TRACER.record(trace_id_for("k", 1), "x") is None
    assert NULL_TRACER.trace_ids() == [] and NULL_TRACER.trees() == {}
    assert NULL_TRACER.digest() == NullTracer().digest()
    # An empty real tracer digests to the same seed value: "no traces"
    # is one well-defined state, observed or not.
    assert Tracer().digest() == NULL_TRACER.digest()
