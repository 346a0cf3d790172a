"""Replay-stable request tracing for the serving runtime.

A trace reconstructs one downgrade's path through the stack — gateway
admission, shard serve, mirror-ledger fold — as a tree of named spans.
What makes this tracer unusual is the replay contract it inherits from
the journal (:mod:`repro.server.journal`):

* **identities are derived, never drawn.**  A trace id is a digest of
  the request's idempotency key and journal sequence number
  (:func:`trace_id_for`); a span id is a digest of its trace, parent,
  name, and per-parent occurrence index (:func:`span_id_for`).  No wall
  clock, no randomness — so re-executing a journal
  (:class:`~repro.server.replay.ReplaySession`) reproduces the same
  ids.
* **the canonical tree excludes transport.**  Spans carry a
  ``transport`` flag: gateway↔shard submission and the per-tick mirror
  fold are real timeline events worth showing an operator, but a
  replayed journal is served inline (no shards), so transport spans
  cannot be part of the bit-identity contract.  :meth:`Tracer.tree`
  returns only decision spans — name, attributes, children — and
  :meth:`Tracer.digest` chains their canonical JSON, which is the value
  replay compares.  Durations (``elapsed``) are wall-clock and likewise
  excluded from the canonical form.
* **attributes are decision-channel.**  Span attributes may carry only
  secret-independent facts (session id, query name, the pair-checked
  admission/authorization verdicts and refusal ``kind``) — never
  responses or knowledge sizes.  The secret-independence net in
  tests/obs/test_secret_independence.py holds trace trees to the same
  bit-identity standard as ``decision``-channel metrics.

Spans cross the gateway→shard process boundary inside the existing JSON
job payloads (a ``traces`` fragment on ``downgrade_batch`` ops) and ride
home encoded by :meth:`Span.to_json` in the batch response's ``obs``
piggyback, where the gateway's tracer :meth:`~Tracer.absorb` s them.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "span_id_for",
    "trace_id_for",
]

_TRACE_SEED = "anosy-trace-v1"


def trace_id_for(key: str, seq: int) -> str:
    """The deterministic trace id of one journaled request.

    ``key`` is the request's idempotency key (client-provided or the
    journal's ``auto/...`` key); ``seq`` its journal sequence number.
    Unjournaled servers pass a local monotone counter as ``seq`` with a
    synthetic key — still deterministic within a run, though only
    journaled histories carry the cross-restart replay guarantee.
    """
    raw = f"{_TRACE_SEED}|{key}|{seq}".encode("utf-8")
    return hashlib.sha256(raw).hexdigest()[:32]


def span_id_for(trace_id: str, parent_id: str | None, name: str, index: int) -> str:
    """The deterministic id of the ``index``-th ``name`` span under a parent."""
    raw = f"{_TRACE_SEED}|{trace_id}|{parent_id or ''}|{name}|{index}"
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Span:
    """One finished span.  Identity fields are deterministic; ``elapsed``
    is wall-clock and excluded from the canonical tree."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    attrs: Mapping[str, Any] = field(default_factory=dict)
    transport: bool = False
    elapsed: float = 0.0

    def to_json(self) -> dict[str, Any]:
        """Encode for the shard→gateway piggyback."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attrs": dict(self.attrs),
            "transport": self.transport,
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Span":
        """Decode a span encoded by :meth:`to_json`."""
        return cls(
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            name=data["name"],
            attrs=dict(data.get("attrs", {})),
            transport=bool(data.get("transport", False)),
            elapsed=float(data.get("elapsed", 0.0)),
        )


class Tracer:
    """Collects finished spans per trace; bounded, thread-safe.

    ``capacity`` bounds the number of *traces* retained so a long-lived
    gateway cannot grow without bound; the replay and secret-independence
    suites size it to cover their whole runs.  Retention is FIFO by
    root: only a root span (``parent_id is None``) opens a trace, and
    opening one past capacity evicts the oldest retained trace together
    with its span-index counters, in O(1).  A non-root span of a trace
    that is not retained (evicted, or never rooted here) is dropped, so
    a burst of roots can never leave root-less fragments behind.
    Retention is a function of root arrival order alone — never of a
    verdict or any other span attribute.
    """

    def __init__(self, capacity: int = 1024):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._spans: dict[str, list[Span]] = {}
        # Per-trace occurrence counters, keyed like ``_spans``:
        # trace id -> {(parent id, name): next index}.
        self._indices: dict[str, dict[tuple[str | None, str], int]] = {}

    def __bool__(self) -> bool:
        return True

    # -- recording ---------------------------------------------------------
    def record(
        self,
        trace_id: str,
        name: str,
        *,
        parent_id: str | None = None,
        transport: bool = False,
        elapsed: float = 0.0,
        **attrs: Any,
    ) -> Span:
        """Finish one span now; returns it (its id names it as a parent).

        A non-root span of a trace that is not retained is returned (with
        occurrence index 0) but not kept.
        """
        with self._lock:
            counters = self._indices.get(trace_id)
            if counters is None and parent_id is None:
                counters = self._open(trace_id)
            index = 0
            if counters is not None:
                index = counters.get((parent_id, name), 0)
                counters[(parent_id, name)] = index + 1
            span = Span(
                trace_id=trace_id,
                span_id=span_id_for(trace_id, parent_id, name, index),
                parent_id=parent_id,
                name=name,
                attrs=attrs,
                transport=transport,
                elapsed=elapsed,
            )
            if counters is not None:
                self._spans[trace_id].append(span)
            return span

    def absorb(self, spans: Iterable[Span | Mapping[str, Any]]) -> None:
        """Fold finished spans that already carry their ids.

        Shard piggybacks arrive as JSON; the gateway's serving core hands
        over :class:`Span` objects.  Retention follows :meth:`record`'s
        rule: a root opens its trace, any other span joins a retained
        trace or is dropped.
        """
        with self._lock:
            for span in spans:
                if not isinstance(span, Span):
                    span = Span.from_json(span)
                bucket = self._spans.get(span.trace_id)
                if bucket is None:
                    if span.parent_id is not None:
                        continue
                    self._open(span.trace_id)
                    bucket = self._spans[span.trace_id]
                bucket.append(span)

    def _open(self, trace_id: str) -> dict[tuple[str | None, str], int]:
        """Start retaining a trace, evicting the oldest one past capacity."""
        if len(self._spans) >= self.capacity:
            oldest = next(iter(self._spans))
            del self._spans[oldest]
            del self._indices[oldest]
        self._spans[trace_id] = []
        counters = self._indices[trace_id] = {}
        return counters

    # -- reading -----------------------------------------------------------
    def trace_ids(self) -> list[str]:
        """Retained trace ids, oldest first."""
        with self._lock:
            return list(self._spans)

    def spans(self, trace_id: str) -> list[Span]:
        """All spans of one trace, in arrival order (transport included)."""
        with self._lock:
            return list(self._spans.get(trace_id, ()))

    def tree(self, trace_id: str) -> dict[str, Any] | None:
        """The canonical decision tree of one trace (see module doc).

        ``{"name", "attrs", "children"}`` with children sorted by
        ``(name, span_id)`` — a pure function of the decision spans, so
        byte-identical across a run and its replay.  Returns ``None``
        for unknown traces; multiple roots collapse under a synthetic
        ``"trace"`` node (should not happen in practice).
        """
        with self._lock:
            spans = list(self._spans.get(trace_id, ()))
        decision = [span for span in spans if not span.transport]
        if not decision:
            return None
        by_parent: dict[str | None, list[Span]] = {}
        ids = {span.span_id for span in decision}
        for span in decision:
            parent = span.parent_id if span.parent_id in ids else None
            by_parent.setdefault(parent, []).append(span)

        def build(span: Span) -> dict[str, Any]:
            children = sorted(
                by_parent.get(span.span_id, ()),
                key=lambda child: (child.name, child.span_id),
            )
            return {
                "name": span.name,
                "attrs": {k: span.attrs[k] for k in sorted(span.attrs)},
                "children": [build(child) for child in children],
            }

        roots = sorted(
            by_parent.get(None, ()), key=lambda span: (span.name, span.span_id)
        )
        if len(roots) == 1:
            return build(roots[0])
        return {
            "name": "trace",
            "attrs": {},
            "children": [build(root) for root in roots],
        }

    def trees(self) -> dict[str, dict[str, Any]]:
        """Canonical trees of every retained trace, keyed by trace id."""
        return {
            trace_id: tree
            for trace_id in self.trace_ids()
            if (tree := self.tree(trace_id)) is not None
        }

    def canonical(self, trace_id: str) -> str | None:
        """The canonical JSON bytes of one trace tree."""
        tree = self.tree(trace_id)
        if tree is None:
            return None
        return json.dumps(tree, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """One digest over every retained trace tree, in trace-id order.

        The unit the replay conformance check compares: equal digests
        mean byte-identical canonical trees for byte-identical trace-id
        sets.
        """
        hasher = hashlib.sha256(_TRACE_SEED.encode("utf-8"))
        for trace_id in sorted(self.trace_ids()):
            canonical = self.canonical(trace_id)
            if canonical is None:
                continue
            hasher.update(trace_id.encode("utf-8"))
            hasher.update(b"|")
            hasher.update(canonical.encode("utf-8"))
            hasher.update(b"\n")
        return hasher.hexdigest()


class NullTracer:
    """The no-op tracer (falsy, like the null registry)."""

    def __bool__(self) -> bool:
        return False

    def record(self, trace_id: str, name: str, **kwargs: Any) -> None:
        """Drop the span."""
        return None

    def absorb(self, spans: Iterable[Mapping[str, Any]]) -> None:
        """Drop the spans."""

    def trace_ids(self) -> list[str]:
        """Always empty."""
        return []

    def spans(self, trace_id: str) -> list:
        """Always empty."""
        return []

    def tree(self, trace_id: str) -> None:
        """Always ``None``."""
        return None

    def trees(self) -> dict:
        """Always empty."""
        return {}

    def canonical(self, trace_id: str) -> None:
        """Always ``None``."""
        return None

    def digest(self) -> str:
        """The empty-tracer digest (equal across all null tracers)."""
        return hashlib.sha256(_TRACE_SEED.encode("utf-8")).hexdigest()


#: The shared no-op tracer.
NULL_TRACER = NullTracer()
