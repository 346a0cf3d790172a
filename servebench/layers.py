"""Per-layer timing from outside the program: wrappers, spans, summaries.

The traced run installs :class:`Tracing` before any server exists.  It
replaces public entry points of each layer — on their classes or
modules, so every instance and every importer sees the wrapper — with
thin timers that append one span ``(name, start, end, n, extra)`` to an
in-memory :class:`SpanLog`.  Nothing in ``src/`` changes.

Serving shards fork from the gateway after the wrappers are installed,
so the same wrappers run inside them.  Their spans come home on the
shard's own response: the wrapped ``serve_payload`` appends one line of
JSON after the response body, and the wrapped
``ServingShardPool.decode`` strips it before the real decoder runs.
``time.perf_counter`` reads ``CLOCK_MONOTONIC``, which every process on
the host shares, so child spans land on the gateway's timeline.

:func:`summarize` turns the spans of the measured window into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import bisect
import functools
import json
import os
import statistics
import time
from typing import Any, Callable

from repro.obs.hub import MetricsHub
from repro.obs.trace import Tracer
from repro.server import edge as edge_mod
from repro.server import gateway as gateway_mod
from repro.server import workers as workers_mod
from repro.server.gateway import DeclassificationServer
from repro.server.journal import RequestJournal
from repro.server.ledger import PrivacyBudgetLedger
from repro.server.supervise import ShardSupervisor
from repro.server.workers import ServingShardPool, ShardedCompilePool
from repro.service.api import DeclassificationService
from repro.service.session import SessionManager

pc = time.perf_counter


class SpanLog:
    """Spans of one process, in arrival order (appends are GIL-atomic)."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple[str, float, float, int, Any]] = []

    def add(self, name: str, start: float, end: float, n: int = 1, extra: Any = None) -> None:
        self.spans.append((name, start, end, n, extra))

    def claim(self) -> None:
        """In a freshly forked child, drop the spans copied from the gateway."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []

    def take(self) -> list:
        """Every span recorded so far, leaving the log empty."""
        spans, self.spans = self.spans, []
        return spans


class Tracing:
    """Install (and later remove) every layer wrapper around one SpanLog."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self.gateway_pid = os.getpid()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- patching ------------------------------------------------------------
    def _patch(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[name]
        static = isinstance(raw, staticmethod)
        orig = raw.__func__ if static else raw
        new = functools.wraps(orig)(make(orig))
        setattr(owner, name, staticmethod(new) if static else new)
        self._undo.append((owner, name, raw))

    def _timed(self, owner: Any, name: str, span: str, count: Callable | None = None) -> None:
        """Wrap a synchronous callable: one span per call."""
        log = self.log

        def make(orig):
            def wrapper(*args, **kwargs):
                start = pc()
                out = orig(*args, **kwargs)
                log.add(span, start, pc(), 1 if count is None else count(args, out))
                return out

            return wrapper

        self._patch(owner, name, make)

    def _timed_async(self, owner: Any, name: str, span: str, extra: Callable | None = None) -> None:
        """Wrap a coroutine method: one span from call to resolution."""
        log = self.log

        def make(orig):
            async def wrapper(*args, **kwargs):
                start = pc()
                out = await orig(*args, **kwargs)
                log.add(span, start, pc(), 1, None if extra is None else extra(args, kwargs, out))
                return out

            return wrapper

        self._patch(owner, name, make)

    def install(self) -> None:
        log = self.log
        gw = DeclassificationServer

        # server.gateway: request lifetimes, ticks, control calls.
        self._timed_async(gw, "downgrade", "gateway.downgrade",
                          extra=lambda a, kw, out: kw.get("idempotency_key"))
        self._timed_async(gw, "flush", "gateway.flush", extra=lambda a, kw, out: out)
        self._timed_async(gw, "register_query", "compile.register")
        for name in ("open_session", "close_session", "advance_epoch"):
            self._keyed(gw, name, f"gateway.{name}")
        self._timed(gw, "metrics_text", "obs.scrape")

        # service.session / service.api
        self._timed(SessionManager, "downgrade_batch", "session.downgrade_batch",
                    count=lambda a, out: len(out))
        self._timed(DeclassificationService, "handle_batch", "api.handle_batch",
                    count=lambda a, out: len(out))
        self._timed(DeclassificationService, "open_session", "api.lifecycle")
        self._timed(DeclassificationService, "close_session", "api.lifecycle")

        # server.ledger
        self._patch(PrivacyBudgetLedger, "preauthorize_batch", self._admission)
        self._timed(PrivacyBudgetLedger, "commit", "ledger.commit")
        self._timed(PrivacyBudgetLedger, "advance_epoch", "ledger.epoch")
        self._timed(PrivacyBudgetLedger, "apply_payload", "ledger.apply")

        # service.serialize, at every importer that calls the per-result codec.
        for module in (workers_mod, gateway_mod, edge_mod):
            self._timed(module, "downgrade_result_to_json", "codec.encode")
        self._patch(ServingShardPool, "decode", self._decode)

        # server.workers: submit -> future done; the shard side piggybacks.
        self._patch(ServingShardPool, "submit", self._submit("workers.job"))
        self._patch(ShardedCompilePool, "submit", self._submit("compile.job"))
        self._patch(workers_mod, "serve_payload", self._serve_payload)

        # server.supervise
        self._timed(ShardSupervisor, "open_fraction", "supervise.open_fraction")

        def supervise(orig):
            async def wrapper(self, pool, shard, attempt, **kwargs):
                calls = 0

                async def counted():
                    nonlocal calls
                    calls += 1
                    return await attempt()

                start = pc()
                out = await orig(self, pool, shard, counted, **kwargs)
                log.add("supervise.job", start, pc(), calls)
                return out

            return wrapper

        self._patch(ShardSupervisor, "supervise", supervise)

        # server.journal (+ store underneath)
        self._patch(RequestJournal, "begin_many", self._begin_many)
        self._timed(RequestJournal, "ack", "journal.ack")
        self._timed(RequestJournal, "ack_many", "journal.ack_many",
                    count=lambda a, out: len(out))
        self._timed(RequestJournal, "recorded_response", "journal.lookup",
                    count=lambda a, out: 0 if out is None else 1)

        # obs
        self._timed(Tracer, "record", "obs.record")
        self._timed(MetricsHub, "absorb", "obs.absorb",
                    count=lambda a, out: len((a[1] or {}).get("spans") or ()))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    # -- special wrappers ------------------------------------------------------
    def _keyed(self, owner: Any, name: str, span: str) -> None:
        """A synchronous gateway call whose span remembers its idempotency key."""
        log = self.log

        def make(orig):
            def wrapper(*args, **kwargs):
                start = pc()
                out = orig(*args, **kwargs)
                log.add(span, start, pc(), 1, kwargs.get("idempotency_key"))
                return out

            return wrapper

        self._patch(owner, name, make)

    def _admission(self, orig):
        """``preauthorize_batch``: time, refusals, and distinct priors."""
        log = self.log

        def wrapper(self, user_ids, qinfo, **kwargs):
            ids = list(user_ids)
            start = pc()
            out = orig(self, ids, qinfo, **kwargs)
            end = pc()
            distinct = len({self.sound_bound(uid, qinfo.secret) for uid in set(ids)})
            refused = sum(1 for d in out.values() if not d.allowed)
            log.add("ledger.admit", start, end, len(out), (refused, distinct))
            return out

        return wrapper

    def _begin_many(self, orig):
        """One append transaction; extra = entries already acked (duplicates)."""
        log = self.log

        def wrapper(self, items):
            start = pc()
            out = orig(self, items)
            end = pc()
            done = sum(1 for entry in out if entry.status == "done")
            log.add("journal.begin", start, end, len(out) - done, done)
            return out

        return wrapper

    def _submit(self, span: str):
        log = self.log

        def make(orig):
            def wrapper(*args, **kwargs):
                start = pc()
                future = orig(*args, **kwargs)

                def done(fut):
                    size = 0
                    if not fut.cancelled() and fut.exception() is None:
                        size = len(fut.result().rpartition("\n")[0] or fut.result())
                    log.add(span, start, pc(), 1, size)

                future.add_done_callback(done)
                return future

            return wrapper

        return make

    def _serve_payload(self, orig):
        log, gateway_pid = self.log, self.gateway_pid

        def wrapper(payload):
            child = os.getpid() != gateway_pid
            if child:
                log.claim()
            start = pc()
            response = orig(payload)
            log.add("workers.serve", start, pc(), 1, len(payload))
            if not child:
                return response  # inline serving: the spans are already home
            return response + "\n" + json.dumps(log.take())

        return wrapper

    def _decode(self, orig):
        log = self.log

        def wrapper(result_json):
            body, sep, tail = result_json.rpartition("\n")
            if sep:
                for name, start, end, n, extra in json.loads(tail):
                    log.add(name, start, end, n, extra)
                result_json = body
            start = pc()
            out = orig(result_json)
            log.add("codec.decode", start, pc(), len(out["results"]), len(result_json))
            return out

        return wrapper


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

#: Spans that measure waiting, not work: excluded from coverage.
_WAITING = {"gateway.downgrade"}
#: Layers whose spans nest inside a gateway tick (its children).
_TICK_CHILDREN = ("session.", "api.", "ledger.", "codec.", "workers.",
                  "supervise.", "journal.", "obs.")


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


def _covered(merged: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by disjoint sorted intervals."""
    i = max(0, bisect.bisect_right(merged, (lo, float("inf"))) - 1)
    total = 0.0
    while i < len(merged) and merged[i][0] < hi:
        a, b = merged[i]
        total += max(0.0, min(b, hi) - max(a, lo))
        i += 1
    return total


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def summarize(
    spans: list[tuple[str, float, float, int, Any]],
    window: tuple[float, float],
    setup_window: tuple[float, float],
    *,
    edge_requests: list[tuple[float, float, str | None]],
) -> dict[str, float]:
    """Per-layer metrics of the measured window (compile: of the kept setup).

    ``edge_requests`` are the client's ``(start, end, idempotency key)``
    round trips; empty when the workload does not go through HTTP.
    """
    lo, hi = window
    by: dict[str, list[tuple[float, float, int, Any]]] = {}
    for name, start, end, n, extra in spans:
        if lo <= start < hi:
            by.setdefault(name, []).append((start, end, n, extra))

    def spans_of(name):
        return by.get(name, [])

    def busy(name):
        return sum(end - start for start, end, _n, _x in spans_of(name))

    def count(name):
        return sum(n for _s, _e, n, _x in spans_of(name))

    m: dict[str, float] = {}

    # edge: client round trip minus the gateway call it caused.
    gateway_by_key: dict[str, float] = {}
    for name in ("gateway.downgrade", "gateway.open_session",
                 "gateway.close_session", "gateway.advance_epoch"):
        for start, end, _n, key in spans_of(name):
            if key is not None and key not in gateway_by_key:
                gateway_by_key[key] = end - start
    edge_self = []
    answered: set[str] = set()  # a retry's gateway call is a journal lookup
    for start, end, key in edge_requests:
        if lo <= start < hi and key in gateway_by_key and key not in answered:
            answered.add(key)
            edge_self.append((end - start - gateway_by_key[key]) * 1e3)
    m["edge.self_ms_p50"] = statistics.median(edge_self) if edge_self else 0.0
    m["edge.requests"] = float(sum(1 for start, _e, _k in edge_requests if lo <= start < hi))

    # gateway: ticks, queue wait, self time.
    flushes = sorted(spans_of("gateway.flush"))
    starts: list[float] = []
    previous_end = float("-inf")
    ticks = []
    for start, end, _n, served in flushes:
        begun = max(start, previous_end)
        previous_end = end
        if served:
            starts.append(begun)
            ticks.append((begun, end, served))
    first_seen: set[str] = set()
    waits = []
    for start, _end, _n, key in spans_of("gateway.downgrade"):
        if key is not None:
            if key in first_seen:
                continue
            first_seen.add(key)
        i = bisect.bisect_left(starts, start)
        if i < len(starts):
            waits.append((starts[i] - start) * 1e3)
    tick_ms = [(end - begun) * 1e3 for begun, end, _s in ticks]
    m["gateway.queue_wait_ms_p50"] = statistics.median(waits) if waits else 0.0
    m["gateway.tick_ms_p50"] = statistics.median(tick_ms) if tick_ms else 0.0
    m["gateway.tick_ms_p99"] = quantile(tick_ms, 0.99)
    m["gateway.batch_mean"] = (
        sum(s for _b, _e, s in ticks) / len(ticks) if ticks else 0.0
    )
    m["gateway.ticks"] = float(len(ticks))
    children = _union([
        (start, end)
        for name, items in by.items()
        if name.startswith(_TICK_CHILDREN) and name not in _WAITING
        for start, end, _n, _x in items
    ])
    m["gateway.self_s"] = sum(
        (end - begun) - _covered(children, begun, end) for begun, end, _s in ticks
    )
    m["_gateway.served"] = float(sum(s for _b, _e, s in ticks))

    # service.session
    calls = spans_of("session.downgrade_batch")
    m["session.calls"] = float(len(calls))
    m["session.busy_s"] = busy("session.downgrade_batch")
    served = count("session.downgrade_batch")
    m["session.us_per_downgrade"] = m["session.busy_s"] / served * 1e6 if served else 0.0

    # service.api: handle_batch minus the downgrade_batch nested in it.
    sessions = _union([(s, e) for s, e, _n, _x in calls])
    result_self = sum(
        (end - start) - _covered(sessions, start, end)
        for start, end, _n, _x in spans_of("api.handle_batch")
    )
    results = count("api.handle_batch")
    m["api.result_self_s"] = result_self
    m["api.us_per_result"] = result_self / results * 1e6 if results else 0.0
    m["api.lifecycle_s"] = busy("api.lifecycle")

    # server.ledger
    admits = spans_of("ledger.admit")
    admitted_users = sum(n for _s, _e, n, _x in admits)
    m["ledger.admit_s"] = busy("ledger.admit")
    m["ledger.commit_s"] = busy("ledger.commit")
    m["ledger.apply_s"] = busy("ledger.apply")
    epochs = [(e - s) * 1e3 for s, e, _n, _x in spans_of("ledger.epoch")]
    m["ledger.epoch_ms_p50"] = statistics.median(epochs) if epochs else 0.0
    m["ledger.refusals"] = float(sum(x[0] for _s, _e, _n, x in admits))
    m["ledger.distinct_prior_frac"] = (
        sum(x[1] for _s, _e, _n, x in admits) / admitted_users if admitted_users else 0.0
    )

    # service.serialize
    decodes = spans_of("codec.decode")
    decoded = sum(n for _s, _e, n, _x in decodes)
    m["codec.encode_s"] = busy("codec.encode")
    m["codec.decode_s"] = busy("codec.decode")
    m["codec.bytes_per_result"] = (
        sum(x for _s, _e, _n, x in decodes) / decoded if decoded else 0.0
    )

    # server.workers
    jobs = spans_of("workers.job")
    m["workers.jobs"] = float(len(jobs))
    m["workers.roundtrip_ms_p50"] = (
        statistics.median([(e - s) * 1e3 for s, e, _n, _x in jobs]) if jobs else 0.0
    )
    served_jobs = spans_of("workers.serve")
    m["workers.request_bytes"] = (
        sum(x for _s, _e, _n, x in served_jobs) / len(served_jobs) if served_jobs else 0.0
    )
    m["workers.response_bytes"] = (
        sum(x for _s, _e, _n, x in jobs) / len(jobs) if jobs else 0.0
    )

    # server.supervise
    m["supervise.open_fraction_calls"] = float(len(spans_of("supervise.open_fraction")))
    m["supervise.open_fraction_s"] = busy("supervise.open_fraction")
    m["supervise.retries"] = float(
        sum(max(0, n - 1) for _s, _e, n, _x in spans_of("supervise.job"))
    )

    # server.journal
    begins = spans_of("journal.begin")
    appended = sum(n for _s, _e, n, _x in begins)
    acked = count("journal.ack") + count("journal.ack_many")
    txns = (
        len(spans_of("journal.begin"))
        + len(spans_of("journal.ack"))
        + sum(1 for _s, _e, n, _x in spans_of("journal.ack_many") if n)
    )
    m["journal.begin_s"] = busy("journal.begin")
    m["journal.ack_s"] = busy("journal.ack") + busy("journal.ack_many")
    m["journal.txns"] = float(txns)
    m["journal.entries_per_txn"] = (appended + acked) / txns if txns else 0.0
    m["journal.duplicates"] = float(
        count("journal.lookup") + sum(x for _s, _e, _n, x in begins)
    )
    m["_journal.appends"] = float(appended)

    # obs
    m["obs.record_s"] = busy("obs.record")
    m["obs.absorb_s"] = busy("obs.absorb")
    m["obs.spans"] = float(len(spans_of("obs.record")) + count("obs.absorb"))
    scrapes = [(e - s) * 1e3 for s, e, _n, _x in spans_of("obs.scrape")]
    m["obs.scrape_ms_p50"] = statistics.median(scrapes) if scrapes else 0.0

    # core.plugin / solver: the kept server's setup.
    slo, shi = setup_window
    compile_jobs = [(s, e) for name, s, e, _n, _x in spans
                    if name == "compile.job" and slo <= s < shi]
    registers = sum(1 for name, s, _e, _n, _x in spans
                    if name == "compile.register" and slo <= s < shi)
    m["compile.count"] = float(len(compile_jobs))
    m["compile.ms_p50"] = (
        statistics.median([(e - s) * 1e3 for s, e in compile_jobs]) if compile_jobs else 0.0
    )
    m["compile.cache_hits"] = float(registers - len(compile_jobs))

    # Coverage of the measured window by any layer span.
    covering = [
        (max(start, lo), min(end, hi))
        for name, items in by.items()
        if name not in _WAITING
        for start, end, _n, _x in items
    ] + [(max(s, lo), min(e, hi)) for s, e, _k in edge_requests if lo <= s < hi]
    covered = sum(b - a for a, b in _union([iv for iv in covering if iv[1] > iv[0]]))
    m["trace.unattributed_frac"] = 1.0 - covered / (hi - lo)
    return m
