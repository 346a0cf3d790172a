"""The sharded worker tier: synthesis *and* warm-path serving, off the gateway.

Two kinds of work run in worker processes here, each sharded by a stable
content hash so per-process state stays hot:

* **Compiles** (:class:`ShardedCompilePool`) — synthesis jobs routed by
  the canonical query hash (:func:`~repro.lang.canonical.stable_hash` of
  the canonicalized AST).  Routing by content rather than round-robin
  means alpha-equivalent queries always land on the same shard, whose
  per-process :class:`SynthesisCache` and hash-consed kernel memos stay
  hot — the N-th tenant registering a reordered copy of a query compiles
  nothing even before the shared store sees the artifact.
* **Serving** (:class:`ServingShardPool`) — downgrade batches routed by
  :func:`serve_shard_of` over the durable *user id*, so every session of
  one user lands on the shard that owns that user's
  :class:`~repro.service.session.SessionManager` slice and
  :class:`~repro.server.ledger.PrivacyBudgetLedger` account.  Each shard
  serves them through its own :class:`~repro.server.core.ServingCore`
  inside the shard process (one Python runtime per shard, no gateway GIL
  contention) while ledger deltas flow back to the gateway for durable
  write-through.

Jobs cross the process boundary as JSON (the
:func:`~repro.service.serialize.options_to_json` /
:func:`~repro.service.serialize.compiled_query_to_json` /
:func:`~repro.service.serialize.downgrade_result_to_json` codecs), never
as pickles: the exact bytes a worker returns are the bytes the store
persists.

Admission control is per compile shard: each shard accepts a bounded
number of in-flight jobs and sheds the rest (:class:`ShardOverloaded`)
instead of queueing unboundedly — a loaded synthesis tier must fail
fast, not grow a latency cliff.  (Serving jobs are bounded upstream by
the gateway's ``max_queued_downgrades``.)

``inline=True`` replaces the process pools with synchronous in-process
execution of the *same* payload codec path; tests and coverage runs use
it, and single-core deployments may prefer it.

Failures at the process boundary are *typed* (see
:mod:`repro.server.supervise`): a dead worker surfaces as
:class:`~repro.server.supervise.ShardCrash`, an undecodable result as
:class:`~repro.server.supervise.CodecError` — never as a bare
``BaseException`` caught somewhere upstream.  Both pools support
:meth:`restart_shard` (replace a broken executor; in-flight futures
settle with ``BrokenProcessPool`` and release their admission slots) and
carry an optional :class:`~repro.server.faults.FaultPlan` inside job
payloads so the chaos suite can fault worker processes deterministically.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.core.plugin import CompiledQuery, CompileOptions, QueryRegistry, compile_query
from repro.lang.ast import BoolExpr
from repro.lang.canonical import (
    canonicalize,
    expr_from_json,
    expr_to_json,
    spec_from_json,
    spec_to_json,
    stable_hash,
)
from repro.lang.parser import parse_bool
from repro.lang.secrets import SecretSpec
from repro.monad.protected import ProtectedSecret
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.server import faults
from repro.server.core import ServingCore, result_kind, rounds_by_user
from repro.server.ledger import DecayPolicy, PrivacyBudgetLedger
from repro.server.supervise import CodecError, classify_failure
from repro.service.api import DowngradeResult
from repro.service.cache import SynthesisCache
from repro.service.serialize import (
    compiled_query_from_json,
    compiled_query_to_json,
    downgrade_result_from_json,
    downgrade_result_to_json,
    options_from_json,
    options_to_json,
    policy_from_json,
)
from repro.service.session import SessionManager

__all__ = [
    "ShardOverloaded",
    "ShardStats",
    "ShardedCompilePool",
    "ServingShardPool",
    "compile_payload",
    "ping_payload",
    "serve_payload",
    "shard_of",
    "serve_shard_of",
    "rounds_by_user",
    "result_kind",
]


class ShardOverloaded(RuntimeError):
    """Admission control refused a job: the shard's queue bound is full."""


def shard_of(query: BoolExpr, shards: int) -> int:
    """The shard a query routes to: canonical content hash mod shard count.

    Canonicalization first, so every alpha-equivalent spelling of a query
    (``a + b`` vs ``b + a``) routes to the same shard and reuses its warm
    memos.
    """
    return int(stable_hash(canonicalize(query))[:16], 16) % shards


def serve_shard_of(user_id: str, shards: int) -> int:
    """The serving shard that owns a user: stable text hash mod shard count.

    Hashes the durable *user* identity, not the session id, so every
    session (and reconnect) of one user lands where that user's ledger
    account and open sessions live — the locality the per-shard budget
    discipline depends on.  SHA-256, not ``hash()``: routing must agree
    across processes and interpreter restarts.
    """
    digest = hashlib.sha256(user_id.encode("utf-8")).hexdigest()
    return int(digest[:16], 16) % shards


# ---------------------------------------------------------------------------
# The worker entry point (runs inside shard processes)
# ---------------------------------------------------------------------------

#: Per-process artifact cache: repeated jobs on one shard skip synthesis
#: entirely even before the shared store sees the artifact.
_PROCESS_CACHE: SynthesisCache | None = None


def _process_cache() -> SynthesisCache:
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = SynthesisCache()
    return _PROCESS_CACHE


def compile_payload(payload: str) -> str:
    """Compile one JSON job; the module-level entry point shard processes run.

    The result carries the full artifact encoding plus worker-side
    provenance (pid, whether the shard's local cache already had it).
    Compiles are pure and content-addressed, so the fault hooks here are
    trivially retry-safe: re-running a job (or running it twice, under a
    ``duplicate_delivery`` fault) yields the identical artifact.
    """
    data = json.loads(payload)
    faults.install_from_payload(data.get("faults"))
    faults.maybe_crash("compile", "crash_before_result")
    faults.maybe_delay("compile")
    query = expr_from_json(data["query"])
    secret = spec_from_json(data["secret"])
    options = options_from_json(data["options"])
    cache = _process_cache()
    hits_before = cache.stats.hits
    compiled = compile_query(data["name"], query, secret, options, cache=cache)
    if faults.should_duplicate("compile"):
        # At-least-once delivery: the second run must be a cache hit and
        # produce the same artifact.
        compiled = compile_query(data["name"], query, secret, options, cache=cache)
    faults.maybe_crash("compile", "crash_after_commit")
    result = json.dumps(
        {
            "artifact": compiled_query_to_json(compiled),
            "pid": os.getpid(),
            "shard_cache_hit": cache.stats.hits > hits_before,
        }
    )
    return faults.maybe_corrupt("compile", result)


def ping_payload(payload: str) -> str:
    """Heartbeat entry point: proves the worker process is alive.

    Deliberately does no work and fires no faults — a ping measures the
    process, not the job pipeline.
    """
    del payload
    return json.dumps({"pid": os.getpid()})


# ---------------------------------------------------------------------------
# The serving-shard entry point (runs inside serving-shard processes)
# ---------------------------------------------------------------------------


class _ServingShard:
    """One shard's slice of the serving state (lives in a shard process).

    A :class:`~repro.server.core.ServingCore` built from the gateway's
    ``configure`` op — a :class:`~repro.service.session.SessionManager`
    for the sessions routed here and a local
    :class:`~repro.server.ledger.PrivacyBudgetLedger` for the users this
    shard owns — plus the lifecycle op handlers.  The local ledger is
    *enforcement* state; durability is the gateway's job — committed
    bounds travel back as deltas
    (:meth:`~repro.server.ledger.PrivacyBudgetLedger.export_bound`
    payloads) and the gateway writes them through its store-attached
    mirror.
    """

    def __init__(self, data: dict[str, Any]):
        floor = data.get("floor")
        decay = data.get("decay")
        #: Process-local telemetry: a real registry when the gateway's
        #: ``configure`` op asked for observation, else the null registry.
        #: Drained counters/spans ride home on every batch response
        #: (``obs`` piggyback) and fold into the gateway's hub.
        self.metrics: Any = (
            MetricsRegistry() if data.get("observe") else NULL_REGISTRY
        )
        self.manager = SessionManager(
            registry=QueryRegistry(),
            policy=policy_from_json(data["policy"]),
            mode=data["mode"],
            check_both=data["check_both"],
            metrics=self.metrics,
        )
        self.ledger = (
            None
            if floor is None
            else PrivacyBudgetLedger(
                policy_from_json(floor),
                decay=None if decay is None else DecayPolicy.from_json(decay),
            )
        )
        if self.ledger is not None:
            self.ledger.metrics = self.metrics
        self.core = ServingCore(self.manager, self.ledger)

    # -- ops ----------------------------------------------------------------
    def attach_query(self, op: dict[str, Any]) -> None:
        """Register a gateway-shipped compiled artifact (idempotent)."""
        if self.manager.registry.lookup(op["name"]) is None:
            self.manager.registry.register(
                compiled_query_from_json(op["artifact"])
            )

    def open_session(self, op: dict[str, Any]) -> None:
        """Open a session, restoring the user's persisted bounds if new.

        ``bounds`` carries the gateway mirror's payloads; they are
        applied only when this shard has not seen the user yet.  A user
        it has seen already holds the mirror's bound: the gateway
        re-configures a shard whose bounds may differ from the mirror's.
        """
        session_id, user_id = op["session_id"], op["user_id"]
        spec = spec_from_json(op["spec"])
        secret = ProtectedSecret.seal(spec, tuple(op["value"]))
        self.manager.open_session(session_id, secret)
        self.core.users[session_id] = user_id
        bounds = op.get("bounds")
        if bounds and self.ledger is not None and user_id not in self.ledger.users():
            for spec_name, payload in bounds.items():
                self.ledger.apply_payload(user_id, spec_name, payload)

    def close_session(self, op: dict[str, Any]) -> None:
        """Close a session; the user's ledger account stays (budgets do)."""
        self.manager.close_session(op["session_id"])
        self.core.users.pop(op["session_id"], None)

    def advance_epoch(self, op: dict[str, Any]) -> None:
        """Apply epoch decay to this shard's local ledger."""
        if self.ledger is not None and self.ledger.decay is not None:
            self.ledger.advance_epoch(int(op.get("epochs", 1)))

    def serve_batch(
        self,
        query_name: str,
        session_ids: list[str],
        traces: dict[str, Any] | None = None,
    ) -> tuple[list[DowngradeResult], list[dict[str, Any]], int]:
        """One query for this shard's slice of a tick, through the core.

        Returns the core's results and refusal count, with the committed
        bounds exported as ledger-delta payloads for the gateway mirror.
        """
        results, touched, refusals = self.core.serve_batch(
            query_name, session_ids, traces
        )
        deltas = [
            {
                "user_id": user_id,
                "spec_name": spec_name,
                "payload": self.ledger.export_bound(user_id, spec),
            }
            for (user_id, spec_name), spec in touched.items()
        ]
        return results, deltas, refusals


#: Per-process serving state, keyed by ``"<pool>/<shard>"``.  In a real
#: shard process exactly one key is ever populated; inline mode (tests,
#: single-core) holds every shard's state in the gateway process, and the
#: pool-id prefix keeps two inline pools in one process from colliding.
_SERVING_STATE: dict[str, _ServingShard] = {}


def serve_payload(payload: str) -> str:
    """Execute one JSON op sequence; the serving-shard process entry point.

    Ops arrive in gateway order — ``configure`` / ``attach_query`` /
    ``open_session`` / ``close_session`` / ``advance_epoch`` /
    ``downgrade_batch`` — and the response carries the encoded results
    of every ``downgrade_batch`` op, the ledger deltas to persist (each
    distinct bound payload once, see :meth:`ServingShardPool.decode`),
    the budget-refusal count, and worker provenance (pid).
    """
    data = json.loads(payload)
    faults.install_from_payload(data.get("faults"))
    faults.maybe_crash("serve", "crash_before_result")
    faults.maybe_delay("serve")
    shard_key = data["shard"]
    downgrades: list[dict[str, Any]] = []
    outputs: list[tuple[list[DowngradeResult], list[dict[str, Any]], int]] = []
    for op in data["ops"]:
        kind = op["op"]
        if kind == "configure":
            # Replaces whatever this process held: the gateway configures
            # a shard whenever it can no longer vouch for its state.
            _SERVING_STATE[shard_key] = _ServingShard(op)
            continue
        shard = _SERVING_STATE[shard_key]
        if kind == "attach_query":
            shard.attach_query(op)
        elif kind == "open_session":
            shard.open_session(op)
        elif kind == "close_session":
            shard.close_session(op)
        elif kind == "advance_epoch":
            shard.advance_epoch(op)
        elif kind == "downgrade_batch":
            downgrades.append(op)
            outputs.append(
                shard.serve_batch(
                    op["query_name"], op["session_ids"], op.get("traces")
                )
            )
        else:
            raise ValueError(f"unknown serving op {kind!r}")
    if downgrades and faults.should_duplicate("serve"):
        # At-least-once delivery: re-execute every answer-bearing op and
        # discard the re-run's outputs — the first delivery's response is
        # authoritative.  Lifecycle ops are not re-run (they are not
        # idempotent and, in gateway-built payloads, always precede the
        # downgrades).  The re-run either re-commits the same bounds
        # (idempotent intersections) or is refused by admission because
        # the first run already charged them; the ledger lands in the
        # same state either way.
        shard = _SERVING_STATE[shard_key]
        # The re-run's spans carry the same deterministic ids as the
        # first delivery's; keeping them would double every child in the
        # absorbed trace tree, so they are discarded with the outputs.
        span_mark = len(shard.core.spans)
        for op in downgrades:
            shard.serve_batch(op["query_name"], op["session_ids"])
        del shard.core.spans[span_mark:]
    faults.maybe_crash("serve", "crash_after_commit")
    results: list[dict[str, Any]] = []
    # Users folded to the same bounds share one export payload object;
    # each distinct payload ships once and deltas point into the table.
    bounds: list[dict[str, Any]] = []
    bound_index: dict[int, int] = {}
    deltas: list[tuple[str, str, int]] = []
    refusals = 0
    for batch_results, batch_deltas, batch_refusals in outputs:
        results.extend(downgrade_result_to_json(result) for result in batch_results)
        for delta in batch_deltas:
            payload = delta["payload"]
            index = bound_index.setdefault(id(payload), len(bounds))
            if index == len(bounds):
                bounds.append(payload)
            deltas.append((delta["user_id"], delta["spec_name"], index))
        refusals += batch_refusals
    body: dict[str, Any] = {
        "results": results,
        "bounds": bounds,
        "deltas": deltas,
        "budget_refusals": refusals,
        "pid": os.getpid(),
    }
    shard = _SERVING_STATE.get(shard_key)
    if shard is not None and (shard.metrics or shard.core.spans):
        obs: dict[str, Any] = {}
        if shard.metrics:
            obs["metrics"] = shard.metrics.drain()
        if shard.core.spans:
            obs["spans"] = [span.to_json() for span in shard.core.drain_spans()]
        body["obs"] = obs
    response = json.dumps(body)
    return faults.maybe_corrupt("serve", response)


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


@dataclass
class ShardStats:
    """Counters for one shard.

    ``shed`` counts admission refusals (the queue bound did its job);
    ``failed`` counts jobs the executor rejected *after* admission — the
    slot is released either way, so ``pending`` always returns to zero.
    """

    submitted: int = 0
    completed: int = 0
    shed: int = 0
    pending: int = 0
    failed: int = 0


def _kill_executor(executor: ProcessPoolExecutor | None) -> None:
    """Abruptly tear down one shard executor (possibly hung).

    Kills the worker processes first — a hung synthesis job cannot block
    shutdown — which settles every in-flight future with
    ``BrokenProcessPool``; their done-callbacks then release admission
    slots through the normal path.
    """
    if executor is None:
        return
    for process in list(getattr(executor, "_processes", {}).values()):
        process.kill()
    executor.shutdown(wait=False)


class _ProcessShards:
    """A fixed set of single-worker process shards, forked lazily.

    Each shard is a one-worker :class:`ProcessPoolExecutor`: a shard is a
    *unit of locality*, not a thread pool.  Subclasses route jobs and own
    the payloads; this base owns the executors and their lifecycle.
    """

    def __init__(self, shards: int, *, inline: bool):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.inline = inline
        #: Optional chaos schedule, shipped inside every job payload.
        self.fault_plan: faults.FaultPlan | None = None
        self._executors: list[ProcessPoolExecutor | None] = [None] * shards
        self._lock = threading.Lock()

    def _executor(self, shard: int) -> ProcessPoolExecutor:
        # Lazy: shards that never receive work never fork a process.
        with self._lock:
            executor = self._executors[shard]
            if executor is None:
                executor = ProcessPoolExecutor(
                    max_workers=1, **faults.executor_options(self.fault_plan)
                )
                self._executors[shard] = executor
            return executor

    # -- supervision ---------------------------------------------------------
    def restart_shard(self, shard: int) -> None:
        """Replace a (possibly broken or hung) shard executor.

        The old worker is killed, which settles its in-flight futures
        with ``BrokenProcessPool``; the next submit lazily forks a fresh
        process.  Inline pools have no process to replace.
        """
        with self._lock:
            executor = self._executors[shard]
            self._executors[shard] = None
        _kill_executor(executor)

    def ping(self, shard: int, *, timeout: float = 5.0) -> bool:
        """Heartbeat a shard: False means its worker is dead or hung."""
        if self.inline:
            return True
        try:
            self._executor(shard).submit(ping_payload, "{}").result(timeout=timeout)
            return True
        except Exception:
            return False

    # -- lifecycle -----------------------------------------------------------
    def shutdown(self, *, wait: bool = True) -> None:
        """Tear down every shard process (idempotent)."""
        with self._lock:
            executors = [ex for ex in self._executors if ex is not None]
            self._executors = [None] * self.shards
        for executor in executors:
            executor.shutdown(wait=wait)

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()


class ShardedCompilePool(_ProcessShards):
    """A fixed set of single-process shards, routed by canonical query hash.

    A shard is a *unit of memo locality*: widening one would split its
    warm cache.  Scale by adding shards.  Compile shards hold no
    authoritative state, only warm memos, so a restart loses nothing.
    """

    def __init__(
        self, shards: int = 1, *, max_pending: int = 8, inline: bool = False
    ):
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        super().__init__(shards, inline=inline)
        self.max_pending = max_pending
        #: Settable metrics registry (``repro.obs``); the gateway swaps
        #: in its hub's registry to see admissions and sheds.
        self.metrics: Any = NULL_REGISTRY
        self._stats = [ShardStats() for _ in range(shards)]

    # -- routing -----------------------------------------------------------
    def shard_for(self, query: BoolExpr | str) -> int:
        """The shard a query routes to (parses text queries first)."""
        if isinstance(query, str):
            query = parse_bool(query)
        return shard_of(query, self.shards)

    # -- submission ---------------------------------------------------------
    def payload_for(
        self,
        name: str,
        query: BoolExpr | str,
        secret: SecretSpec,
        options: CompileOptions,
        *,
        with_faults: bool = True,
    ) -> str:
        """Encode one compile job as payload JSON.

        ``with_faults=False`` builds a clean payload for degraded inline
        execution in the gateway process — a ``process``-mode crash fault
        must never fire there.
        """
        if isinstance(query, str):
            query = parse_bool(query)
        payload: dict[str, Any] = {
            "name": name,
            "query": expr_to_json(query),
            "secret": spec_to_json(secret),
            "options": options_to_json(options),
        }
        if with_faults:
            fragment = faults.encode_for_payload(self.fault_plan, simulate=self.inline)
            if fragment is not None:
                payload["faults"] = fragment
        return json.dumps(payload)

    def submit(
        self,
        name: str,
        query: BoolExpr | str,
        secret: SecretSpec,
        options: CompileOptions,
    ) -> Future:
        """Route a compile job to its shard; the future yields result JSON.

        Raises :class:`ShardOverloaded` (without queueing anything) when
        the shard already has ``max_pending`` jobs in flight.  Any other
        submit-time failure releases the admission slot it reserved —
        a broken executor must not eat the shard's capacity.
        """
        if isinstance(query, str):
            query = parse_bool(query)
        shard = self.shard_for(query)
        self._reserve(shard)
        try:
            payload = self.payload_for(name, query, secret, options)
            if self.inline:
                future: Future = Future()
                future.add_done_callback(lambda _f: self._release(shard))
                try:
                    future.set_result(compile_payload(payload))
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as exc:
                    future.set_exception(
                        classify_failure(exc, shard=shard, site="compile")
                    )
            else:
                future = self._executor(shard).submit(compile_payload, payload)
                future.add_done_callback(lambda _f: self._release(shard))
            return future
        except BaseException:
            self._release_failed(shard)
            raise

    @staticmethod
    def decode(result_json: str) -> tuple[CompiledQuery, dict]:
        """Decode a worker result into the artifact plus its provenance.

        An unparseable or structurally wrong result raises
        :class:`~repro.server.supervise.CodecError` — the supervisor
        treats it as a transient shard failure and retries.
        """
        try:
            data = json.loads(result_json)
            return compiled_query_from_json(data["artifact"]), {
                "pid": data["pid"],
                "shard_cache_hit": data["shard_cache_hit"],
            }
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CodecError(
                f"undecodable compile result: {exc}", site="compile"
            ) from exc

    # -- admission bookkeeping ----------------------------------------------
    def _reserve(self, shard: int) -> None:
        with self._lock:
            stats = self._stats[shard]
            if stats.pending >= self.max_pending:
                stats.shed += 1
                self._count_admission(shard, "shed")
                raise ShardOverloaded(
                    f"shard {shard}: {stats.pending} jobs in flight "
                    f">= bound {self.max_pending}"
                )
            stats.pending += 1
            stats.submitted += 1
            self._count_admission(shard, "admitted")

    def _count_admission(self, shard: int, outcome: str) -> None:
        if self.metrics:
            self.metrics.counter(
                "anosy_compile_admission_total",
                "Compile-shard admission outcomes.",
                labels=("shard", "outcome"),
            ).labels(shard=str(shard), outcome=outcome).inc()

    def _release(self, shard: int) -> None:
        with self._lock:
            self._stats[shard].pending -= 1
            self._stats[shard].completed += 1

    def _release_failed(self, shard: int) -> None:
        # Submit-time failure: the job never reached a worker, so the
        # reserved slot is returned without counting a completion.
        with self._lock:
            self._stats[shard].pending -= 1
            self._stats[shard].failed += 1

    # -- introspection -------------------------------------------------------
    def stats(self) -> list[ShardStats]:
        """A snapshot of per-shard counters."""
        with self._lock:
            return [ShardStats(**vars(stats)) for stats in self._stats]

    def total_submitted(self) -> int:
        """Jobs ever admitted across all shards (compiles actually run)."""
        with self._lock:
            return sum(stats.submitted for stats in self._stats)

    def total_shed(self) -> int:
        """Jobs refused by admission control across all shards."""
        with self._lock:
            return sum(stats.shed for stats in self._stats)


#: Distinguishes inline pools sharing one process (see ``_SERVING_STATE``).
_POOL_IDS = itertools.count()


class ServingShardPool(_ProcessShards):
    """A fixed set of single-process serving shards, routed by user id.

    Each shard owns the sessions and ledger accounts of the users routed
    to it (:func:`serve_shard_of`).  The gateway ships each job as one
    JSON op list (:func:`serve_payload`) that it builds from what the
    shard holds: session opens always precede the downgrades that use
    them.

    ``inline=True`` executes the same payload codec path synchronously in
    the calling process (tests, single-core deployments).
    """

    def __init__(self, shards: int = 1, *, inline: bool = False):
        super().__init__(shards, inline=inline)
        self._pool_id = next(_POOL_IDS)

    # -- routing -----------------------------------------------------------
    def shard_for(self, user_id: str) -> int:
        """The shard that owns a user's sessions and ledger account."""
        return serve_shard_of(user_id, self.shards)

    # -- submission ---------------------------------------------------------
    def submit(self, shard: int, ops: list[dict[str, Any]]) -> Future:
        """Ship an ordered op batch to a shard; the future yields result JSON.

        Serving jobs are bounded upstream by the gateway's downgrade
        queue, so there is no per-shard admission control here.
        """
        body: dict[str, Any] = {"shard": f"{self._pool_id}/{shard}", "ops": ops}
        fragment = faults.encode_for_payload(self.fault_plan, simulate=self.inline)
        if fragment is not None:
            body["faults"] = fragment
        payload = json.dumps(body)
        if self.inline:
            future: Future = Future()
            try:
                future.set_result(serve_payload(payload))
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                future.set_exception(
                    classify_failure(exc, shard=shard, site="serve")
                )
            return future
        return self._executor(shard).submit(serve_payload, payload)

    @staticmethod
    def decode(result_json: str) -> dict[str, Any]:
        """Decode a shard response: results, ledger deltas, refusals, pid.

        On the wire each distinct bound payload appears once in
        ``bounds`` and a delta is ``[user_id, spec_name, index]``; decoded
        deltas are ``{"user_id", "spec_name", "payload"}`` dicts whose
        payloads are shared objects wherever the indices were equal.

        An unparseable or structurally wrong response raises
        :class:`~repro.server.supervise.CodecError` — the supervisor
        treats it as a transient shard failure, restarts the shard, and
        retries.
        """
        try:
            data = json.loads(result_json)
            bounds = data["bounds"]
            return {
                "results": [
                    downgrade_result_from_json(encoded)
                    for encoded in data["results"]
                ],
                # Deltas sharing a bound share one decoded payload object,
                # which the mirror ledger decodes and folds once.
                "deltas": [
                    {
                        "user_id": user_id,
                        "spec_name": spec_name,
                        "payload": bounds[index],
                    }
                    for user_id, spec_name, index in data["deltas"]
                ],
                "budget_refusals": data["budget_refusals"],
                "pid": data["pid"],
                "obs": data.get("obs"),
            }
        except (
            json.JSONDecodeError, IndexError, KeyError, TypeError, ValueError
        ) as exc:
            raise CodecError(
                f"undecodable serving response: {exc}", site="serve"
            ) from exc

    # -- supervision ---------------------------------------------------------
    def restart_shard(self, shard: int) -> None:
        """Kill a serving shard; the replacement starts empty.

        In inline mode the shard's in-process state is dropped too — the
        inline analogue of process death.  Either way the gateway
        forgets what the shard held, so its next job configures the
        replacement and ships every session it serves with the mirror's
        bound.
        """
        super().restart_shard(shard)
        if self.inline:
            _SERVING_STATE.pop(f"{self._pool_id}/{shard}", None)

    def shutdown(self, *, wait: bool = True) -> None:
        """Tear down every shard process (idempotent).

        Shard-local serving state dies with the processes; anything that
        must survive (ledger bounds, artifacts) already flowed back to
        the gateway as deltas and was written through to the store.
        """
        super().shutdown(wait=wait)
        if self.inline:
            prefix = f"{self._pool_id}/"
            for key in [k for k in _SERVING_STATE if k.startswith(prefix)]:
                del _SERVING_STATE[key]
