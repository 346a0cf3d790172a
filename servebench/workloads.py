"""The three closed-loop servebench workloads and their measured phase.

* ``fleet-local`` — 1500 users as coroutines on one event loop against a
  gateway-local server (no store, journal or telemetry): the serving
  core alone.
* ``fleet-sharded`` — the same schedule on the full stack: 2 process
  serving shards, 2 compile shards compiling cold, one fresh file
  ``SQLiteStore`` holding artifacts, durable ledger and request journal,
  idempotency keys on every request, telemetry on.
* ``edge-interactive`` — 200 users over real HTTP through ``HttpEdge``
  on two blocking connections, journaled and observed, with a store
  pre-warmed with every artifact; retries, ``/metrics`` scrapes and
  ``POST /v1/epochs`` ride along.

Every workload runs rounds: each user opens a session, asks its 4
queries (each awaiting the previous answer), and closes it; then the
epoch advances.  Round 0 is warm-up.  The measured rounds then last
about ``seconds`` in all; their number is fixed by ``seconds`` (see
:func:`_rounds_for`).  The workloads touch the system only through its public entry
points: ``register_query`` / ``open_session`` / ``downgrade`` /
``close_session`` / ``advance_epoch`` on the server, or HTTP.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import resource
import shutil
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.lang.canonical import spec_to_json
from repro.server import workers as workers_mod
from repro.server.edge import HttpEdge
from repro.server.gateway import DeclassificationServer, ServerConfig
from repro.server.journal import RequestJournal
from repro.server.store import SQLiteStore
from repro.server.workers import serve_shard_of
from repro.service.api import CompileRequest
from repro.service.serialize import options_to_json

from servebench.schedule import (
    OPTIONS,
    QUERIES,
    SPEC,
    Row,
    User,
    budget_decay,
    budget_floor,
    digest,
    make_schedule,
    policy,
    wrong_answers,
)

pc = time.perf_counter

#: Downgrade samples a run must hold, so that >= 10 lie beyond p99.
MIN_SAMPLES = 1000
#: ``GET /metrics`` once per this many requests on each connection.
SCRAPE_EVERY = 100
PROBE_QUERY = "zone0"
#: Users of both fleet workloads: more than the tracer's 1024 traces in
#: flight at once, and a round short enough to measure several per run.
FLEET_USERS = 1500
EDGE_USERS = 200
#: Round lengths (s) on the reference 2-core box at the seed commit.
FLEET_LOCAL_ROUND_S = 2.7
FLEET_SHARDED_ROUND_S = 7.7
EDGE_ROUND_S = 4.5


@dataclass
class Phase:
    """What one set of rounds collected (merged across client threads)."""

    downgrade_ms: list[float] = field(default_factory=list)
    control_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    retries: int = 0
    retry_mismatches: int = 0
    #: HTTP round trips: ``(start, end, idempotency key)``.
    requests: list[tuple[float, float, str | None]] = field(default_factory=list)

    def merge(self, other: "Phase") -> None:
        self.downgrade_ms += other.downgrade_ms
        self.control_ms += other.control_ms
        self.attempted += other.attempted
        self.failed += other.failed
        self.retries += other.retries
        self.retry_mismatches += other.retry_mismatches
        self.requests += other.requests

    def control(self, call: Callable[[], Any]) -> None:
        """Time one synchronous control request; a raise counts as failed."""
        start = pc()
        self.attempted += 1
        try:
            call()
        except Exception:  # noqa: BLE001 - counted, and fails the digest check
            self.failed += 1
            return
        self.control_ms.append((pc() - start) * 1e3)


@dataclass
class Outcome:
    """Everything one run measured and checked."""

    setup_s: list[float]
    #: ``perf_counter`` bounds of the kept server's setup.
    setup_window: tuple[float, float]
    #: ``perf_counter`` bounds of the measured rounds.
    window: tuple[float, float]
    phase: Phase
    #: Decision digest per round; index 0 is the warm-up round.
    digests: list[str]
    #: Digest of one round on a fresh gateway-local reference server.
    reference: str
    #: Authorized responses of the first measured round that differ from
    #: the query evaluated on the secret.
    wrong: int
    peak_rss_mb: float
    #: ``ServerStats`` of the kept server: after setup, at window start, at end.
    stats: tuple[dict, dict, dict]
    #: Retained traces with no ``downgrade`` root span.
    orphan_traces: int

    @property
    def seconds(self) -> float:
        return self.window[1] - self.window[0]


def _rounds_for(seconds: float, round_s: float, per_round: int) -> int:
    """Measured rounds for a run of about ``seconds``.

    ``round_s`` is the workload's round length measured on the reference
    box at the seed commit (see the ``*_ROUND_S`` constants), so the
    count, and with it every input of the run, depends on ``seconds``
    alone and not on how fast the machine happens to be.  At least
    :data:`MIN_SAMPLES` downgrades, and never fewer than one round.
    """
    rounds = max(1, round(seconds / round_s))
    return max(rounds, -(-MIN_SAMPLES // per_round))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _orphans(server: DeclassificationServer) -> int:
    tracer = server.hub.tracer
    return sum(
        1
        for tid in tracer.trace_ids()
        if not any(s.name == "downgrade" and s.parent_id is None for s in tracer.spans(tid))
    )


def _probe_users(tag: str, shards: int) -> list[str]:
    """One probe user per serving shard (one in total when gateway-local)."""
    wanted = max(1, shards)
    found: dict[int, str] = {}
    j = 0
    while len(found) < wanted:
        user = f"probe-{tag}-{j}"
        found.setdefault(serve_shard_of(user, wanted), user)
        j += 1
    return [found[shard] for shard in sorted(found)]


def _server(*, sharded: bool, observe: bool, inline_compiles: bool,
            inline_serving: bool = False, store: SQLiteStore | None = None,
            journal: RequestJournal | None = None) -> DeclassificationServer:
    return DeclassificationServer(
        policy(),
        budget_floor=budget_floor(),
        budget_decay=budget_decay(),
        store=store,
        options=OPTIONS,
        journal=journal,
        config=ServerConfig(
            shards=2 if sharded else 1,
            serving_shards=2 if sharded else 0,
            max_pending_compiles=len(QUERIES),
            inline_compiles=inline_compiles,
            inline_serving=inline_serving,
            observe=observe,
        ),
    )


# ---------------------------------------------------------------------------
# Fleet workloads: coroutines on one event loop
# ---------------------------------------------------------------------------


async def _fleet_round(server: DeclassificationServer, users: list[User], k: int,
                       phase: Phase) -> list[Row]:
    out: list[list[Row]] = [[] for _ in users]

    async def client(user: User) -> None:
        sid = user.session_id(k)
        rows = out[user.index]
        phase.control(lambda: server.open_session(
            sid, (SPEC, user.secret), user_id=user.user_id, idempotency_key=f"open/{sid}"))
        for query in user.queries:
            start = pc()
            phase.attempted += 1
            try:
                result = await server.downgrade(
                    sid, query, idempotency_key=f"downgrade/{sid}/{query}")
            except Exception:  # noqa: BLE001 - counted, and fails the digest check
                phase.failed += 1
                rows.append((user.user_id, query, False, None, -1))
                continue
            phase.downgrade_ms.append((pc() - start) * 1e3)
            rows.append((user.user_id, query, result.authorized, result.response,
                         result.knowledge_size))
        phase.control(lambda: server.close_session(sid, idempotency_key=f"close/{sid}"))

    await asyncio.gather(*(client(user) for user in users))
    phase.control(lambda: server.advance_epoch(1, idempotency_key=f"epoch/{k}"))
    return [row for rows in out for row in rows]


async def _register_all(server: DeclassificationServer) -> None:
    await asyncio.gather(*(
        server.register_query(CompileRequest(name, text, SPEC),
                              idempotency_key=f"compile/{name}")
        for name, text in QUERIES.items()
    ))


async def _fleet_setup(sharded: bool, workdir: Path, tag: str
                       ) -> tuple[DeclassificationServer, SQLiteStore | None, float]:
    """Construction -> every probe downgrade resolved (cold compiles included)."""
    # A fresh gateway process has an empty per-process compile cache;
    # repeated setups in one process must not inherit the previous one's.
    workers_mod._PROCESS_CACHE = None
    start = pc()
    store = journal = None
    if sharded:
        store = SQLiteStore(workdir / f"fleet-{tag}.db")
        journal = RequestJournal(store)
    server = _server(sharded=sharded, observe=sharded, inline_compiles=not sharded,
                     store=store, journal=journal)
    await _register_all(server)
    probes = _probe_users(tag, server.config.serving_shards)
    for user in probes:
        server.open_session(user, (SPEC, (0, 0, 0, 0)), idempotency_key=f"open/{user}")
    await asyncio.gather(*(
        server.downgrade(user, PROBE_QUERY, idempotency_key=f"downgrade/{user}")
        for user in probes
    ))
    elapsed = pc() - start
    for user in probes:
        server.close_session(user, idempotency_key=f"close/{user}")
    return server, store, elapsed


async def _reference_digest(source: DeclassificationServer, users: list[User]) -> str:
    """One round on a fresh gateway-local server holding the same artifacts.

    One round suffices: every run also checks that its warm-up round
    decided exactly what its measured rounds decided.
    """
    ref = _server(sharded=False, observe=False, inline_compiles=True)
    for key in list(source.cache.keys()):
        ref.cache.put(key, source.cache.get(key))
    try:
        await _register_all(ref)
        return digest(await _fleet_round(ref, users, 0, Phase()))
    finally:
        ref.shutdown()


async def _fleet(sharded: bool, seed: int, seconds: float, setups: int, users_n: int,
                 workdir: Path) -> Outcome:
    users = make_schedule(seed, users_n)
    workdir = Path(tempfile.mkdtemp(dir=workdir))
    setup_s: list[float] = []
    for k in range(setups):
        setup_start = pc()
        server, store, elapsed = await _fleet_setup(sharded, workdir, str(k))
        setup_window = (setup_start, pc())
        setup_s.append(elapsed)
        if k < setups - 1:
            server.shutdown()
            if store is not None:
                store.close()
    try:
        after_setup = dict(vars(server.stats))
        rows = await _fleet_round(server, users, 0, Phase())
        digests = [digest(rows)]
        phase = Phase()
        before = dict(vars(server.stats))
        start = pc()
        round_s = FLEET_SHARDED_ROUND_S if sharded else FLEET_LOCAL_ROUND_S
        first = await _fleet_round(server, users, 1, phase)
        digests.append(digest(first))
        for k in range(2, 1 + _rounds_for(seconds, round_s, len(phase.downgrade_ms))):
            digests.append(digest(await _fleet_round(server, users, k, phase)))
        end = pc()
        peak = _peak_rss_mb()
        after = dict(vars(server.stats))
        orphans = _orphans(server)
        reference = await _reference_digest(server, users)
    finally:
        server.shutdown()
        if store is not None:
            store.close()
    return Outcome(
        setup_s=setup_s, setup_window=setup_window, window=(start, end), phase=phase,
        digests=digests, reference=reference, wrong=wrong_answers(users, first),
        peak_rss_mb=peak, stats=(after_setup, before, after), orphan_traces=orphans,
    )


def fleet_local(seed: int, seconds: float, setups: int, workdir: Path,
                users: int = FLEET_USERS) -> Outcome:
    return asyncio.run(_fleet(False, seed, seconds, setups, users, workdir))


def fleet_sharded(seed: int, seconds: float, setups: int, workdir: Path,
                  users: int = FLEET_USERS) -> Outcome:
    return asyncio.run(_fleet(True, seed, seconds, setups, users, workdir))


# ---------------------------------------------------------------------------
# Edge workload: two blocking HTTP connections
# ---------------------------------------------------------------------------


class _Connection:
    """One blocking client connection (re-opened per request by HTTP/1.0)."""

    def __init__(self, address: tuple[str, int]):
        self.conn = http.client.HTTPConnection(*address, timeout=60)
        self.sent = 0

    def call(self, phase: Phase, method: str, path: str, body: Any = None,
             key: str | None = None) -> tuple[int, bytes, float]:
        """One request; returns (status, body, milliseconds).  Status 0 = raised."""
        headers = {"Content-Type": "application/json"}
        if key is not None:
            headers["Idempotency-Key"] = key
        data = None if body is None else json.dumps(body).encode()
        self.sent += 1
        phase.attempted += 1
        start = pc()
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            payload = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            self.conn.close()
            phase.failed += 1
            return 0, b"", 0.0
        end = pc()
        phase.requests.append((start, end, key))
        if status >= 300:
            phase.failed += 1
        return status, payload, (end - start) * 1e3

    def control(self, phase: Phase, method: str, path: str, body: Any = None,
                key: str | None = None) -> tuple[int, bytes]:
        status, payload, ms = self.call(phase, method, path, body, key)
        if status:
            phase.control_ms.append(ms)
        return status, payload

    def close(self) -> None:
        self.conn.close()


def _edge_client(conn: _Connection, users: list[User], k: int
                 ) -> tuple[dict[int, list[Row]], Phase]:
    phase = Phase()
    out: dict[int, list[Row]] = {}
    for user in users:
        sid = user.session_id(k)
        rows = out[user.index] = []
        conn.control(phase, "POST", "/v1/sessions", {
            "session_id": sid,
            "user_id": user.user_id,
            "secret": {"spec": spec_to_json(SPEC), "value": list(user.secret)},
        }, key=f"open/{sid}")
        for query, retry in zip(user.queries, user.retries):
            key = f"downgrade/{sid}/{query}"
            body = {"session_id": sid, "query_name": query}
            status, payload, ms = conn.call(phase, "POST", "/v1/downgrades", body, key)
            if status != 200:
                rows.append((user.user_id, query, False, None, -1))
                continue
            phase.downgrade_ms.append(ms)
            result = json.loads(payload)
            rows.append((user.user_id, query, result["authorized"], result["response"],
                         result["knowledge_size"]))
            if retry:
                phase.retries += 1
                _status, again = conn.control(phase, "POST", "/v1/downgrades", body, key)
                if again != payload:
                    phase.retry_mismatches += 1
            if conn.sent % SCRAPE_EVERY == 0:
                conn.control(phase, "GET", "/metrics")
        conn.control(phase, "DELETE", f"/v1/sessions/{sid}", key=f"close/{sid}")
    return out, phase


class _Edge:
    """One journaled, observed server behind an ``HttpEdge``."""

    def __init__(self, base: Path, path: Path):
        shutil.copyfile(base, path)
        self.store = SQLiteStore(path)
        self.server = _server(sharded=False, observe=True, inline_compiles=False,
                              store=self.store, journal=RequestJournal(self.store))
        self.edge = HttpEdge(self.server)
        self.edge.start()
        self.conns = [_Connection(self.edge.address) for _ in range(2)]

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.edge.stop()
        self.server.shutdown()
        self.store.close()


def _prewarm(path: Path) -> None:
    """Compile every artifact once into a store file (not timed)."""
    store = SQLiteStore(path)
    server = _server(sharded=False, observe=False, inline_compiles=True, store=store)
    try:
        asyncio.run(_register_all(server))
    finally:
        server.shutdown()
        store.close()


def _edge_setup(base: Path, workdir: Path, tag: str) -> tuple[_Edge, float]:
    """Copy the warm store, then construction -> first downgrade over HTTP."""
    start = pc()
    stack = _Edge(base, workdir / f"edge-{tag}.db")
    phase = Phase()
    conn = stack.conns[0]
    for name, text in QUERIES.items():
        conn.control(phase, "POST", "/v1/queries", {
            "name": name, "query": text, "secret": spec_to_json(SPEC),
            "options": options_to_json(OPTIONS),
        }, key=f"compile/{name}")
    user = f"probe-{tag}"
    conn.control(phase, "POST", "/v1/sessions", {
        "session_id": user, "secret": {"spec": spec_to_json(SPEC), "value": [0, 0, 0, 0]},
    }, key=f"open/{user}")
    conn.call(phase, "POST", "/v1/downgrades",
              {"session_id": user, "query_name": PROBE_QUERY}, key=f"downgrade/{user}")
    elapsed = pc() - start
    conn.control(phase, "DELETE", f"/v1/sessions/{user}", key=f"close/{user}")
    if phase.failed:
        stack.close()
        raise RuntimeError(f"edge setup: {phase.failed} request(s) failed")
    return stack, elapsed


def _edge_round(stack: _Edge, pool: ThreadPoolExecutor, users: list[User], k: int,
                phase: Phase) -> list[Row]:
    halves = [users[0::2], users[1::2]]
    futures = [pool.submit(_edge_client, conn, half, k)
               for conn, half in zip(stack.conns, halves)]
    rows: dict[int, list[Row]] = {}
    for future in futures:
        part, part_phase = future.result()
        rows.update(part)
        phase.merge(part_phase)
    stack.conns[0].control(phase, "POST", "/v1/epochs", {"epochs": 1}, key=f"epoch/{k}")
    return [row for index in sorted(rows) for row in rows[index]]


def edge_interactive(seed: int, seconds: float, setups: int, workdir: Path,
                     users: int = EDGE_USERS) -> Outcome:
    schedule = make_schedule(seed, users)
    workdir = Path(tempfile.mkdtemp(dir=workdir))
    base = workdir / "edge-base.db"
    _prewarm(base)
    setup_s: list[float] = []
    for k in range(setups):
        setup_start = pc()
        stack, elapsed = _edge_setup(base, workdir, str(k))
        setup_window = (setup_start, pc())
        setup_s.append(elapsed)
        if k < setups - 1:
            stack.close()
    server = stack.server
    try:
        with ThreadPoolExecutor(2, thread_name_prefix="servebench-client") as pool:
            after_setup = dict(vars(server.stats))
            digests = [digest(_edge_round(stack, pool, schedule, 0, Phase()))]
            phase = Phase()
            before = dict(vars(server.stats))
            start = pc()
            first = _edge_round(stack, pool, schedule, 1, phase)
            digests.append(digest(first))
            rounds = _rounds_for(seconds, EDGE_ROUND_S, len(phase.downgrade_ms))
            for k in range(2, 1 + rounds):
                digests.append(digest(_edge_round(stack, pool, schedule, k, phase)))
            end = pc()
        peak = _peak_rss_mb()
        after = dict(vars(server.stats))
        orphans = _orphans(server)
        reference = asyncio.run(_reference_digest(server, schedule))
    finally:
        stack.close()
    return Outcome(
        setup_s=setup_s, setup_window=setup_window, window=(start, end), phase=phase,
        digests=digests, reference=reference, wrong=wrong_answers(schedule, first),
        peak_rss_mb=peak, stats=(after_setup, before, after), orphan_traces=orphans,
    )


WORKLOADS: dict[str, Callable[..., Outcome]] = {
    "fleet-local": fleet_local,
    "fleet-sharded": fleet_sharded,
    "edge-interactive": edge_interactive,
}
