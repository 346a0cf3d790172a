"""Shard supervision: typed failures, retries, and circuit breakers.

The serving tier runs one worker process per shard.  Processes die, jobs
hang, and payloads can arrive mangled; this module turns each of those
into a *typed* failure and drives a bounded recovery loop around it:

* :class:`ShardCrash` / :class:`ShardTimeout` / :class:`CodecError` —
  structured failure classes (:func:`classify_failure` maps raw
  executor/JSON exceptions onto them).  Anything that is not a shard
  failure — application errors, ``KeyboardInterrupt`` — passes through
  untouched, so the supervisor never retries a bug into submission;
* :class:`RetryPolicy` — bounded retries with exponential backoff and
  seeded jitter (deterministic under a fixed seed, which the chaos suite
  relies on);
* :class:`CircuitBreaker` — per-shard ``closed → open → half-open``
  state machine: after ``threshold`` consecutive failures the shard is
  taken out of rotation for ``cooldown`` seconds, then a single probe
  attempt decides whether it rejoins;
* :class:`ShardSupervisor` — the driver: deadline → classify → restart →
  backoff → retry, falling over to a caller-supplied *fallback* (inline
  compile, gateway-local serving) when the breaker is open or retries
  are exhausted.

The supervisor is deliberately ignorant of pools, ledgers, and payload
formats: callers pass ``attempt`` / ``restart`` / ``fallback``
coroutines and keep ownership of state rebuilding (a serving shard's
restart makes the gateway forget what the shard held; see
``DeclassificationServer._ship``).
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Any, Awaitable, Callable

from repro.obs.metrics import NULL_REGISTRY

__all__ = [
    "CircuitBreaker",
    "CodecError",
    "RetryPolicy",
    "ShardCrash",
    "ShardFailure",
    "ShardSupervisor",
    "ShardTimeout",
    "SupervisorStats",
    "classify_failure",
]


class ShardFailure(RuntimeError):
    """Base class for failures the supervisor may retry.

    Carries a structured payload (``kind``, ``shard``, ``site``,
    ``detail``) so audit trails and cross-process error reporting never
    have to string-match exception text.
    """

    kind = "failure"

    def __init__(self, detail: str, *, shard: int | None = None, site: str | None = None):
        super().__init__(detail)
        self.detail = detail
        self.shard = shard
        self.site = site

    def to_payload(self) -> dict:
        """JSON-safe description of this failure."""
        return {
            "kind": self.kind,
            "detail": self.detail,
            "shard": self.shard,
            "site": self.site,
        }


class ShardCrash(ShardFailure):
    """The shard's worker process died (or its executor broke)."""

    kind = "crash"


class ShardTimeout(ShardFailure):
    """A shard job missed its deadline; the worker may be hung."""

    kind = "timeout"


class CodecError(ShardFailure):
    """A payload crossing the shard JSON boundary failed to decode."""

    kind = "codec"


def classify_failure(
    exc: BaseException, *, shard: int | None = None, site: str | None = None
) -> BaseException:
    """Map a raw exception onto the typed failure hierarchy.

    Returns a :class:`ShardFailure` subclass for executor breakage,
    deadline misses, and JSON decode errors; every other exception is
    returned unchanged — the caller must re-raise it rather than retry.
    ``KeyboardInterrupt`` / ``SystemExit`` are never wrapped.
    """
    if isinstance(exc, (KeyboardInterrupt, SystemExit, asyncio.CancelledError)):
        return exc
    if isinstance(exc, ShardFailure):
        if exc.shard is None:
            exc.shard = shard
        if exc.site is None:
            exc.site = site
        return exc
    if isinstance(exc, BrokenExecutor):
        failure: ShardFailure = ShardCrash(
            str(exc) or "worker process died", shard=shard, site=site
        )
    elif isinstance(exc, (asyncio.TimeoutError, FutureTimeoutError, TimeoutError)):
        failure = ShardTimeout(str(exc) or "deadline exceeded", shard=shard, site=site)
    elif isinstance(exc, (json.JSONDecodeError, UnicodeDecodeError)):
        failure = CodecError(f"undecodable shard payload: {exc}", shard=shard, site=site)
    else:
        return exc
    failure.__cause__ = exc
    return failure


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with multiplicative jitter.

    Attempt ``n`` (1-based) sleeps ``base_delay * 2**(n-1)``, capped at
    ``max_delay``, then stretched by up to ``jitter`` (a fraction drawn
    from the supervisor's seeded RNG).
    """

    max_retries: int = 2
    base_delay: float = 0.02
    max_delay: float = 1.0
    jitter: float = 0.5

    def delay_for(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry *attempt* (1-based)."""
        base = min(self.max_delay, self.base_delay * (2 ** max(0, attempt - 1)))
        return base * (1.0 + self.jitter * rng.random())


class CircuitBreaker:
    """Per-shard ``closed → open → half-open`` failure gate.

    ``closed``: traffic flows; consecutive failures are counted.
    ``open``: after ``threshold`` consecutive failures — no traffic
    until ``cooldown`` seconds pass.  ``half_open``: cooldown elapsed;
    one probe attempt is let through.  Success closes the breaker,
    failure re-opens it for another cooldown.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[str, str], None] | None = None,
    ):
        self.threshold = max(1, int(threshold))
        self.cooldown = cooldown
        self._clock = clock
        self._failures = 0
        self._opened_at: float | None = None
        self._cooldown_override: float | None = None
        #: ``(state, cause, wall-clock timestamp)`` of the last *evented*
        #: transition — a failure opening the breaker, an operator
        #: :meth:`trip`, or a success closing it.  (The timed
        #: open→half_open step is computed, not evented.)  ``/statusz``
        #: surfaces this so a trip is visible after the fact.
        self.last_transition: tuple[str, str, float] | None = None
        self._on_transition = on_transition

    @property
    def _effective_cooldown(self) -> float:
        if self._cooldown_override is not None:
            return self._cooldown_override
        return self.cooldown

    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half_open"``."""
        if self._opened_at is None:
            return "closed"
        if self._clock() - self._opened_at >= self._effective_cooldown:
            return "half_open"
        return "open"

    def allow(self) -> bool:
        """May an attempt proceed right now?"""
        return self.state() != "open"

    def _transition(self, state: str, cause: str) -> None:
        self.last_transition = (state, cause, time.time())
        if self._on_transition is not None:
            self._on_transition(state, cause)

    def record_success(self) -> None:
        """An attempt succeeded: close the breaker, reset counters."""
        was_tracking = self._opened_at is not None or self._failures > 0
        self._failures = 0
        self._opened_at = None
        self._cooldown_override = None
        if was_tracking:
            self._transition("closed", "success")

    def record_failure(self) -> bool:
        """Count a failure; returns True when this call opens the breaker."""
        self._failures += 1
        if self._failures >= self.threshold:
            was_open = self._opened_at is not None and self.state() == "open"
            self._opened_at = self._clock()
            if not was_open:
                self._transition("open", "failure")
                return True
        return False

    def trip(self, cooldown: float | None = None) -> None:
        """Force the breaker open (operator/chaos control).

        An explicit *cooldown* overrides the configured one until the
        next success — ``trip(cooldown=3600)`` pins a shard out of
        rotation for benchmark or maintenance purposes.  Trips are
        evented like any other transition, so the override shows up in
        breaker telemetry and ``/statusz`` rather than vanishing into
        in-memory state.
        """
        self._failures = max(self._failures, self.threshold)
        self._opened_at = self._clock()
        if cooldown is not None:
            self._cooldown_override = cooldown
        self._transition("open", "trip")

    def retry_after(self) -> float:
        """Seconds until the next probe is allowed (0 when not open)."""
        if self._opened_at is None:
            return 0.0
        remaining = self._effective_cooldown - (self._clock() - self._opened_at)
        return max(0.0, remaining)

    def describe(self) -> dict:
        """JSON-safe introspection for ``/statusz`` and audit summaries."""
        last = self.last_transition
        return {
            "state": self.state(),
            "failures": self._failures,
            "retry_after": self.retry_after(),
            "cooldown": self._effective_cooldown,
            "cooldown_override": self._cooldown_override,
            "last_transition": None
            if last is None
            else {"to": last[0], "cause": last[1], "at": last[2]},
        }


@dataclass
class SupervisorStats:
    """Counters the supervisor maintains across all pools and shards."""

    attempts: int = 0
    retries: int = 0
    restarts: int = 0
    failovers: int = 0
    breaker_opens: int = 0
    timeouts: int = 0
    crashes: int = 0
    codec_errors: int = 0

    def record(self, failure: ShardFailure) -> None:
        """Bump the per-kind counter for *failure*."""
        if isinstance(failure, ShardTimeout):
            self.timeouts += 1
        elif isinstance(failure, ShardCrash):
            self.crashes += 1
        elif isinstance(failure, CodecError):
            self.codec_errors += 1


class ShardSupervisor:
    """Drives supervised attempts against per-``(pool, shard)`` breakers.

    One supervisor serves every pool in a gateway; breakers are keyed by
    a pool name (``"compile"``, ``"serving"``) plus shard index.  All
    jitter comes from one seeded RNG, so a chaos run with a fixed seed
    replays the same backoff schedule.
    """

    #: Gauge encoding of breaker states (exposition-friendly).
    _STATE_VALUES = {"closed": 0, "half_open": 1, "open": 2}

    def __init__(
        self,
        *,
        retry: RetryPolicy | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 0.25,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
        metrics: Any = None,
    ):
        self.retry = retry or RetryPolicy()
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.stats = SupervisorStats()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._clock = clock
        self._rng = random.Random(seed)
        self._breakers: dict[tuple[str, int], CircuitBreaker] = {}

    def breaker(self, pool: str, shard: int) -> CircuitBreaker:
        """The (lazily created) breaker guarding ``pool/shard``."""
        key = (pool, shard)
        if key not in self._breakers:
            self._breakers[key] = CircuitBreaker(
                self.breaker_threshold,
                self.breaker_cooldown,
                clock=self._clock,
                on_transition=self._transition_recorder(pool, shard),
            )
        return self._breakers[key]

    def _transition_recorder(
        self, pool: str, shard: int
    ) -> Callable[[str, str], None]:
        """Metric hooks for one breaker's evented transitions."""
        metrics = self.metrics
        transitions = metrics.counter(
            "anosy_breaker_transitions_total",
            "Evented circuit-breaker transitions by target state and cause.",
            labels=("pool", "shard", "to", "cause"),
        )
        trips = metrics.counter(
            "anosy_breaker_trips_total",
            "Operator/chaos trip() overrides, per breaker.",
            labels=("pool", "shard"),
        )
        state_gauge = metrics.gauge(
            "anosy_breaker_state",
            "Breaker state at last transition (0 closed, 1 half_open, 2 open).",
            labels=("pool", "shard"),
        )
        stamp = metrics.gauge(
            "anosy_breaker_last_transition_timestamp",
            "Unix timestamp of the breaker's last evented transition.",
            labels=("pool", "shard"),
            channel="timing",
        )
        shard_label = str(shard)

        def on_transition(state: str, cause: str) -> None:
            transitions.labels(
                pool=pool, shard=shard_label, to=state, cause=cause
            ).inc()
            if cause == "trip":
                trips.labels(pool=pool, shard=shard_label).inc()
            state_gauge.labels(pool=pool, shard=shard_label).set(
                self._STATE_VALUES.get(state, -1)
            )
            stamp.labels(pool=pool, shard=shard_label).set(time.time())

        return on_transition

    def describe_breakers(self) -> dict[str, dict[str, dict]]:
        """Pool → shard → breaker introspection, for ``/statusz``."""
        out: dict[str, dict[str, dict]] = {}
        for (pool, shard), breaker in sorted(self._breakers.items()):
            out.setdefault(pool, {})[str(shard)] = breaker.describe()
        return out

    def breaker_states(self, pool: str) -> dict[int, str]:
        """Shard → breaker state, for *pool* (audit/telemetry)."""
        return {
            shard: breaker.state()
            for (name, shard), breaker in sorted(self._breakers.items())
            if name == pool
        }

    def open_fraction(self, pool: str, total_shards: int) -> float:
        """Fraction of *pool*'s shards currently open (degradation level)."""
        if total_shards <= 0:
            return 0.0
        down = sum(
            1
            for (name, _), breaker in self._breakers.items()
            if name == pool and breaker.state() == "open"
        )
        return down / total_shards

    def earliest_retry(self, pool: str) -> float:
        """Soonest ``retry_after`` across *pool*'s open breakers.

        This is the honest ``Retry-After`` hint for shed requests: the
        earliest instant at which capacity might return.
        """
        waits = [
            breaker.retry_after()
            for (name, _), breaker in self._breakers.items()
            if name == pool and breaker.state() == "open"
        ]
        return min(waits) if waits else 0.0

    async def supervise(
        self,
        pool: str,
        shard: int,
        attempt: Callable[[], Awaitable],
        *,
        deadline: float | None = None,
        restart: Callable[[], Awaitable[None]] | None = None,
        fallback: Callable[[], Awaitable] | None = None,
    ):
        """Run *attempt* under deadline/retry/breaker discipline.

        On each shard failure: record it, run *restart* (which owns
        killing the executor and resetting state), back off, retry —
        up to ``retry.max_retries`` times.  When the breaker is (or
        goes) open, or retries are exhausted, *fallback* is awaited
        instead; with no fallback the classified failure is raised.

        Non-shard exceptions (application errors, cancellation,
        ``KeyboardInterrupt``) propagate immediately and untouched.
        """
        breaker = self.breaker(pool, shard)
        if not breaker.allow():
            if fallback is not None:
                self.stats.failovers += 1
                return await fallback()
            raise ShardCrash(
                f"{pool} shard {shard} circuit open "
                f"(retry after {breaker.retry_after():.2f}s)",
                shard=shard,
                site=pool,
            )
        failures = 0
        while True:
            self.stats.attempts += 1
            try:
                coro = attempt()
                if deadline is not None:
                    result = await asyncio.wait_for(coro, deadline)
                else:
                    result = await coro
            except BaseException as exc:  # classified below; non-shard re-raised
                failure = classify_failure(exc, shard=shard, site=pool)
                if not isinstance(failure, ShardFailure):
                    raise
            else:
                breaker.record_success()
                return result
            self.stats.record(failure)
            if breaker.record_failure():
                self.stats.breaker_opens += 1
            if restart is not None:
                await restart()
                self.stats.restarts += 1
            failures += 1
            if failures > self.retry.max_retries or not breaker.allow():
                if fallback is not None:
                    self.stats.failovers += 1
                    return await fallback()
                raise failure
            self.stats.retries += 1
            await asyncio.sleep(self.retry.delay_for(failures, self._rng))
