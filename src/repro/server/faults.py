"""Deterministic, seeded fault injection for the serving runtime.

The chaos suite needs to drive every failure point in the serving tier
— worker crashes, hung jobs, duplicated deliveries, corrupted payloads,
a busy SQLite file — *reproducibly*.  This module is that switchboard:

* a :class:`FaultPlan` is an ordered list of :class:`FaultSpec` entries,
  each naming a *site* (a string like ``"serve"`` or ``"store.write"``),
  a fault *kind*, and how many times it fires.  Firing order is fully
  determined by ``(seed, specs, call sequence)`` — no wall clock, no
  global randomness;
* production code calls the module-level helpers (:func:`maybe_crash`,
  :func:`maybe_delay`, :func:`maybe_db_locked`, :func:`should_duplicate`,
  :func:`maybe_corrupt`) at its fault sites.  With no plan installed
  they are near-free no-ops, so the hooks stay in the shipped code
  paths rather than a test-only fork of them;
* plans cross the process boundary inside job payload JSON
  (:func:`encode_for_payload` / :func:`install_from_payload`), so shard
  worker processes fault exactly where the test asked, even after the
  supervisor replaces the process.  A plan's firing budgets are per
  plan, not per process: a pool hands them to every worker it forks in
  shared memory (:func:`executor_options`), so a ``times=1`` fault that
  fired in a worker does not fire again in its replacement.

Crash faults come in two modes.  ``process`` mode calls
``os._exit(CRASH_EXIT_CODE)`` — a real abrupt death that the
``ProcessPoolExecutor`` machinery reports as ``BrokenProcessPool``.
``simulate`` mode (used by the ``inline_*`` pools, which execute in the
gateway process) raises :class:`BrokenProcessPool` instead, exercising
the identical recovery path without killing the test runner.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import sqlite3
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any

__all__ = [
    "CRASH_EXIT_CODE",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "active_fault_plan",
    "call_suppressed",
    "clear_fault_plan",
    "encode_for_payload",
    "executor_options",
    "install_fault_plan",
    "install_from_payload",
    "maybe_corrupt",
    "maybe_crash",
    "maybe_db_locked",
    "maybe_delay",
    "should_duplicate",
]

#: Exit status used by injected ``process``-mode crashes, so a dead
#: worker in a chaos run is distinguishable from a genuine segfault.
CRASH_EXIT_CODE = 13

#: Every fault kind a :class:`FaultSpec` may carry.
#: ``crash_after_execute_before_ack`` targets the request journal's one
#: crash window (fired at the gateway's ``"journal"`` site): after
#: execution (ledger folded in memory) but before the request's durable
#: write, which leaves nothing durable behind.
FAULT_KINDS = (
    "crash_before_result",
    "crash_after_commit",
    "delay",
    "duplicate_delivery",
    "corrupt_payload",
    "db_locked",
    "crash_after_execute_before_ack",
)


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault: *kind* at *site*, firing at most *times*.

    ``probability`` < 1 makes each eligible call a seeded coin flip —
    still deterministic for a fixed plan seed and call sequence.
    ``delay`` is only meaningful for ``kind="delay"``.
    """

    site: str
    kind: str
    times: int = 1
    delay: float = 0.0
    probability: float = 1.0

    def __post_init__(self) -> None:
        """Reject unknown kinds early — a typo'd kind would never fire."""
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    def to_json(self) -> dict:
        """Encode as a plain JSON-safe dict."""
        return {
            "site": self.site,
            "kind": self.kind,
            "times": self.times,
            "delay": self.delay,
            "probability": self.probability,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FaultSpec":
        """Inverse of :meth:`to_json`."""
        return cls(
            site=data["site"],
            kind=data["kind"],
            times=int(data.get("times", 1)),
            delay=float(data.get("delay", 0.0)),
            probability=float(data.get("probability", 1.0)),
        )


class FaultPlan:
    """An ordered, seeded schedule of faults with per-spec firing budgets.

    Thread-safe: shard workers are single-threaded, but the gateway's
    inline pools and the store's writer can consult one plan from
    several threads.  Once :meth:`shared_budgets` has moved the budgets
    into shared memory, they are process-safe too.
    """

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...] = (), seed: int = 0):
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._remaining = [spec.times for spec in self.specs]
        self._fired: list[tuple[str, str]] = []
        self._lock = threading.Lock()

    def fingerprint(self) -> str:
        """Stable identity of the *schedule* (not its firing state).

        Workers use this to keep one plan's counters alive across many
        job payloads: a payload carrying the same fingerprint as the
        installed plan must not reset ``times`` budgets already spent.
        """
        return json.dumps(
            {"seed": self.seed, "specs": [spec.to_json() for spec in self.specs]},
            sort_keys=True,
        )

    def shared_budgets(self) -> Any:
        """The firing budgets, moved into shared memory on first call.

        Worker processes that adopt them (see :func:`executor_options`)
        spend this plan's budgets instead of starting their own.
        """
        with self._lock:
            if not isinstance(self._remaining, list):
                return self._remaining
            budgets = multiprocessing.Array("q", self._remaining)
            self._bind(budgets)
            return budgets

    def _bind(self, budgets: Any) -> None:
        """Spend *budgets* (a shared array, guarded by its own lock)."""
        self._remaining = budgets
        self._lock = budgets.get_lock()

    def take(self, site: str, kind: str) -> FaultSpec | None:
        """Consume one firing of *kind* at *site*, if the plan has one.

        Returns the matched spec (and decrements its budget) or ``None``.
        Specs match in plan order; a probabilistic spec that loses its
        coin flip stays armed for the next call.
        """
        with self._lock:
            for index, spec in enumerate(self.specs):
                if spec.site != site or spec.kind != kind or self._remaining[index] <= 0:
                    continue
                if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                    return None
                self._remaining[index] -= 1
                self._fired.append((site, kind))
                return spec
        return None

    def fired(self) -> list[tuple[str, str]]:
        """``(site, kind)`` history of every fault this plan has fired."""
        with self._lock:
            return list(self._fired)

    def to_json(self) -> dict:
        """Encode the schedule (firing state intentionally excluded)."""
        return {"seed": self.seed, "specs": [spec.to_json() for spec in self.specs]}

    @classmethod
    def from_json(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_json`."""
        return cls(
            specs=[FaultSpec.from_json(item) for item in data.get("specs", [])],
            seed=int(data.get("seed", 0)),
        )


_LOCK = threading.Lock()
_ACTIVE: FaultPlan | None = None
_SIMULATE = False
#: PID that installed ``_ACTIVE``.  Worker processes are *forked* from
#: the gateway, so they inherit this module's globals; the pid guard
#: makes an inherited plan inert — a worker faults only when its own
#: payload installed the plan, never because the gateway had one.
_INSTALLED_PID: int | None = None
#: ``(fingerprint, shared budgets)`` handed to this worker process by
#: its pool (:func:`executor_options`).
_ADOPTED: tuple[str, Any] | None = None


def executor_options(plan: FaultPlan | None) -> dict[str, Any]:
    """``ProcessPoolExecutor`` arguments that hand *plan*'s firing
    budgets to the worker it forks, so that faults fire at most
    ``times`` per plan across every replacement worker."""
    if plan is None:
        return {}
    return {
        "initializer": _adopt_budgets,
        "initargs": (plan.fingerprint(), plan.shared_budgets()),
    }


def _adopt_budgets(fingerprint: str, budgets: Any) -> None:
    """Worker initializer: spend *budgets* once a matching plan arrives."""
    global _ADOPTED
    _ADOPTED = (fingerprint, budgets)


def install_fault_plan(plan: FaultPlan | None, *, simulate: bool = False) -> None:
    """Install *plan* as this process's active fault plan.

    Re-installing a plan with the fingerprint already active keeps the
    existing object — its spent ``times`` budgets persist, which is what
    lets a long-lived worker process fire ``times=1`` exactly once even
    though every job payload re-ships the plan.  A plan inherited across
    ``fork`` does not count as active (see ``_INSTALLED_PID``): the
    first payload install in a fresh worker takes the budgets its pool
    handed it for this plan, or starts its own counters if none.
    """
    global _ACTIVE, _SIMULATE, _INSTALLED_PID
    with _LOCK:
        if plan is None:
            _ACTIVE = None
            _INSTALLED_PID = None
        elif (
            _ACTIVE is None
            or _INSTALLED_PID != os.getpid()
            or _ACTIVE.fingerprint() != plan.fingerprint()
        ):
            if _ADOPTED is not None and _ADOPTED[0] == plan.fingerprint():
                plan._bind(_ADOPTED[1])
            _ACTIVE = plan
            _INSTALLED_PID = os.getpid()
        _SIMULATE = simulate


def clear_fault_plan() -> None:
    """Remove any active plan (tests call this between cases)."""
    install_fault_plan(None)


def active_fault_plan() -> FaultPlan | None:
    """The plan this process installed, if any (inherited plans are inert)."""
    return _ACTIVE if _INSTALLED_PID == os.getpid() else None


def encode_for_payload(plan: FaultPlan | None, *, simulate: bool) -> dict | None:
    """Payload fragment shipping *plan* across the process boundary."""
    if plan is None:
        return None
    return {"plan": plan.to_json(), "mode": "simulate" if simulate else "process"}


def install_from_payload(data: dict | None) -> None:
    """Install the plan carried by a job payload fragment.

    A payload *without* a fragment leaves any active plan untouched —
    clean payloads (heartbeats, degraded-mode fallbacks executing in the
    gateway process) must not reset an installed plan's fire counters.
    Removing a plan is always explicit: :func:`clear_fault_plan`.
    """
    if data is None:
        return
    install_fault_plan(
        FaultPlan.from_json(data["plan"]),
        simulate=data.get("mode") == "simulate",
    )


_SUPPRESSED = threading.local()


def call_suppressed(fn, *args, **kwargs):
    """Run *fn* with fault injection suppressed on this thread.

    Degraded-path fallbacks execute worker entry points inline in the
    gateway process, where any installed plan is process-global; they
    are defined to be fault-free (the fault already did its damage —
    that is why the fallback is running), so the helpers no-op here
    without disturbing the plan's fire counters.
    """
    _SUPPRESSED.active = True
    try:
        return fn(*args, **kwargs)
    finally:
        _SUPPRESSED.active = False


def _take(site: str, kind: str) -> FaultSpec | None:
    if getattr(_SUPPRESSED, "active", False):
        return None
    plan = active_fault_plan()
    return plan.take(site, kind) if plan is not None else None


def maybe_crash(site: str, kind: str) -> None:
    """Die here if the plan schedules a crash of *kind* at *site*."""
    if _take(site, kind) is None:
        return
    if _SIMULATE:
        raise BrokenProcessPool(f"injected {kind} at {site}")
    os._exit(CRASH_EXIT_CODE)


def maybe_delay(site: str) -> None:
    """Sleep for the scheduled delay at *site*, if one is armed."""
    spec = _take(site, "delay")
    if spec is not None and spec.delay > 0:
        time.sleep(spec.delay)


def maybe_db_locked(site: str) -> None:
    """Raise SQLite's busy error at *site*, if scheduled."""
    if _take(site, "db_locked") is not None:
        raise sqlite3.OperationalError("database is locked")


def should_duplicate(site: str) -> bool:
    """True when the plan schedules a duplicate delivery at *site*."""
    return _take(site, "duplicate_delivery") is not None


def maybe_corrupt(site: str, payload: str) -> str:
    """Mangle *payload* (a JSON string) if corruption is scheduled.

    The corruption is structural — truncation plus a marker — so every
    decoder sees it, rather than a subtle field flip only some do.
    """
    if _take(site, "corrupt_payload") is None:
        return payload
    return payload[: max(1, len(payload) // 2)] + "\x00corrupt"
