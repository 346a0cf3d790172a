"""A thread-safe in-process metrics registry with Prometheus exposition.

The serving runtime records three instrument kinds — monotone
:class:`Counter` s, last-value :class:`Gauge` s, and fixed-log-bucket
:class:`Histogram` s — through one :class:`MetricsRegistry` per process
(the gateway's, owned by its :class:`~repro.obs.hub.MetricsHub`, plus
one per serving-shard process whose deltas ride home on batch
responses).  Design constraints, in order:

* **cheap hot path** — recording is a dict lookup plus an addition
  under one registry-wide lock (the GIL already serializes the
  arithmetic; the lock only makes snapshots consistent).  Label
  resolution (:meth:`Instrument.labels`) is the expensive step and is
  meant to be hoisted out of loops: resolve a child once, record on it
  many times.
* **consistent snapshots** — :meth:`MetricsRegistry.snapshot` and
  :meth:`MetricsRegistry.exposition` hold the same lock every recording
  takes, so a snapshot is a true point in time: it can never observe a
  histogram whose ``count`` moved but whose ``sum`` did not, or any
  other torn pair of values (tests/obs/test_metrics.py hammers this).
* **secret-independence channels** — every instrument declares which
  output channel it writes (``decision`` / ``timing`` /
  ``declassified``, see :data:`CHANNELS`).  ANOSY's guarantee makes
  telemetry itself an output: anything in the ``decision`` channel must
  be bit-identical across two runs that differ only in secrets, and the
  Hypothesis net in tests/obs/test_secret_independence.py asserts
  exactly that by exporting the channel in isolation.
* **delta shipping** — a shard-process registry can
  :meth:`~MetricsRegistry.drain` everything recorded since its last
  drain as a JSON-safe report, and the gateway's registry
  :meth:`~MetricsRegistry.absorb` s it, declaring any instruments it
  has not seen.  Counters and histogram buckets fold additively;
  gauges keep the last reported value.

No dependencies beyond the standard library; nothing here imports the
rest of ``repro``.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "CHANNELS",
    "Counter",
    "Gauge",
    "Histogram",
    "LazySeries",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "log_buckets",
]

#: The output-channel taxonomy (DESIGN.md §13).  ``decision`` series are
#: functions of the request stream and secret-independent decisions
#: alone — bit-identical across secret-differing runs and across
#: replays.  ``timing`` series carry wall-clock observations (latencies,
#: transition timestamps) that no two runs share.  ``declassified``
#: series expose knowledge-bound sizes: values derived from responses
#: the client already received, safe to export precisely because they
#: are declassified, but excluded from the bit-identity net.
CHANNELS = ("decision", "timing", "declassified")


def log_buckets(
    lo: float, hi: float, *, per_decade: int = 3
) -> tuple[float, ...]:
    """Fixed logarithmic bucket boundaries from ``lo`` up past ``hi``.

    Boundaries are spaced ``per_decade`` per factor of ten, starting at
    ``lo`` and extended until one reaches or exceeds ``hi`` — so the
    spacing is fixed by construction and the top finite bucket always
    covers ``hi``.  (The implicit ``+Inf`` bucket is added by
    :class:`Histogram`, not here.)
    """
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got lo={lo!r} hi={hi!r}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade!r}")
    factor = 10.0 ** (1.0 / per_decade)
    bounds = [float(lo)]
    while bounds[-1] < hi and len(bounds) < 200:
        bounds.append(bounds[-1] * factor)
    # Round to a stable short decimal so exposition and drain reports
    # are byte-stable across platforms' float printing.
    return tuple(float(f"{b:.6g}") for b in bounds)


#: Default buckets for wall-clock latencies: 100µs .. ~100s.
DEFAULT_TIME_BUCKETS = log_buckets(1e-4, 100.0, per_decade=3)

#: Default buckets for batch sizes / queue depths: 1 .. ~10k items.
DEFAULT_SIZE_BUCKETS = log_buckets(1.0, 10_000.0, per_decade=3)


def _format_value(value: float) -> str:
    """Prometheus text-format value: integers bare, floats via repr."""
    if value == math.inf:
        return "+Inf"
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if float(value).is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _series_suffix(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


class _Child:
    """One labeled series of an instrument; records happen here."""

    __slots__ = ("_instrument", "labels", "_value", "_reported")

    def __init__(self, instrument: "Instrument", labels: Mapping[str, str]):
        self._instrument = instrument
        self.labels = dict(labels)
        self._value = 0.0
        self._reported = 0.0

    # -- recording (registry lock held via the owning instrument) ---------
    def inc(self, amount: float = 1.0) -> None:
        """Add to a counter (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount!r}")
        with self._instrument._lock:
            self._value += amount

    def set(self, value: float) -> None:
        """Set a gauge to ``value``."""
        with self._instrument._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        """Adjust a gauge by ``amount`` (either sign)."""
        with self._instrument._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current value (point read; use snapshots for consistency)."""
        with self._instrument._lock:
            return self._value


class _HistogramChild(_Child):
    """One labeled histogram series: bucket counts plus sum and count."""

    __slots__ = ("buckets", "sum", "count", "_reported_state")

    def __init__(self, instrument: "Histogram", labels: Mapping[str, str]):
        super().__init__(instrument, labels)
        self.buckets = [0] * (len(instrument.bounds) + 1)  # + the +Inf bucket
        self.sum = 0.0
        self.count = 0
        self._reported_state: tuple[list[int], float, int] | None = None

    def observe(self, value: float, times: int = 1) -> None:
        """Record ``value`` ``times`` times; sum/count/bucket move atomically."""
        instrument = self._instrument
        index = bisect_left(instrument.bounds, value)
        with instrument._lock:
            self.buckets[index] += times
            self.sum += value * times
            self.count += times

    def inc(self, amount: float = 1.0) -> None:  # pragma: no cover - guard
        raise TypeError("histograms record via observe(), not inc()")

    def set(self, value: float) -> None:  # pragma: no cover - guard
        raise TypeError("histograms record via observe(), not set()")


class Instrument:
    """Base of the three instrument kinds; owns its labeled children.

    Instruments are created through :class:`MetricsRegistry` factory
    methods — re-declaring the same name returns the existing instrument
    (so call sites need no coordination), while re-declaring with a
    different kind, label set, or channel raises.
    """

    kind = "untyped"
    child_class: type = _Child

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        channel: str,
    ):
        self.registry = registry
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self.channel = channel
        self._lock = registry._lock
        self._children: dict[tuple[str, ...], _Child] = {}
        if not labelnames:
            self._default = self._make_child({})
        else:
            self._default = None

    def _make_child(self, labels: Mapping[str, str]) -> _Child:
        child = self.child_class(self, labels)
        self._children[tuple(str(labels[n]) for n in self.labelnames)] = child
        return child

    def labels(self, **labels: Any) -> Any:
        """The child series for one label valuation (created on first use)."""
        if tuple(sorted(labels)) != tuple(sorted(self.labelnames)):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, got "
                f"{tuple(sorted(labels))}"
            )
        key = tuple(str(labels[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child(
                        {n: str(labels[n]) for n in self.labelnames}
                    )
        return child

    # -- unlabeled convenience passthroughs --------------------------------
    def _require_default(self) -> _Child:
        if self._default is None:
            raise ValueError(f"{self.name} is labeled; call .labels() first")
        return self._default

    def inc(self, amount: float = 1.0) -> None:
        """Record on the unlabeled series (labeled instruments refuse)."""
        self._require_default().inc(amount)

    def set(self, value: float) -> None:
        """Set the unlabeled gauge series."""
        self._require_default().set(value)

    def add(self, amount: float) -> None:
        """Adjust the unlabeled gauge series."""
        self._require_default().add(amount)

    @property
    def value(self) -> float:
        """Value of the unlabeled series."""
        return self._require_default().value

    def _children_sorted(self) -> list[_Child]:
        return [self._children[key] for key in sorted(self._children)]


class Counter(Instrument):
    """A monotone non-negative counter."""

    kind = "counter"


class Gauge(Instrument):
    """A last-value gauge (either direction)."""

    kind = "gauge"


class Histogram(Instrument):
    """A fixed-log-bucket histogram (cumulative ``le`` exposition)."""

    kind = "histogram"
    child_class = _HistogramChild

    def __init__(self, registry, name, help, labelnames, channel, bounds):
        self.bounds: tuple[float, ...] = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError(f"{name}: bucket bounds must strictly increase")
        super().__init__(registry, name, help, labelnames, channel)

    def observe(self, value: float, times: int = 1) -> None:
        """Record ``value`` ``times`` times on the unlabeled series."""
        self._require_default().observe(value, times)


class MetricsRegistry:
    """The process-wide instrument table; every layer records into one.

    See the module docstring for the design constraints.  All factory
    methods are idempotent by name.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Instrument] = {}

    def __bool__(self) -> bool:
        return True

    # -- declaration -------------------------------------------------------
    def _declare(
        self,
        cls: type,
        name: str,
        help: str,
        labels: Sequence[str],
        channel: str,
        **extra: Any,
    ) -> Any:
        if channel not in CHANNELS:
            raise ValueError(f"unknown channel {channel!r} (one of {CHANNELS})")
        labelnames = tuple(labels)
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if (
                    type(existing) is not cls
                    or existing.labelnames != labelnames
                    or existing.channel != channel
                ):
                    raise ValueError(
                        f"metric {name!r} already declared as "
                        f"{existing.kind}{existing.labelnames} "
                        f"channel={existing.channel!r}"
                    )
                return existing
            instrument = (
                cls(self, name, help, labelnames, channel, **extra)
                if extra
                else cls(self, name, help, labelnames, channel)
            )
            self._instruments[name] = instrument
            return instrument

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        channel: str = "decision",
    ) -> Counter:
        """Declare (or fetch) a counter."""
        return self._declare(Counter, name, help, labels, channel)

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        channel: str = "decision",
    ) -> Gauge:
        """Declare (or fetch) a gauge."""
        return self._declare(Gauge, name, help, labels, channel)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        channel: str = "decision",
        buckets: Sequence[float] | None = None,
    ) -> Histogram:
        """Declare (or fetch) a histogram.

        ``buckets`` defaults to :data:`DEFAULT_TIME_BUCKETS` for the
        ``timing`` channel and :data:`DEFAULT_SIZE_BUCKETS` otherwise.
        """
        if buckets is None:
            buckets = (
                DEFAULT_TIME_BUCKETS
                if channel == "timing"
                else DEFAULT_SIZE_BUCKETS
            )
        return self._declare(
            Histogram, name, help, labels, channel, bounds=tuple(buckets)
        )

    # -- reading -----------------------------------------------------------
    def snapshot(
        self, channels: Iterable[str] | None = None
    ) -> dict[str, dict[str, Any]]:
        """A consistent point-in-time view of every (selected) series.

        Returns ``{name: {"kind", "channel", "help", "series"}}`` where
        ``series`` maps the sorted-label suffix (``""`` when unlabeled)
        to a value (counter/gauge) or a ``{"buckets", "sum", "count"}``
        dict (histogram).  Taken under the recording lock, so no torn
        pairs — ever.
        """
        wanted = None if channels is None else set(channels)
        with self._lock:
            out: dict[str, dict[str, Any]] = {}
            for name in sorted(self._instruments):
                instrument = self._instruments[name]
                if wanted is not None and instrument.channel not in wanted:
                    continue
                series: dict[str, Any] = {}
                for child in instrument._children_sorted():
                    key = _series_suffix(child.labels)
                    if isinstance(child, _HistogramChild):
                        series[key] = {
                            "buckets": list(child.buckets),
                            "sum": child.sum,
                            "count": child.count,
                        }
                    else:
                        series[key] = child._value
                out[name] = {
                    "kind": instrument.kind,
                    "channel": instrument.channel,
                    "help": instrument.help,
                    "series": series,
                }
            return out

    def exposition(self, channels: Iterable[str] | None = None) -> str:
        """Prometheus text exposition (format 0.0.4) of selected channels.

        Deterministic: instruments sorted by name, series by label
        suffix — two registries with equal contents expose equal bytes.
        """
        wanted = None if channels is None else set(channels)
        lines: list[str] = []
        with self._lock:
            for name in sorted(self._instruments):
                instrument = self._instruments[name]
                if wanted is not None and instrument.channel not in wanted:
                    continue
                if instrument.help:
                    lines.append(f"# HELP {name} {instrument.help}")
                lines.append(f"# TYPE {name} {instrument.kind}")
                for child in instrument._children_sorted():
                    if isinstance(child, _HistogramChild):
                        cumulative = 0
                        for bound, bucket in zip(
                            instrument.bounds, child.buckets
                        ):
                            cumulative += bucket
                            labels = dict(child.labels)
                            labels["le"] = _format_value(bound)
                            lines.append(
                                f"{name}_bucket{_series_suffix(labels)} "
                                f"{cumulative}"
                            )
                        labels = dict(child.labels)
                        labels["le"] = "+Inf"
                        lines.append(
                            f"{name}_bucket{_series_suffix(labels)} "
                            f"{child.count}"
                        )
                        suffix = _series_suffix(child.labels)
                        lines.append(
                            f"{name}_sum{suffix} {_format_value(child.sum)}"
                        )
                        lines.append(f"{name}_count{suffix} {child.count}")
                    else:
                        lines.append(
                            f"{name}{_series_suffix(child.labels)} "
                            f"{_format_value(child._value)}"
                        )
        return "\n".join(lines) + ("\n" if lines else "")

    # -- cross-process folding ---------------------------------------------
    def drain(self) -> dict[str, Any]:
        """Everything recorded since the last drain, as a JSON-safe report.

        The shard side of the piggyback protocol: counters and histogram
        buckets report deltas (and mark themselves reported), gauges
        report their current value.  Series with nothing new are
        omitted, so a quiet shard ships an empty report.
        """
        report: list[dict[str, Any]] = []
        with self._lock:
            for name in sorted(self._instruments):
                instrument = self._instruments[name]
                series: list[list[Any]] = []
                for child in instrument._children_sorted():
                    if isinstance(child, _HistogramChild):
                        prev = child._reported_state
                        if prev is None:
                            prev = ([0] * len(child.buckets), 0.0, 0)
                        delta_count = child.count - prev[2]
                        if delta_count == 0:
                            continue
                        series.append(
                            [
                                child.labels,
                                {
                                    "buckets": [
                                        b - p
                                        for b, p in zip(child.buckets, prev[0])
                                    ],
                                    "sum": child.sum - prev[1],
                                    "count": delta_count,
                                },
                            ]
                        )
                        child._reported_state = (
                            list(child.buckets),
                            child.sum,
                            child.count,
                        )
                    elif instrument.kind == "gauge":
                        series.append([child.labels, child._value])
                    else:
                        delta = child._value - child._reported
                        if delta == 0:
                            continue
                        series.append([child.labels, delta])
                        child._reported = child._value
                if not series:
                    continue
                entry: dict[str, Any] = {
                    "name": name,
                    "kind": instrument.kind,
                    "help": instrument.help,
                    "channel": instrument.channel,
                    "labels": list(instrument.labelnames),
                    "series": series,
                }
                if isinstance(instrument, Histogram):
                    entry["bounds"] = list(instrument.bounds)
                report.append(entry)
        return {"instruments": report}

    def absorb(self, report: Mapping[str, Any]) -> None:
        """Fold a :meth:`drain` report from another registry into this one."""
        for entry in report.get("instruments", ()):
            name = entry["name"]
            kind = entry["kind"]
            labels = entry.get("labels", ())
            channel = entry.get("channel", "decision")
            if kind == "histogram":
                instrument = self.histogram(
                    name,
                    entry.get("help", ""),
                    labels,
                    channel,
                    buckets=entry["bounds"],
                )
                for labelvals, payload in entry["series"]:
                    child = (
                        instrument.labels(**labelvals)
                        if labels
                        else instrument._require_default()
                    )
                    with self._lock:
                        for index, delta in enumerate(payload["buckets"]):
                            child.buckets[index] += delta
                        child.sum += payload["sum"]
                        child.count += payload["count"]
            elif kind == "gauge":
                instrument = self.gauge(
                    name, entry.get("help", ""), labels, channel
                )
                for labelvals, value in entry["series"]:
                    target = (
                        instrument.labels(**labelvals) if labels else instrument
                    )
                    target.set(value)
            else:
                instrument = self.counter(
                    name, entry.get("help", ""), labels, channel
                )
                for labelvals, delta in entry["series"]:
                    target = (
                        instrument.labels(**labelvals) if labels else instrument
                    )
                    target.inc(delta)


class LazySeries:
    """A pre-bound handle for one hot instrument, declared on first use.

    Re-declaring an instrument through the registry takes the registry
    lock and re-validates its shape; resolving labels sorts them.  A hot
    call site instead keeps one ``LazySeries`` and calls it with the
    registry and the label *values* (in declaration order): the first
    call per registry declares the instrument, the first call per label
    valuation resolves its child, and every later call is one dict
    lookup.  Nothing is declared before the first recording, so the
    exposition is byte-identical to declaring at the call site — no
    zero-valued series appears early.  A different registry (a journal
    adopting its gateway's hub registry) rebinds the handle.
    """

    __slots__ = ("_kind", "_name", "_help", "_labels", "_channel", "_state")

    def __init__(
        self,
        kind: str,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        channel: str = "decision",
    ):
        self._kind = kind
        self._name = name
        self._help = help
        self._labels = tuple(labels)
        self._channel = channel
        # (registry, instrument, {label values: child}), swapped whole so
        # concurrent recorders never pair one registry with another's
        # children.
        self._state: tuple[Any, Any, dict[tuple[str, ...], Any]] | None = None

    def __call__(self, registry: Any, *values: str) -> Any:
        """The series for ``values`` on ``registry`` (declared lazily)."""
        state = self._state
        if state is None or state[0] is not registry:
            declare = getattr(registry, self._kind)
            instrument = declare(
                self._name, self._help, self._labels, self._channel
            )
            state = self._state = (registry, instrument, {})
        children = state[2]
        child = children.get(values)
        if child is None:
            instrument = state[1]
            child = children[values] = (
                instrument.labels(**dict(zip(self._labels, values)))
                if self._labels
                else instrument
            )
        return child


class _NullSeries:
    """Accepts every recording and does nothing; one shared instance."""

    __slots__ = ()

    def labels(self, **labels: Any) -> "_NullSeries":
        """Return self: null children are indistinguishable."""
        return self

    def inc(self, amount: float = 1.0) -> None:
        """Drop the record."""

    def set(self, value: float) -> None:
        """Drop the record."""

    def add(self, amount: float) -> None:
        """Drop the record."""

    def observe(self, value: float, times: int = 1) -> None:
        """Drop the record."""

    @property
    def value(self) -> float:
        """Always zero."""
        return 0.0


_NULL_SERIES = _NullSeries()


class NullRegistry:
    """The no-op registry: instrumented code runs, nothing is recorded.

    Components default to this so the library surface stays usable (and
    benchmarkable) without a hub; it is falsy, so
    ``registry or NULL_REGISTRY`` composes and ``if registry:`` guards
    optional work like building piggyback reports.
    """

    def __bool__(self) -> bool:
        return False

    def counter(self, *args: Any, **kwargs: Any) -> _NullSeries:
        """A null counter."""
        return _NULL_SERIES

    def gauge(self, *args: Any, **kwargs: Any) -> _NullSeries:
        """A null gauge."""
        return _NULL_SERIES

    def histogram(self, *args: Any, **kwargs: Any) -> _NullSeries:
        """A null histogram."""
        return _NULL_SERIES

    def snapshot(self, channels: Iterable[str] | None = None) -> dict:
        """Always empty."""
        return {}

    def exposition(self, channels: Iterable[str] | None = None) -> str:
        """Always empty."""
        return ""

    def drain(self) -> dict[str, Any]:
        """Always empty."""
        return {"instruments": []}

    def absorb(self, report: Mapping[str, Any]) -> None:
        """Drop the report."""


#: The shared no-op registry every component defaults to.
NULL_REGISTRY = NullRegistry()
