"""Metrics primitives: counters, gauges and fixed-bucket histograms.

The registry is the numeric half of the telemetry layer (events are the
other half, :mod:`repro.obs.events`).  It counts and samples; it does not
time.  Wall-clock spans belong to :class:`repro.obs.profile.PhaseProfiler`,
whose report :func:`repro.obs.profile.register_phase_metrics` mirrors into a
registry as ``profile.phase.*`` metrics.  Design constraints, in order:

1. **The disabled path is allocation-free.**  Every instrumented hot loop
   (one runtime round, one simulator event) runs with the
   :class:`NullRegistry` by default; its ``counter()`` / ``gauge()`` /
   ``histogram()`` accessors return shared no-op singletons, so
   instrumentation costs a couple of attribute lookups and nothing else.
2. **Pure stdlib, no locks.**  The optimizer and both runtimes are single
   threaded; the registry mirrors that and stays trivially fast.
3. **Values are validated like iterates.**  NaN or infinite observations
   are rejected with :class:`MetricsError`, mirroring the NaN/inf
   hardening of the price controllers — a poisoned metric is as useless
   as a poisoned price.

Histograms use fixed upper-bound buckets (Prometheus-style cumulative
export, see :mod:`repro.obs.export`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

#: Default value buckets for plain histograms (decades around 1.0).
DEFAULT_VALUE_BUCKETS: tuple[float, ...] = (
    1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6,
)


class MetricsError(ValueError):
    """Raised on invalid metric values (NaN/inf/negative) or name clashes."""


def _require_finite(metric: str, value: float) -> float:
    """Reject NaN and infinities — consistent with the price hardening."""
    if not math.isfinite(value):
        raise MetricsError(f"{metric}: observation must be finite, got {value}")
    return value


class Counter:
    """A monotonically increasing count (events, messages, iterations)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        _require_finite(self.name, amount)
        if amount < 0.0:
            raise MetricsError(
                f"{self.name}: counters only go up, got increment {amount}"
            )
        self._value += amount


class Gauge:
    """A point-in-time value (current utility, queue depth, γ)."""

    __slots__ = ("name", "_value", "_set")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._set = False

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        _require_finite(self.name, value)
        self._value = value
        self._set = True


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable view of one histogram's state.

    ``buckets`` pairs each upper bound with its *cumulative* count (the
    Prometheus ``le`` convention); the implicit ``+Inf`` bucket equals
    ``count``.  ``low``/``high`` are the extreme observations (``None``
    for an empty window — snapshots never invent values).
    """

    name: str
    bounds: tuple[float, ...]
    buckets: tuple[int, ...]
    count: int
    total: float
    low: float | None
    high: float | None

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Combine two windows of the *same* histogram.

        Counts, totals and cumulative buckets add (the cumulative sum of
        a union is the sum of the cumulative sums); extremes take the
        min/max of whichever sides observed anything.  Bucket bounds are
        the histogram's identity — merging across different bounds would
        silently misbin, so it raises :class:`MetricsError` instead.
        """
        if self.bounds != other.bounds:
            raise MetricsError(
                f"{self.name}: cannot merge histograms with different "
                f"bucket bounds ({self.bounds} vs {other.bounds})"
            )
        lows = [v for v in (self.low, other.low) if v is not None]
        highs = [v for v in (self.high, other.high) if v is not None]
        return HistogramSnapshot(
            name=self.name,
            bounds=self.bounds,
            buckets=tuple(a + b for a, b in zip(self.buckets, other.buckets)),
            count=self.count + other.count,
            total=self.total + other.total,
            low=min(lows) if lows else None,
            high=max(highs) if highs else None,
        )


class Histogram:
    """Fixed-bucket histogram of finite observations."""

    __slots__ = ("name", "_bounds", "_counts", "_count", "_total", "_low", "_high")

    def __init__(self, name: str, bounds: Iterable[float] = DEFAULT_VALUE_BUCKETS) -> None:
        self.name = name
        ordered = tuple(bounds)
        if not ordered:
            raise MetricsError(f"{name}: histogram needs at least one bucket bound")
        for bound in ordered:
            _require_finite(name, bound)
        if any(b >= a for b, a in zip(ordered, ordered[1:])):
            raise MetricsError(
                f"{name}: bucket bounds must be strictly ascending, got {ordered}"
            )
        self._bounds = ordered
        self._counts = [0] * (len(ordered) + 1)  # +1 = overflow (+Inf) bucket
        self._count = 0
        self._total = 0.0
        self._low: float | None = None
        self._high: float | None = None

    @property
    def bounds(self) -> tuple[float, ...]:
        return self._bounds

    @property
    def count(self) -> int:
        return self._count

    def observe(self, value: float) -> None:
        _require_finite(self.name, value)
        index = len(self._bounds)
        for position, bound in enumerate(self._bounds):
            if value <= bound:
                index = position
                break
        self._counts[index] += 1
        self._count += 1
        self._total += value
        if self._low is None or value < self._low:
            self._low = value
        if self._high is None or value > self._high:
            self._high = value

    def snapshot(self) -> HistogramSnapshot:
        cumulative: list[int] = []
        running = 0
        for raw in self._counts[:-1]:
            running += raw
            cumulative.append(running)
        return HistogramSnapshot(
            name=self.name,
            bounds=self._bounds,
            buckets=tuple(cumulative),
            count=self._count,
            total=self._total,
            low=self._low,
            high=self._high,
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """One consistent view of every metric in a registry."""

    counters: dict[str, float]
    gauges: dict[str, float]
    histograms: dict[str, HistogramSnapshot]

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine two snapshots into one farm-wide view.

        Counters *sum* (they count events, and events add across
        processes); gauges are *last-writer-wins* (``other`` is the later
        observation — a point-in-time value has no meaningful sum);
        histograms merge bucket-wise via :meth:`HistogramSnapshot.merge`.
        A name registered as different kinds on the two sides is the
        same poisoned state the registry's ``_claim`` guards against and
        raises :class:`MetricsError`.
        """
        for name in self.counters:
            if name in other.gauges or name in other.histograms:
                raise MetricsError(
                    f"metric {name!r} is a counter on one side of the "
                    "merge and a different kind on the other"
                )
        for name in self.gauges:
            if name in other.counters or name in other.histograms:
                raise MetricsError(
                    f"metric {name!r} is a gauge on one side of the "
                    "merge and a different kind on the other"
                )
        for name in self.histograms:
            if name in other.counters or name in other.gauges:
                raise MetricsError(
                    f"metric {name!r} is a histogram on one side of the "
                    "merge and a different kind on the other"
                )
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0.0) + value
        gauges = {**self.gauges, **other.gauges}
        histograms = dict(self.histograms)
        for name, snapshot in other.histograms.items():
            mine = histograms.get(name)
            histograms[name] = (
                snapshot if mine is None else mine.merge(snapshot)
            )
        return MetricsSnapshot(
            counters={name: counters[name] for name in sorted(counters)},
            gauges={name: gauges[name] for name in sorted(gauges)},
            histograms={
                name: histograms[name] for name in sorted(histograms)
            },
        )


class MetricsRegistry:
    """Namespace of counters, gauges and histograms, snapshot-able at any
    point.  Metric names are dotted lowercase (``lrgp.iteration``); one
    name maps to exactly one metric kind for its whole life."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _claim(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise MetricsError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def counter(self, name: str) -> Counter:
        existing = self._counters.get(name)
        if existing is None:
            self._claim(name, "counter")
            existing = self._counters[name] = Counter(name)
        return existing

    def gauge(self, name: str) -> Gauge:
        existing = self._gauges.get(name)
        if existing is None:
            self._claim(name, "gauge")
            existing = self._gauges[name] = Gauge(name)
        return existing

    def histogram(
        self, name: str, bounds: Iterable[float] = DEFAULT_VALUE_BUCKETS
    ) -> Histogram:
        existing = self._histograms.get(name)
        if existing is None:
            self._claim(name, "histogram")
            existing = self._histograms[name] = Histogram(name, bounds)
        return existing

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters={name: c.value for name, c in sorted(self._counters.items())},
            gauges={
                name: g.value for name, g in sorted(self._gauges.items()) if g._set
            },
            histograms={
                name: h.snapshot() for name, h in sorted(self._histograms.items())
            },
        )

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a snapshot (typically from another process) into this
        registry's live metrics.

        Counters add, gauges take the snapshot's value (it is the later
        observation), histograms de-cumulate the snapshot's Prometheus
        buckets back into per-bucket counts and add them in place.  Kind
        clashes surface through the usual ``_claim`` check; differing
        histogram bounds raise :class:`MetricsError` like
        :meth:`HistogramSnapshot.merge` does.
        """
        for name, value in snapshot.counters.items():
            self.counter(name).inc(value)
        for name, value in snapshot.gauges.items():
            self.gauge(name).set(value)
        for name, incoming in snapshot.histograms.items():
            histogram = self.histogram(name, incoming.bounds)
            if histogram.bounds != incoming.bounds:
                raise MetricsError(
                    f"{name}: cannot merge histograms with different "
                    f"bucket bounds ({histogram.bounds} vs "
                    f"{incoming.bounds})"
                )
            previous = 0
            for index, cumulative in enumerate(incoming.buckets):
                histogram._counts[index] += cumulative - previous
                previous = cumulative
            histogram._counts[-1] += incoming.count - previous
            histogram._count += incoming.count
            histogram._total += incoming.total
            if incoming.low is not None and (
                histogram._low is None or incoming.low < histogram._low
            ):
                histogram._low = incoming.low
            if incoming.high is not None and (
                histogram._high is None or incoming.high > histogram._high
            ):
                histogram._high = incoming.high


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null", (1.0,))


class NullRegistry(MetricsRegistry):
    """The default registry: every accessor returns a shared no-op
    singleton, so the uninstrumented fast path allocates nothing."""

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE

    def histogram(
        self, name: str, bounds: Iterable[float] = DEFAULT_VALUE_BUCKETS
    ) -> Histogram:
        return _NULL_HISTOGRAM

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        # Merging into the shared no-op singletons would mutate global
        # state; the disabled registry discards, as everywhere else.
        pass


NULL_REGISTRY = NullRegistry()
