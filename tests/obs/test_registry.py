"""Tests for the metrics registry primitives."""

import math

import pytest

from repro.obs.registry import (
    NULL_REGISTRY,
    Histogram,
    MetricsError,
    MetricsRegistry,
    NullRegistry,
)


class TestCounter:
    def test_counts_up(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_rejects_invalid_increments(self, bad):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(MetricsError):
            counter.inc(bad)
        assert counter.value == 0.0


class TestGauge:
    def test_set_and_read(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(4.2)
        assert gauge.value == 4.2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        gauge = MetricsRegistry().gauge("g")
        with pytest.raises(MetricsError):
            gauge.set(bad)

    def test_unset_gauges_excluded_from_snapshot(self):
        registry = MetricsRegistry()
        registry.gauge("never_set")
        registry.gauge("set").set(1.0)
        assert list(registry.snapshot().gauges) == ["set"]


class TestHistogram:
    def test_cumulative_buckets(self):
        histogram = Histogram("h", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap.buckets == (1, 2, 3)  # cumulative, +Inf implied by count
        assert snap.count == 4
        assert snap.total == pytest.approx(555.5)
        assert snap.low == 0.5
        assert snap.high == 500.0
        assert snap.mean == pytest.approx(555.5 / 4)

    def test_empty_window_snapshot_invents_nothing(self):
        snap = Histogram("h", bounds=(1.0,)).snapshot()
        assert snap.count == 0
        assert snap.low is None
        assert snap.high is None
        assert snap.mean is None

    def test_boundary_value_falls_in_le_bucket(self):
        histogram = Histogram("h", bounds=(1.0, 2.0))
        histogram.observe(1.0)  # Prometheus le semantics: inclusive
        assert histogram.snapshot().buckets == (1, 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_observations(self, bad):
        histogram = Histogram("h", bounds=(1.0,))
        with pytest.raises(MetricsError):
            histogram.observe(bad)

    @pytest.mark.parametrize(
        "bounds", [(), (1.0, 1.0), (2.0, 1.0), (float("nan"),), (float("inf"),)]
    )
    def test_rejects_bad_bounds(self, bounds):
        with pytest.raises(MetricsError):
            Histogram("h", bounds=bounds)


class TestRegistry:
    def test_name_cannot_change_kind(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(MetricsError, match="already registered"):
            registry.gauge("m")
        with pytest.raises(MetricsError, match="already registered"):
            registry.histogram("m")

    def test_snapshot_is_sorted_and_complete(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        registry.gauge("g").set(1.0)
        registry.histogram("h", (1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert list(snap.counters) == ["a", "b"]
        assert snap.counters == {"a": 2.0, "b": 1.0}
        assert not snap.empty

    def test_empty_snapshot(self):
        assert MetricsRegistry().snapshot().empty


class TestNullRegistry:
    def test_returns_shared_singletons(self):
        registry = NullRegistry()
        assert registry.counter("a") is registry.counter("b")
        assert registry.gauge("a") is registry.gauge("b")
        assert registry.histogram("a") is registry.histogram("b")

    def test_everything_is_a_noop(self):
        NULL_REGISTRY.counter("c").inc(math.pi)
        NULL_REGISTRY.gauge("g").set(1.0)
        NULL_REGISTRY.histogram("h").observe(1.0)
        assert NULL_REGISTRY.snapshot().empty

    def test_null_counter_swallows_even_invalid_values(self):
        # The disabled path must never raise, whatever it is fed.
        NULL_REGISTRY.counter("c").inc(float("nan"))
        NULL_REGISTRY.gauge("g").set(float("inf"))
        NULL_REGISTRY.histogram("h").observe(float("nan"))
