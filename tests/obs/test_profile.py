"""Tests for the hierarchical phase profiler and its exports."""

import json
import time

import pytest

from repro.core.lrgp import LRGP, LRGPConfig
from repro.obs import (
    NULL_PROFILER,
    NULL_TELEMETRY,
    MetricsRegistry,
    NullProfiler,
    PhaseProfiler,
    Telemetry,
    register_phase_metrics,
    render_report,
    to_collapsed,
    to_prometheus_text,
    to_speedscope,
)
from repro.obs.profile import _NULL_SPAN
from repro.workloads.registry import workload_from_spec


class TestPhaseProfiler:
    def test_nested_phases_build_a_tree(self):
        profiler = PhaseProfiler()
        with profiler.phase("solve"):
            for _ in range(3):
                with profiler.phase("iteration"):
                    with profiler.phase("argmax"):
                        pass
        report = profiler.report()
        assert [stat.dotted for stat in report.stats] == [
            "solve",
            "solve.iteration",
            "solve.iteration.argmax",
        ]
        assert report.find("solve").calls == 1
        assert report.find("solve.iteration").calls == 3
        assert report.find("solve.iteration.argmax").calls == 3

    def test_same_name_at_different_paths_is_different_buckets(self):
        profiler = PhaseProfiler()
        with profiler.phase("a"):
            with profiler.phase("work"):
                pass
        with profiler.phase("b"):
            with profiler.phase("work"):
                pass
        dotted = [stat.dotted for stat in profiler.report().stats]
        assert dotted == ["a", "a.work", "b", "b.work"]

    def test_self_time_is_total_minus_children_and_never_negative(self):
        profiler = PhaseProfiler()
        with profiler.phase("outer"):
            time.sleep(0.002)
            with profiler.phase("inner"):
                time.sleep(0.002)
        report = profiler.report()
        outer = report.find("outer")
        inner = report.find("outer.inner")
        assert outer.self_wall_ns == outer.wall_ns - inner.wall_ns
        assert outer.self_wall_ns >= 0
        assert inner.self_wall_ns == inner.wall_ns

    def test_self_times_sum_exactly_to_root_wall_time(self):
        profiler = PhaseProfiler()
        with profiler.phase("root"):
            with profiler.phase("a"):
                with profiler.phase("a1"):
                    pass
            with profiler.phase("b"):
                pass
        report = profiler.report()
        assert report.total_self_wall_ns == report.total_wall_ns

    def test_span_closes_on_exception(self):
        profiler = PhaseProfiler()
        with pytest.raises(RuntimeError, match="boom"):
            with profiler.phase("solve"):
                raise RuntimeError("boom")
        assert profiler.depth == 0
        assert profiler.report().find("solve").calls == 1

    def test_depth_tracks_open_spans(self):
        profiler = PhaseProfiler()
        assert profiler.depth == 0
        with profiler.phase("a"):
            assert profiler.depth == 1
            with profiler.phase("b"):
                assert profiler.depth == 2
        assert profiler.depth == 0

    def test_reset_drops_phases(self):
        profiler = PhaseProfiler()
        with profiler.phase("a"):
            pass
        profiler.reset()
        assert profiler.report().empty

    def test_reset_with_open_span_raises(self):
        profiler = PhaseProfiler()
        with profiler.phase("a"):
            with pytest.raises(RuntimeError, match="1 span"):
                profiler.reset()

    def test_allocation_tracking_records_growth(self):
        profiler = PhaseProfiler(track_allocations=True)
        sink = []
        with profiler.phase("alloc"):
            sink.append(bytearray(256 * 1024))
        report = profiler.report()
        assert report.track_allocations
        assert report.find("alloc").alloc_bytes >= 256 * 1024
        del sink

    def test_report_to_dict_round_trips_through_json(self):
        profiler = PhaseProfiler()
        with profiler.phase("solve"):
            with profiler.phase("iteration"):
                pass
        payload = json.loads(json.dumps(profiler.report().to_dict()))
        assert payload["version"] == 1
        assert set(payload["phases"]) == {"solve", "solve.iteration"}
        assert payload["phases"]["solve"]["calls"] == 1


class TestNullProfiler:
    def test_phase_returns_the_shared_noop_span(self):
        assert NULL_PROFILER.phase("anything") is _NULL_SPAN
        assert NULL_PROFILER.phase("other") is _NULL_SPAN

    def test_disabled_and_empty(self):
        assert isinstance(NULL_PROFILER, NullProfiler)
        assert not NULL_PROFILER.enabled
        with NULL_PROFILER.phase("solve"):
            pass
        assert NULL_PROFILER.report().empty

    def test_null_telemetry_carries_the_null_profiler(self):
        assert NULL_TELEMETRY.profiler is NULL_PROFILER

    def test_telemetry_default_profiler_is_null(self):
        assert Telemetry().profiler is NULL_PROFILER

    def test_telemetry_accepts_a_real_profiler(self):
        profiler = PhaseProfiler()
        assert Telemetry(profiler=profiler).profiler is profiler


class TestCollapsedExport:
    def test_lines_are_semicolon_paths_with_self_ns(self):
        profiler = PhaseProfiler()
        with profiler.phase("solve"):
            with profiler.phase("iteration"):
                time.sleep(0.001)
        text = to_collapsed(profiler.report())
        lines = text.strip().splitlines()
        assert any(line.startswith("solve;iteration ") for line in lines)
        for line in lines:
            stack, _, value = line.rpartition(" ")
            assert stack
            assert int(value) > 0

    def test_empty_report_renders_empty(self):
        assert to_collapsed(PhaseProfiler().report()) == ""


class TestSpeedscopeExport:
    def test_profile_is_valid_balanced_evented_json(self):
        profiler = PhaseProfiler()
        with profiler.phase("solve"):
            for _ in range(2):
                with profiler.phase("iteration"):
                    with profiler.phase("argmax"):
                        pass
        payload = json.loads(to_speedscope(profiler.report(), name="t"))
        assert payload["$schema"].startswith("https://www.speedscope.app/")
        names = [frame["name"] for frame in payload["shared"]["frames"]]
        assert sorted(names) == ["argmax", "iteration", "solve"]
        profile = payload["profiles"][0]
        assert profile["type"] == "evented"
        assert profile["name"] == "t"
        assert profile["unit"] == "nanoseconds"
        depth = 0
        last_at = 0
        for event in profile["events"]:
            assert event["at"] >= last_at
            last_at = event["at"]
            depth += 1 if event["type"] == "O" else -1
            assert depth >= 0
        assert depth == 0
        assert profile["endValue"] == last_at


class TestRegisterPhaseMetrics:
    def _report(self):
        profiler = PhaseProfiler()
        with profiler.phase("solve"):
            with profiler.phase("iteration"):
                time.sleep(0.001)
        return profiler.report()

    def test_registers_calls_counter_and_seconds_gauges(self):
        report = self._report()
        registry = MetricsRegistry()
        count = register_phase_metrics(report, registry)
        assert count == 2
        snapshot = registry.snapshot()
        assert snapshot.counters["profile.phase.solve.calls"] == 1
        assert snapshot.counters["profile.phase.solve.iteration.calls"] == 1
        total = snapshot.gauges["profile.phase.solve.total_seconds"]
        inner = snapshot.gauges["profile.phase.solve.iteration.total_seconds"]
        assert total >= inner > 0.0
        assert (
            snapshot.gauges["profile.phase.solve.iteration.self_seconds"]
            == inner
        )

    def test_re_registering_is_idempotent(self):
        report = self._report()
        registry = MetricsRegistry()
        register_phase_metrics(report, registry)
        register_phase_metrics(report, registry)
        snapshot = registry.snapshot()
        assert snapshot.counters["profile.phase.solve.calls"] == 1

    def test_phase_metrics_flow_through_prometheus_export(self):
        report = self._report()
        registry = MetricsRegistry()
        register_phase_metrics(report, registry)
        text = to_prometheus_text(registry.snapshot())
        assert "repro_profile_phase_solve_calls_total 1" in text
        assert "repro_profile_phase_solve_iteration_self_seconds" in text


class TestRenderReport:
    def test_indents_by_depth_and_totals(self):
        profiler = PhaseProfiler()
        with profiler.phase("solve"):
            with profiler.phase("iteration"):
                pass
        text = render_report(profiler.report())
        lines = text.splitlines()
        assert lines[0].startswith("phase")
        assert any(line.startswith("solve ") for line in lines)
        assert any(line.startswith("  iteration ") for line in lines)
        assert lines[-1].startswith("total ")

    def test_empty_report(self):
        assert "no phases" in render_report(PhaseProfiler().report())

    def test_allocation_column_appears_when_tracking(self):
        profiler = PhaseProfiler(track_allocations=True)
        with profiler.phase("a"):
            pass
        assert "alloc" in render_report(profiler.report())


class TestProfiledSolvesStayExact:
    """Acceptance: profiling must not change solver trajectories."""

    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_profiled_trajectory_is_bit_identical(self, engine):
        problem = workload_from_spec("flows-x4")
        plain = LRGP(problem, engine=engine)
        plain.run(60)
        profiled = LRGP(
            problem,
            LRGPConfig(telemetry=Telemetry(profiler=PhaseProfiler())),
            engine=engine,
        )
        profiled.run(60)
        assert plain.utilities == profiled.utilities

    def test_phase_self_times_account_for_solve_wall_clock(self):
        """Self times on flows-x4 sum to within 2% of the measured wall."""
        problem = workload_from_spec("flows-x4")
        profiler = PhaseProfiler()
        optimizer = LRGP(
            problem, LRGPConfig(telemetry=Telemetry(profiler=profiler))
        )
        start = time.perf_counter_ns()
        optimizer.run(100)
        measured = time.perf_counter_ns() - start
        report = profiler.report()
        assert report.total_self_wall_ns == report.total_wall_ns
        assert abs(report.total_wall_ns - measured) / measured < 0.02

    def test_solver_phase_tree_shape(self):
        problem = workload_from_spec("base")
        profiler = PhaseProfiler()
        LRGP(problem, LRGPConfig(telemetry=Telemetry(profiler=profiler))).run(5)
        dotted = [stat.dotted for stat in profiler.report().stats]
        assert dotted == [
            "solve",
            "solve.iteration",
            "solve.iteration.argmax",
            "solve.iteration.admission",
            "solve.iteration.price_update",
        ]
