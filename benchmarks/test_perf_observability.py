"""Perf guard: the telemetry no-op path costs <5% of an LRGP iteration.

The observability layer promises that leaving ``LRGPConfig.telemetry`` at
its default (:data:`~repro.obs.NULL_TELEMETRY`) is effectively free.  The
uninstrumented seed code no longer exists to A/B against, so the guard
measures the proxy directly: one iteration's worth of null-telemetry
operations (the exact null-profiler spans, guards, counter and gauge
touches ``LRGP.step`` executes when telemetry is off) timed in isolation,
divided by the median measured iteration time.  That ratio must stay
under 5%.

The run also archives ``results/BENCH_observability.json`` with the raw
numbers, including the cost of *enabled* telemetry (MemorySink) for
context — enabled mode is allowed to cost more; only the default path is
guarded.
"""

from __future__ import annotations

import json
import statistics
import time

from conftest import RESULTS_DIR

from repro.core.lrgp import LRGP, LRGPConfig
from repro.obs import NULL_TELEMETRY, MemorySink, Telemetry
from repro.workloads.base import base_workload

#: The ISSUE's acceptance threshold for the default (no-op) path.
MAX_NOOP_OVERHEAD = 0.05

WARMUP_ITERATIONS = 30
TIMED_ITERATIONS = 200
BUNDLE_REPEATS = 2000


def median_step_ns(telemetry: Telemetry) -> float:
    """Median wall time of one warm LRGP iteration under ``telemetry``."""
    optimizer = LRGP(base_workload(), LRGPConfig.adaptive(telemetry=telemetry))
    optimizer.run(WARMUP_ITERATIONS)
    samples = []
    sink = telemetry.sink
    for _ in range(TIMED_ITERATIONS):
        if isinstance(sink, MemorySink):
            sink.clear()  # keep the buffer from growing across samples
        start = time.perf_counter_ns()
        optimizer.step()
        samples.append(time.perf_counter_ns() - start)
    return statistics.median(samples)


def noop_bundle_ns() -> float:
    """Time one iteration's worth of null-telemetry operations.

    Mirrors exactly what ``LRGP.step`` adds per iteration when telemetry
    is disabled on the base workload: one counter increment, one gauge
    set, the per-node ``telemetry.enabled`` guards (3 consumer nodes) and
    the per-controller/per-schedule ``probe is not None`` guards (3 node
    controllers + 3 gamma schedules), plus the null-profiler spans —
    ``iteration``, ``argmax``, one ``admission`` and one ``price_update``
    per consumer node, one link-price ``price_update``, and the per-run
    ``solve`` span amortized over the iterations.
    """
    telemetry = NULL_TELEMETRY
    registry = telemetry.registry
    profiler = telemetry.profiler
    probe = None
    start = time.perf_counter_ns()
    for _ in range(BUNDLE_REPEATS):
        touched = 0
        with profiler.phase("iteration"):
            with profiler.phase("argmax"):
                pass
            for _node in range(3):
                with profiler.phase("admission"):
                    if telemetry.enabled:  # pragma: no cover - never taken
                        touched += 1
                with profiler.phase("price_update"):
                    if probe is not None:  # controller guard
                        touched += 1
                if probe is not None:  # gamma-schedule guard
                    touched += 1
            with profiler.phase("price_update"):
                pass
        registry.counter("lrgp.iterations").inc()
        registry.gauge("lrgp.utility").set(float(touched))
        if telemetry.enabled:  # pragma: no cover - never taken
            touched += 1
    span_cost_start = time.perf_counter_ns()
    for _ in range(BUNDLE_REPEATS):
        with profiler.phase("solve"):  # one per run(); amortize conservatively
            pass
    solve_span_ns = (time.perf_counter_ns() - span_cost_start) / BUNDLE_REPEATS
    return (
        (span_cost_start - start) / BUNDLE_REPEATS + solve_span_ns
    )


def test_noop_telemetry_overhead_under_threshold():
    iteration_ns = median_step_ns(NULL_TELEMETRY)
    bundle_ns = noop_bundle_ns()
    enabled_ns = median_step_ns(Telemetry(sink=MemorySink()))
    noop_ratio = bundle_ns / iteration_ns
    payload = {
        "version": 1,
        "workload": "base",
        "timed_iterations": TIMED_ITERATIONS,
        "iteration_median_ns": iteration_ns,
        "noop_bundle_ns": bundle_ns,
        "noop_overhead_ratio": noop_ratio,
        "enabled_iteration_median_ns": enabled_ns,
        "enabled_overhead_ratio": enabled_ns / iteration_ns - 1.0,
        "threshold": MAX_NOOP_OVERHEAD,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_observability.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print()
    print(
        f"iteration {iteration_ns:.0f}ns, null-telemetry bundle "
        f"{bundle_ns:.0f}ns ({100 * noop_ratio:.2f}% of an iteration), "
        f"enabled telemetry {enabled_ns:.0f}ns"
    )
    assert noop_ratio < MAX_NOOP_OVERHEAD, (
        f"null telemetry costs {100 * noop_ratio:.2f}% of an LRGP iteration "
        f"(budget {100 * MAX_NOOP_OVERHEAD:.0f}%)"
    )


PROFILE_ITERATIONS = 150

#: Acceptance bound: phase self-times must account for the measured
#: solve wall clock to within 2%.
MAX_ACCOUNTING_GAP = 0.02


def test_profiled_run_archives_phase_timings():
    """Profile flows-x4 and archive ``BENCH_profile.json``.

    The artifact feeds the bench watchdog: ``wall_time_seconds`` carries
    a latency-like leaf so a genuine slowdown is flagged, and the
    per-phase ``self_seconds`` entries are what ``repro bench compare``
    ranks in its regression-blame section.
    """
    from repro.obs import NullSink, PhaseProfiler
    from repro.workloads.scaling import scale_flows

    profiler = PhaseProfiler()
    telemetry = Telemetry(sink=NullSink(), enabled=False, profiler=profiler)
    optimizer = LRGP(scale_flows(4), LRGPConfig.adaptive(telemetry=telemetry))
    start = time.perf_counter_ns()
    optimizer.run(PROFILE_ITERATIONS)
    measured_ns = time.perf_counter_ns() - start
    report = profiler.report()

    assert report.total_self_wall_ns == report.total_wall_ns
    gap = abs(report.total_wall_ns - measured_ns) / measured_ns
    assert gap < MAX_ACCOUNTING_GAP, (
        f"phase self-times account for {100 * (1 - gap):.2f}% of the solve "
        f"wall clock (need {100 * (1 - MAX_ACCOUNTING_GAP):.0f}%)"
    )

    payload = {
        "version": 1,
        "workload": "flows-x4",
        "iterations": PROFILE_ITERATIONS,
        "wall_time_seconds": report.total_wall_ns / 1e9,
        "accounting_gap": gap,
        "phases": {
            stat.dotted: {
                "calls": stat.calls,
                "self_seconds": stat.self_wall_ns / 1e9,
                "total_seconds": stat.wall_ns / 1e9,
            }
            for stat in report.stats
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_profile.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print()
    print(
        f"profiled flows-x4 x{PROFILE_ITERATIONS}: "
        f"{report.total_wall_ns / 1e6:.1f}ms across "
        f"{len(report.stats)} phase(s), accounting gap {100 * gap:.3f}%"
    )
