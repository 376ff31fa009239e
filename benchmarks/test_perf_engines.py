"""Perf guard: the vectorized LRGP engine beats the reference dict engine.

The compiled engine (:mod:`repro.core.compiled`) exists to make large
workloads cheap, so the guard measures median per-iteration wall time of
both registered engines across the flow-scaling ladder and requires the
vectorized engine to be at least :data:`SPEEDUP_THRESHOLD` times faster
on the 24-flow workload (``flows-x4``, the paper's Table 2 scale point).

Small workloads are measured for context only: below ~6 flows the numpy
dispatch overhead dominates and the reference engine can win — that
crossover is expected and documented in ``docs/engines.md``, not guarded;
``solve()`` handles it via ``VECTORIZED_MIN_FLOWS`` (the archived
``dispatch`` section).

The ``dispatch`` section re-measures that crossover on every run: both
engines on a 2- to 6-flow ladder, with the smallest flow count from
which the vectorized engine is never slower recorded next to the
``VECTORIZED_MIN_FLOWS`` constant ``solve()`` actually uses.

The *scale* ladder extends the measurements past the paper's scale: the
vectorized engine's step time from 24 flows up to the 1k-flow / 10k-link
leaf-spine fabric, with each leg's incidence nonzeros and COO footprint
next to what dense incidence matrices would need, archived as the
``scale`` section.  The sparse-scale guard (``-m perf``) additionally
pins the memory claim: at the 1k-flow leg the COO footprint must be a
small fraction of the dense one.

The ``phases`` section splits a warm step of the 1k-flow leg into the
engine's profiler phases (``argmax`` / ``admission`` / ``price_update``,
plus the iteration's own glue), per step in ns; the parts sum exactly to
the measured iteration wall.  It is recorded with a profiler-only
telemetry bundle, so no price probes distort it.

Every run archives ``results/BENCH_engines.json`` with the raw numbers.
The guards are marked ``perf`` so they can be selected alone with
``-m perf``.
"""

from __future__ import annotations

import json
import statistics
import time
from collections.abc import Callable

import pytest
from conftest import RESULTS_DIR

from repro.core.compiled import VectorizedEngine, compile_problem
from repro.core.lrgp import LRGP, LRGPConfig
from repro.model.problem import Problem
from repro.obs import NULL_REGISTRY, NullSink, PhaseProfiler, Telemetry
from repro.solve import VECTORIZED_MIN_FLOWS
from repro.workloads.bottleneck import link_bottleneck_workload
from repro.workloads.base import base_workload
from repro.workloads.datacenter import leaf_spine_workload
from repro.workloads.generator import GeneratorConfig, generate_workload
from repro.workloads.micro import micro_workload
from repro.workloads.scaling import scale_flows

#: The ISSUE's acceptance bar: vectorized >= 3x reference at 24 flows.
SPEEDUP_THRESHOLD = 3.0
#: The workload the guard is enforced on (24 flows).
GUARD_WORKLOAD = "flows-x4"

WARMUP_ITERATIONS = 30
TIMED_ITERATIONS = 200

#: The scale guard's workload: >= 1k flows over a >= 10k-link fabric.
SCALE_WORKLOAD = "leafspine:flows=1024,leaves=100,leaves_per_flow=4,spines=100"
#: Reduced iteration counts for the large scale legs (per-step cost is
#: milliseconds there; medians stabilize quickly).
SCALE_WARMUP_ITERATIONS = 5
SCALE_TIMED_ITERATIONS = 25
#: The scale leg must keep at least this much of the dense footprint off
#: the table (the measured ratio is ~290x; 10x is the hard floor that
#: still proves nonzero-proportional scaling).
MEMORY_RATIO_FLOOR = 10.0

WORKLOADS: tuple[tuple[str, Callable[[], Problem]], ...] = (
    ("micro", micro_workload),
    ("base", base_workload),
    ("flows-x2", lambda: scale_flows(2)),
    ("flows-x4", lambda: scale_flows(4)),
    ("flows-x8", lambda: scale_flows(8)),
)

#: The small-problem ladder around ``VECTORIZED_MIN_FLOWS`` (2-6 flows).
DISPATCH_WORKLOADS: tuple[tuple[str, Callable[[], Problem]], ...] = (
    ("micro", micro_workload),
    ("bottleneck", lambda: link_bottleneck_workload(200000.0)),
    (
        "generated:flows=4,consumer_nodes=2",
        lambda: generate_workload(GeneratorConfig(flows=4, consumer_nodes=2)),
    ),
    (
        "generated:flows=5,consumer_nodes=3",
        lambda: generate_workload(GeneratorConfig(flows=5, consumer_nodes=3)),
    ),
    ("base", base_workload),
)

#: Profiler phases of one vectorized step, in the order they run.
STEP_PHASES = ("argmax", "admission", "price_update")
#: Timed steps of the 1k-flow phase split.
PHASE_TIMED_ITERATIONS = 50

#: Scale ladder: the paper ladder's top plus fabric workloads up to the
#: 1k-flow leg.  (name, factory, warmup, timed).
SCALE_WORKLOADS: tuple[
    tuple[str, Callable[[], Problem], int, int], ...
] = (
    ("flows-x4", lambda: scale_flows(4), WARMUP_ITERATIONS, TIMED_ITERATIONS),
    ("flows-x8", lambda: scale_flows(8), WARMUP_ITERATIONS, TIMED_ITERATIONS),
    (
        "leafspine:flows=256,leaves=64,spines=32",
        lambda: leaf_spine_workload(spines=32, leaves=64, flows=256),
        10,
        50,
    ),
    (
        SCALE_WORKLOAD,
        lambda: leaf_spine_workload(
            spines=100, leaves=100, flows=1024, leaves_per_flow=4
        ),
        SCALE_WARMUP_ITERATIONS,
        SCALE_TIMED_ITERATIONS,
    ),
)


def median_step_ns(
    problem: Problem,
    engine: str,
    warmup: int = WARMUP_ITERATIONS,
    timed: int = TIMED_ITERATIONS,
) -> float:
    """Median wall time of one warm LRGP iteration under ``engine``."""
    optimizer = LRGP(problem, LRGPConfig.adaptive(), engine=engine)
    optimizer.run(warmup)
    samples = []
    for _ in range(timed):
        start = time.perf_counter_ns()
        optimizer.step()
        samples.append(time.perf_counter_ns() - start)
    return statistics.median(samples)


@pytest.fixture(scope="module")
def engine_rows() -> list[dict[str, float | int | str]]:
    """Measure both engines on every workload (shared by both tests)."""
    return [speedup_row(name, factory()) for name, factory in WORKLOADS]


def speedup_row(name: str, problem: Problem) -> dict[str, float | int | str]:
    reference_ns = median_step_ns(problem, "reference")
    vectorized_ns = median_step_ns(problem, "vectorized")
    return {
        "name": name,
        "flows": len(problem.flows),
        "reference_ns": reference_ns,
        "vectorized_ns": vectorized_ns,
        "speedup": reference_ns / vectorized_ns,
    }


@pytest.fixture(scope="module")
def dispatch_rows() -> list[dict[str, float | int | str]]:
    """Both engines along the 2-6 flow ladder around the dispatch cut."""
    return [speedup_row(name, factory()) for name, factory in DISPATCH_WORKLOADS]


def measured_crossover(rows: list[dict[str, float | int | str]]) -> int:
    """Smallest flow count from which the vectorized engine never loses."""
    crossover = max(int(row["flows"]) for row in rows) + 1
    for row in sorted(rows, key=lambda r: int(r["flows"]), reverse=True):
        if float(row["speedup"]) < 1.0:
            break
        crossover = int(row["flows"])
    return crossover


@pytest.fixture(scope="module")
def phase_split() -> dict[str, object]:
    """Per-step profiler phases of the 1k-flow leg (profiler-only bundle)."""
    problem = leaf_spine_workload(
        spines=100, leaves=100, flows=1024, leaves_per_flow=4
    )
    profiler = PhaseProfiler()
    telemetry = Telemetry(
        registry=NULL_REGISTRY, sink=NullSink(), enabled=False, profiler=profiler
    )
    optimizer = LRGP(
        problem, LRGPConfig.adaptive(telemetry=telemetry), engine="vectorized"
    )
    # Bare steps, not run(): the phase paths then start at "iteration".
    for _ in range(SCALE_WARMUP_ITERATIONS):
        optimizer.step()
    profiler.reset()
    for _ in range(PHASE_TIMED_ITERATIONS):
        optimizer.step()
    report = profiler.report()
    per_step: dict[str, float] = {}
    for phase in STEP_PHASES:
        stat = report.find(f"iteration.{phase}")
        assert stat is not None, phase
        per_step[phase] = stat.wall_ns / PHASE_TIMED_ITERATIONS
    iteration = report.find("iteration")
    assert iteration is not None
    per_step["glue"] = iteration.self_wall_ns / PHASE_TIMED_ITERATIONS
    per_step["iteration"] = iteration.wall_ns / PHASE_TIMED_ITERATIONS
    return {
        "workload": SCALE_WORKLOAD,
        "timed_iterations": PHASE_TIMED_ITERATIONS,
        "per_step_ns": per_step,
        "share": {
            phase: per_step[phase] / per_step["iteration"]
            for phase in (*STEP_PHASES, "glue")
        },
    }


@pytest.fixture(scope="module")
def scale_rows() -> list[dict[str, float | int | str]]:
    """Measure the vectorized engine along the scale ladder.

    The reference engine is not run here — at the 1k-flow leg a single
    reference iteration costs more than the whole timed sample; its
    speedup story is already covered by ``engine_rows``.
    """
    rows: list[dict[str, float | int | str]] = []
    for name, factory, warmup, timed in SCALE_WORKLOADS:
        problem = factory()
        compiled = compile_problem(problem)
        rows.append(
            {
                "name": name,
                "flows": len(problem.flows),
                "links": compiled.n_links,
                "classes": compiled.n_classes,
                "incidence_nnz": compiled.nnz_link + compiled.nnz_node,
                "sparse_bytes": compiled.sparse_nbytes(),
                "dense_bytes": compiled.dense_nbytes(),
                "vectorized_ns": median_step_ns(problem, "vectorized", warmup, timed),
            }
        )
    return rows


def test_benchmark_engines_archives_results(
    engine_rows, dispatch_rows, scale_rows, phase_split
):
    crossover = measured_crossover(dispatch_rows)
    payload = {
        "version": 4,
        "timed_iterations": TIMED_ITERATIONS,
        "warmup_iterations": WARMUP_ITERATIONS,
        "guard_workload": GUARD_WORKLOAD,
        "threshold": SPEEDUP_THRESHOLD,
        "workloads": engine_rows,
        "dispatch": {
            "crossover_flows": VECTORIZED_MIN_FLOWS,
            "measured_crossover_flows": crossover,
            "note": (
                "solve() falls back to the reference engine below "
                f"VECTORIZED_MIN_FLOWS = {VECTORIZED_MIN_FLOWS} flows and "
                "records metadata['engine_fallback']; measured_crossover_flows "
                "is the smallest flow count of this ladder from which the "
                "vectorized engine is never slower"
            ),
            "source_workloads": [row["name"] for row in dispatch_rows],
            "workloads": dispatch_rows,
        },
        "phases": phase_split,
        "scale": {
            "note": (
                "vectorized step time along the scale ladder; sparse_bytes "
                "is the COO incidence footprint, dense_bytes what dense "
                "incidence matrices would need (guarded at "
                f">={MEMORY_RATIO_FLOOR:.0f}x at the 1k-flow fabric leg)"
            ),
            "source_workloads": [row["name"] for row in scale_rows],
            "workloads": scale_rows,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_engines.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print()
    for row in (*engine_rows, *dispatch_rows):
        print(
            f"{row['name']:>36} ({row['flows']:>2} flows): reference "
            f"{row['reference_ns']:>9.0f}ns, vectorized "
            f"{row['vectorized_ns']:>9.0f}ns, speedup {row['speedup']:.2f}x"
        )
    print(
        f"measured dispatch crossover: {crossover} flows "
        f"(VECTORIZED_MIN_FLOWS = {VECTORIZED_MIN_FLOWS})"
    )
    for row in scale_rows:
        print(
            f"{row['name']:>42} ({row['flows']:>4} flows, "
            f"{row['links']:>5} links): vectorized "
            f"{row['vectorized_ns']:>10.0f}ns, incidence "
            f"{row['sparse_bytes']}/{row['dense_bytes']} bytes"
        )
    per_step = phase_split["per_step_ns"]
    print(
        "1k-flow step phases (ns): "
        + ", ".join(f"{name} {per_step[name]:.0f}" for name in per_step)
    )
    for row in (*engine_rows, *dispatch_rows):
        assert row["reference_ns"] > 0.0
        assert row["vectorized_ns"] > 0.0
    for row in scale_rows:
        assert row["vectorized_ns"] > 0.0


@pytest.mark.perf
def test_vectorized_speedup_at_24_flows(engine_rows):
    row = next(r for r in engine_rows if r["name"] == GUARD_WORKLOAD)
    assert row["flows"] == 24
    assert row["speedup"] >= SPEEDUP_THRESHOLD, (
        f"vectorized engine is only {row['speedup']:.2f}x the reference "
        f"engine at {row['flows']} flows (bar: {SPEEDUP_THRESHOLD:.0f}x)"
    )


@pytest.mark.perf
def test_sparse_scale_1k_flows(scale_rows):
    """1k+ flows / 10k+ links solve on nonzero-sized arrays.

    The COO footprint must be a small fraction of what dense incidence
    matrices would occupy.
    """
    row = next(r for r in scale_rows if r["name"] == SCALE_WORKLOAD)
    assert row["flows"] >= 1024
    assert row["links"] >= 10_000
    assert row["dense_bytes"] / row["sparse_bytes"] >= MEMORY_RATIO_FLOOR

    problem = leaf_spine_workload(
        spines=100, leaves=100, flows=1024, leaves_per_flow=4
    )
    engine = VectorizedEngine(problem, LRGPConfig.adaptive())
    outcome = None
    for _ in range(SCALE_WARMUP_ITERATIONS):
        outcome = engine.step()
    assert outcome is not None and outcome.utility > 0.0


def test_phase_split_sums_to_iteration(phase_split):
    """The archived phases partition the step: self times sum exactly."""
    per_step = phase_split["per_step_ns"]
    parts = sum(per_step[name] for name in (*STEP_PHASES, "glue"))
    assert parts == pytest.approx(per_step["iteration"], rel=1e-12)
    assert all(per_step[name] > 0.0 for name in STEP_PHASES)
