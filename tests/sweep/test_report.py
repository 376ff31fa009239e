"""Sweep reporting: table, plan, CSV/JSON exports, bench payload."""

import csv
import io

import pytest

from repro.obs.bench import (
    collect_metrics,
    compare_snapshots,
    metric_direction,
    render_comparison,
)
from repro.sweep import (
    ResultCache,
    SweepSpec,
    bench_payload,
    plan_sweep,
    render_sweep_plan,
    render_sweep_report,
    run_sweep,
    sweep_to_csv,
    sweep_to_json,
)

SPEC = SweepSpec(
    workloads=("micro",),
    methods=("lrgp", "annealing"),
    iterations=(20,),
)


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("cache"))
    run_sweep(SPEC, cache=cache)
    return run_sweep(SPEC, cache=cache)  # all-hits pass


class TestRenderReport:
    def test_one_line_per_cell_plus_summary(self, result):
        text = render_sweep_report(result)
        assert "micro/lrgp/i20" in text
        assert "micro/annealing/i20" in text
        assert "2 cached, 0 executed" in text

    def test_marks_cache_vs_run(self, result):
        assert "cache" in render_sweep_report(result)


class TestRenderPlan:
    def test_plan_lists_status_and_totals(self, result, tmp_path):
        empty = ResultCache(tmp_path / "empty")
        text = render_sweep_plan(plan_sweep(SPEC, empty))
        assert text.count("miss") == 2
        assert "2 to execute" in text

    def test_forced_plan_announces_forced(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(SPEC, cache=cache)
        text = render_sweep_plan(plan_sweep(SPEC, cache, force=True))
        assert "(2 forced)" in text


class TestCsv:
    def test_parses_with_one_row_per_cell(self, result):
        rows = list(csv.DictReader(io.StringIO(sweep_to_csv(result))))
        assert len(rows) == 2
        assert rows[0]["label"] == "micro/lrgp/i20"
        assert float(rows[0]["utility"]) > 0
        assert rows[0]["cached"] == "True"

    def test_fault_plan_without_checkpoints_prints_none(self, tmp_path):
        spec = SweepSpec(
            workloads=("micro",),
            fault_plans=({"horizon": 40.0, "checkpoint_interval": None},),
            iterations=(10,),
        )
        result = run_sweep(spec, cache=ResultCache(tmp_path / "cache"))
        (row,) = csv.DictReader(io.StringIO(sweep_to_csv(result)))
        assert row["fault_plan"] == "checkpoint_interval=none,horizon=40"


class TestJson:
    def test_export_carries_farm_bookkeeping_and_cells(self, result):
        payload = sweep_to_json(result)
        assert payload["cells_total"] == 2
        assert payload["hits"] == 2
        assert payload["executed"] == 0
        assert len(payload["cells"]) == 2
        assert payload["cells"][0]["config"]["workload"] == "micro"

    def test_export_is_canonical_json_serializable(self, result):
        from repro.canonical import canonical_json

        text = canonical_json(sweep_to_json(result))
        assert "NaN" not in text


class TestBenchPayload:
    def test_metrics_flatten_with_useful_directions(self, result):
        payload = bench_payload(result)
        flat = collect_metrics(payload, "sweep")
        utility_keys = [key for key in flat if key.endswith(".utility")]
        assert utility_keys
        assert all(
            metric_direction(key) == "higher" for key in utility_keys
        )
        assert metric_direction("sweep.farm.hit_rate") == "higher"
        assert metric_direction("sweep.farm.wall_time_seconds") == "lower"

    def test_farm_section_counts(self, result):
        farm = bench_payload(result)["farm"]
        assert farm["cells_total"] == 2
        assert farm["hit_rate"] == 1.0


class TestComparison:
    def test_utility_drop_is_a_regression(self, result):
        old = bench_payload(result)
        new = bench_payload(result)
        label = sorted(new["cells"])[0]
        new = {
            "farm": dict(new["farm"]),
            "cells": {
                name: dict(metrics) for name, metrics in new["cells"].items()
            },
        }
        new["cells"][label]["utility"] *= 0.5
        comparison = compare_snapshots(old, new)
        assert [delta.name for delta in comparison.regressions] == [
            f"cells.{label}.utility"
        ]
        assert "1 regression(s)" in render_comparison(comparison)

    def test_identical_payloads_are_stable(self, result):
        payload = bench_payload(result)
        comparison = compare_snapshots(payload, payload)
        assert comparison.regressions == ()
        assert "0 regression(s)" in render_comparison(comparison)
