"""The farm: execution, cache-first semantics, bit-equal re-runs."""

import pytest

from repro.sweep import (
    ResultCache,
    RunConfig,
    SweepSpec,
    execute_run,
    plan_sweep,
    run_sweep,
)

SPEC = SweepSpec(
    workloads=("micro",),
    methods=("lrgp", "annealing"),
    iterations=(20,),
)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestExecuteRun:
    def test_solve_cell_payload_shape(self):
        payload = execute_run(RunConfig(workload="micro", iterations=15))
        assert payload["kind"] == "solve"
        assert payload["label"] == "micro/lrgp/i15"
        assert payload["metrics"]["utility"] > 0
        assert payload["metrics"]["iterations"] == 15
        assert payload["result"]["method"] == "lrgp"
        assert "wall_time_seconds" not in payload["result"]
        assert payload["timing"]["wall_time_seconds"] > 0

    def test_deterministic_solve_is_bit_equal_across_executions(self):
        config = RunConfig(workload="micro", iterations=15)
        first = execute_run(config)
        second = execute_run(config)
        assert first["result"] == second["result"]
        assert first["metrics"] == second["metrics"]

    def test_gamma_policy_reaches_the_solver(self):
        adaptive = execute_run(RunConfig(workload="micro", iterations=15))
        fixed = execute_run(
            RunConfig(workload="micro", iterations=15, gamma="fixed:0.5")
        )
        assert adaptive["result"] != fixed["result"]

    def test_seed_reaches_stochastic_methods(self):
        base = RunConfig(workload="micro", method="annealing", iterations=25)
        reseeded = RunConfig(
            workload="micro", method="annealing", iterations=25, seed=7
        )
        assert execute_run(base) != execute_run(reseeded)

    def test_fault_cell_reports_recovery_metrics(self):
        payload = execute_run(
            RunConfig(
                workload="micro",
                iterations=10,
                fault_plan=(
                    ("horizon", 100.0),
                    ("crash_rate", 0.05),
                    ("warmup", 20.0),
                ),
            )
        )
        assert payload["kind"] == "fault"
        assert 0.5 < payload["metrics"]["retention"] <= 1.001
        assert payload["metrics"]["recoveries"] >= 1
        assert payload["result"]["counters"]["messages_sent"] > 0


    def test_fault_cell_without_checkpoints_reports_it(self):
        payload = execute_run(
            RunConfig(
                workload="micro",
                iterations=10,
                fault_plan=(("horizon", 40.0), ("checkpoint_interval", None)),
            )
        )
        assert payload["kind"] == "fault"
        assert payload["result"]["plan"]["checkpoint_interval"] is None


class TestRunSweep:
    def test_first_pass_executes_everything(self, cache):
        result = run_sweep(SPEC, cache=cache)
        assert result.executed == len(result.cells) == 2
        assert result.hits == 0

    def test_second_pass_executes_nothing(self, cache):
        run_sweep(SPEC, cache=cache)
        second = run_sweep(SPEC, cache=cache)
        assert second.executed == 0
        assert second.hits == len(second.cells) == 2

    def test_cached_and_fresh_results_are_bit_equal(self, cache):
        first = run_sweep(SPEC, cache=cache)
        second = run_sweep(SPEC, cache=cache)
        for fresh, cached in zip(first.cells, second.cells):
            assert cached.cached
            assert cached.payload["result"] == fresh.payload["result"]
            assert cached.payload["metrics"] == fresh.payload["metrics"]

    def test_force_re_executes_cached_cells(self, cache):
        run_sweep(SPEC, cache=cache)
        forced = run_sweep(SPEC, cache=cache, force=True)
        assert forced.executed == len(forced.cells)
        assert forced.hits == 0

    def test_cells_preserve_grid_order(self, cache):
        expected = [config.label() for config in SPEC.expand()]
        result = run_sweep(SPEC, cache=cache)
        assert [cell.label for cell in result.cells] == expected
        # a partially-warm cache must not reorder either
        extra = SweepSpec(
            workloads=("micro",),
            methods=("lrgp", "annealing", "hill_climb"),
            iterations=(20,),
        )
        warm = run_sweep(extra, cache=cache)
        assert [cell.label for cell in warm.cells] == [
            config.label() for config in extra.expand()
        ]
        assert warm.hits == 2 and warm.executed == 1

    def test_corrupt_entry_re_executes_and_repairs(self, cache):
        result = run_sweep(SPEC, cache=cache)
        victim = result.cells[0]
        cache.path_for(victim.key).write_text("{broken")
        repaired = run_sweep(SPEC, cache=cache)
        assert repaired.executed == 1
        assert repaired.hits == 1
        assert repaired.corrupt_entries == 1
        # the repaired entry is trusted again on the next pass
        final = run_sweep(SPEC, cache=cache)
        assert final.executed == 0

    def test_parallel_jobs_match_inline_results(self, cache, tmp_path):
        inline = run_sweep(SPEC, cache=cache)
        parallel = run_sweep(
            SPEC, jobs=2, cache=ResultCache(tmp_path / "cache2")
        )
        assert [cell.label for cell in parallel.cells] == [
            cell.label for cell in inline.cells
        ]
        for a, b in zip(inline.cells, parallel.cells):
            assert a.payload["result"] == b.payload["result"]

    def test_accepts_explicit_cell_list(self, cache):
        cells = SPEC.expand()[:1]
        result = run_sweep(cells, cache=cache)
        assert len(result.cells) == 1

    def test_rejects_bad_jobs(self, cache):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(SPEC, jobs=0, cache=cache)


class TestPlanSweep:
    def test_plan_reports_hit_miss(self, cache):
        plan = plan_sweep(SPEC, cache)
        assert [status for _, _, status in plan] == ["miss", "miss"]
        run_sweep(SPEC, cache=cache)
        plan = plan_sweep(SPEC, cache)
        assert [status for _, _, status in plan] == ["hit", "hit"]

    def test_plan_marks_forced_cells(self, cache):
        run_sweep(SPEC, cache=cache)
        plan = plan_sweep(SPEC, cache, force=True)
        assert [status for _, _, status in plan] == ["forced", "forced"]

    def test_plan_executes_nothing(self, cache):
        plan_sweep(SPEC, cache)
        assert len(cache) == 0
