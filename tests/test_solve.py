"""Tests for the unified ``repro.solve`` entry point."""

import json

import pytest

import repro
from repro.core.lrgp import LRGPConfig
from repro.solve import (
    ENGINE_METHODS,
    VECTORIZED_MIN_FLOWS,
    SolveResult,
    available_methods,
    solve,
)
from repro.utility.tolerance import ENGINE_EQUIVALENCE_RTOL
from repro.workloads.base import base_workload
from repro.workloads.bottleneck import link_bottleneck_workload
from repro.workloads.micro import micro_workload

ALL_METHODS = (
    "annealing",
    "coordinate",
    "hill_climb",
    "lrgp",
    "multirate",
    "random_search",
    "two_stage",
)

#: Small effort budgets so the whole matrix stays fast.
BUDGETS = {
    "lrgp": 60,
    "multirate": 60,
    "two_stage": 40,
    "annealing": 2_000,
    "hill_climb": 1_000,
    "random_search": 100,
    "coordinate": 6,
}


@pytest.fixture(scope="module")
def problem():
    return micro_workload()


class TestMethodMatrix:
    def test_available_methods(self):
        assert available_methods() == ALL_METHODS

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_every_method_returns_a_solve_result(self, problem, method):
        result = solve(problem, method, iterations=BUDGETS[method])
        assert isinstance(result, SolveResult)
        assert result.method == method
        assert result.utility > 0.0
        assert result.utilities
        assert result.iterations > 0
        assert result.wall_time_seconds >= 0.0
        if method in ENGINE_METHODS:
            assert result.engine == "reference"
        else:
            assert result.engine is None

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_every_result_is_json_ready(self, problem, method):
        result = solve(problem, method, iterations=BUDGETS[method])
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["method"] == method
        assert payload["utility"] == pytest.approx(result.utility)
        assert "populations" in payload["allocation"]


class TestLRGPFamily:
    def test_vectorized_engine_matches_reference(self):
        # base_workload sits above the dispatch crossover, so the
        # vectorized request is honored as-is.
        problem = base_workload()
        reference = solve(problem, "lrgp", iterations=80)
        vectorized = solve(problem, "lrgp", engine="vectorized", iterations=80)
        assert vectorized.engine == "vectorized"
        assert "engine_fallback" not in vectorized.metadata
        assert len(vectorized.utilities) == len(reference.utilities)
        for expected, actual in zip(reference.utilities, vectorized.utilities):
            assert actual == pytest.approx(
                expected, rel=ENGINE_EQUIVALENCE_RTOL, abs=1e-9
            )
        assert vectorized.converged_at == reference.converged_at

    def test_lrgp_metadata_carries_prices(self, problem):
        result = solve(problem, "lrgp", iterations=30)
        assert "S" in result.metadata["node_prices"]
        # Only bottleneck (finite-capacity) links maintain prices.
        bottleneck = solve(link_bottleneck_workload(100.0), iterations=30)
        assert "uplink" in bottleneck.metadata["link_prices"]

    def test_snapshot_config_exposes_records(self, problem):
        config = LRGPConfig(record_snapshots=True)
        result = solve(problem, "lrgp", iterations=20, config=config)
        records = result.metadata["records"]
        assert len(records) == 20
        assert records[0].rates is not None
        # Records are not JSON-representable and must not leak into JSON.
        assert "records" not in result.to_dict()["metadata"]

    def test_two_stage_trajectories(self, problem):
        result = solve(problem, "two_stage", iterations=40)
        assert result.iterations == len(result.utilities)
        assert result.metadata["stage2_utility"] == pytest.approx(
            result.utility
        )

    def test_two_stage_vectorized_engine(self):
        problem = base_workload()
        reference = solve(problem, "two_stage", iterations=40)
        vectorized = solve(
            problem, "two_stage", engine="vectorized", iterations=40
        )
        assert vectorized.engine == "vectorized"
        assert vectorized.utility == pytest.approx(
            reference.utility, rel=ENGINE_EQUIVALENCE_RTOL, abs=1e-9
        )

    def test_multirate_weakly_dominates_single_rate(self, problem):
        single = solve(problem, "lrgp", iterations=100)
        multi = solve(problem, "multirate", iterations=100)
        assert multi.utility >= single.utility - 1e-6
        assert multi.allocation.to_single_rate().rates


class TestEngineDispatch:
    """Small-problem fallback: ``engine="vectorized"`` below the measured
    crossover (BENCH_engines.json, "dispatch" section) runs the reference
    engine and says so in ``metadata["engine_fallback"]``."""

    def test_micro_workload_is_below_crossover(self, problem):
        assert len(problem.flows) < VECTORIZED_MIN_FLOWS

    @pytest.mark.parametrize("method", sorted(ENGINE_METHODS))
    def test_small_problem_falls_back_to_reference(self, problem, method):
        result = solve(problem, method, engine="vectorized", iterations=30)
        assert result.engine == "reference"
        fallback = result.metadata["engine_fallback"]
        assert fallback["requested"] == "vectorized"
        assert "crossover" in fallback["reason"]

    def test_fallback_trajectory_is_exactly_reference(self, problem):
        requested = solve(problem, "lrgp", engine="vectorized", iterations=60)
        reference = solve(problem, "lrgp", engine="reference", iterations=60)
        # Bit-identical, not approximately equal: the fallback *is* the
        # reference engine, not a vectorized run with looser tolerances.
        assert requested.utilities == reference.utilities
        assert "engine_fallback" not in reference.metadata

    def test_large_problem_honors_vectorized_request(self):
        problem = base_workload()
        assert len(problem.flows) >= VECTORIZED_MIN_FLOWS
        result = solve(problem, "lrgp", engine="vectorized", iterations=30)
        assert result.engine == "vectorized"
        assert "engine_fallback" not in result.metadata

    def test_explicit_reference_request_never_annotated(self, problem):
        result = solve(problem, "lrgp", engine="reference", iterations=10)
        assert result.engine == "reference"
        assert "engine_fallback" not in result.metadata

    def test_direct_driver_construction_bypasses_dispatch(self, problem):
        # Benchmark harnesses construct LRGP directly and must get the
        # engine they name, even below the crossover.
        optimizer = repro.LRGP(problem, engine="vectorized")
        assert optimizer.engine_name == "vectorized"

    def test_fallback_metadata_is_json_ready(self, problem):
        result = solve(problem, "lrgp", engine="vectorized", iterations=10)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["metadata"]["engine_fallback"]["requested"] == "vectorized"


class TestValidation:
    def test_unknown_method(self, problem):
        with pytest.raises(ValueError, match="unknown method"):
            solve(problem, "genetic")

    @pytest.mark.parametrize(
        "method", [m for m in ALL_METHODS if m not in ENGINE_METHODS]
    )
    def test_engine_rejected_for_non_lrgp_methods(self, problem, method):
        with pytest.raises(ValueError, match="engine"):
            solve(problem, method, engine="vectorized")

    def test_negative_iterations(self, problem):
        with pytest.raises(ValueError, match="non-negative"):
            solve(problem, iterations=-1)

    def test_unknown_option_rejected(self, problem):
        with pytest.raises(TypeError, match="unexpected options"):
            solve(problem, "lrgp", iterations=5, temperature=10.0)

    def test_unknown_engine_rejected(self, problem):
        with pytest.raises(ValueError, match="unknown engine"):
            solve(problem, "lrgp", engine="turbo", iterations=5)


class TestLegacyAliases:
    def test_legacy_attribute_names_are_gone(self, problem):
        result = solve(problem, "annealing", iterations=500)
        for old in ("best_utility", "final_utility", "best_allocation"):
            with pytest.raises(AttributeError, match=old):
                getattr(result, old)
        assert result.utilities == (result.utility,)
        assert result.allocation.populations

    def test_metadata_keys_are_not_attributes(self, problem):
        result = solve(problem, "annealing", iterations=500)
        with pytest.raises(AttributeError, match="accepted"):
            result.accepted
        assert result.metadata["accepted"] >= 0

    def test_unknown_attribute_raises(self, problem):
        result = solve(problem, "lrgp", iterations=5)
        with pytest.raises(AttributeError):
            result.no_such_attribute


class TestTopLevelExport:
    def test_solve_is_the_package_front_door(self, problem):
        result = repro.solve(problem, iterations=30)
        assert isinstance(result, repro.SolveResult)
        assert "lrgp" in repro.available_methods()
