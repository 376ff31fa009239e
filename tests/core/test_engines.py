"""Engine registry + reference/vectorized trajectory equivalence.

The acceptance bar for any alternative engine: on every supported
workload its utility trajectory must match the reference driver's at
*every* iteration within
:data:`repro.utility.tolerance.ENGINE_EQUIVALENCE_RTOL`, and the final
allocation must agree (populations exactly — they are integers).
"""

import math

import pytest

from repro.core.consumer_allocation import allocate_consumers
from repro.core.engines import (
    _ENGINES,
    LRGPEngine,
    ReferenceEngine,
    available_engines,
    create_engine,
    register_engine,
)
from repro.core.gamma import AdaptiveGamma, FixedGamma
from repro.core.lrgp import LRGP, LRGPConfig
from repro.utility.functions import PowerUtility
from repro.utility.tolerance import ENGINE_EQUIVALENCE_RTOL
from repro.workloads.base import base_workload
from repro.workloads.bottleneck import link_bottleneck_workload
from repro.workloads.micro import micro_workload
from repro.workloads.scaling import scale_flows
from tests.core.test_compiled import replace_class_utility

#: The equivalence matrix: every workload family the paper evaluates.
EQUIVALENCE_WORKLOADS = {
    "micro": micro_workload,
    "base": base_workload,
    "link-bottleneck": lambda: link_bottleneck_workload(200000.0),
    "flows-x4": lambda: scale_flows(4),
}


def assert_trajectories_match(reference: LRGP, candidate: LRGP) -> None:
    assert len(reference.utilities) == len(candidate.utilities)
    for i, (expected, actual) in enumerate(
        zip(reference.utilities, candidate.utilities)
    ):
        assert actual == pytest.approx(
            expected, rel=ENGINE_EQUIVALENCE_RTOL, abs=ENGINE_EQUIVALENCE_RTOL
        ), f"utility diverged at iteration {i + 1}"


class TestRegistry:
    def test_builtin_engines_listed(self):
        assert available_engines() == ("reference", "vectorized")

    def test_unknown_engine_lists_available(self):
        with pytest.raises(ValueError, match="reference"):
            create_engine("turbo", micro_workload(), LRGPConfig())

    def test_create_reference(self):
        engine = create_engine("reference", micro_workload(), LRGPConfig())
        assert isinstance(engine, ReferenceEngine)
        assert engine.name == "reference"

    def test_register_engine_round_trip(self):
        class Dummy(ReferenceEngine):
            name = "dummy"

        register_engine("dummy", Dummy)
        try:
            assert "dummy" in available_engines()
            optimizer = LRGP(micro_workload(), engine="dummy")
            assert optimizer.engine_name == "dummy"
        finally:
            del _ENGINES["dummy"]

    def test_config_engine_field_and_override(self):
        problem = micro_workload()
        assert LRGP(problem).engine_name == "reference"
        assert (
            LRGP(problem, LRGPConfig(engine="vectorized")).engine_name
            == "vectorized"
        )
        assert (
            LRGP(
                problem, LRGPConfig(engine="vectorized"), engine="reference"
            ).engine_name
            == "reference"
        )


class TestVectorizedGating:
    def test_custom_admission_rejected(self):
        def admission(problem, node_id, rates):  # pragma: no cover - stub
            return allocate_consumers(problem, node_id, rates)

        config = LRGPConfig(admission=admission)
        with pytest.raises(ValueError, match="admission"):
            LRGP(micro_workload(), config, engine="vectorized")

    def test_unknown_gamma_schedule_rejected(self):
        class ExoticGamma(FixedGamma):
            pass

        config = LRGPConfig(node_gamma=ExoticGamma(0.05))
        with pytest.raises(ValueError, match="schedules only"):
            LRGP(micro_workload(), config, engine="vectorized")


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_WORKLOADS))
    def test_adaptive_gamma_250_iterations(self, name):
        make = EQUIVALENCE_WORKLOADS[name]
        reference = LRGP(make(), engine="reference")
        vectorized = LRGP(make(), engine="vectorized")
        reference.run(250)
        vectorized.run(250)
        assert_trajectories_match(reference, vectorized)
        assert vectorized.allocation().populations == (
            reference.allocation().populations
        )
        for flow_id, rate in reference.allocation().rates.items():
            assert vectorized.allocation().rates[flow_id] == pytest.approx(
                rate, rel=ENGINE_EQUIVALENCE_RTOL, abs=1e-9
            )

    def test_fixed_gamma(self):
        config = LRGPConfig.fixed(0.05)
        reference = LRGP(micro_workload(), config, engine="reference")
        vectorized = LRGP(micro_workload(), config, engine="vectorized")
        reference.run(120)
        vectorized.run(120)
        assert_trajectories_match(reference, vectorized)

    def test_snapshots_match(self):
        config = LRGPConfig(record_snapshots=True)
        reference = LRGP(micro_workload(), config, engine="reference")
        vectorized = LRGP(micro_workload(), config, engine="vectorized")
        reference.run(60)
        vectorized.run(60)
        for ref, vec in zip(reference.records, vectorized.records):
            assert vec.populations == ref.populations
            assert vec.node_gammas == pytest.approx(ref.node_gammas)
            for mapping in ("rates", "node_prices", "link_prices", "slack"):
                expected = getattr(ref, mapping)
                actual = getattr(vec, mapping)
                assert set(actual) == set(expected)
                for key, value in expected.items():
                    if math.isinf(value):
                        assert math.isinf(actual[key])
                    else:
                        assert actual[key] == pytest.approx(
                            value, rel=ENGINE_EQUIVALENCE_RTOL, abs=1e-9
                        )

    def test_mixed_shape_flow_runs_the_fallback_column(self):
        # Flow "f0" mixes a power class with log ones, so it has no closed
        # form: most steps land in solve_rate's bisection in both engines.
        mixed = replace_class_utility(
            base_workload(), "c00", PowerUtility(scale=20.0, exponent=0.5)
        )
        reference = LRGP(mixed, engine="reference")
        vectorized = LRGP(mixed, engine="vectorized")
        reference.run(150)
        vectorized.run(150)
        assert_trajectories_match(reference, vectorized)
        assert vectorized.allocation().populations == (
            reference.allocation().populations
        )

    def test_reconfiguration_preserves_equivalence(self):
        """Figure 3 dynamics: drop a flow mid-run, keep matching."""
        reference = LRGP(base_workload(), engine="reference")
        vectorized = LRGP(base_workload(), engine="vectorized")
        reference.run(100)
        vectorized.run(100)
        reference.remove_flow("f5")
        vectorized.remove_flow("f5")
        reference.run(100)
        vectorized.run(100)
        assert_trajectories_match(reference, vectorized)

    def test_capacity_change_preserves_link_state(self):
        problem = link_bottleneck_workload(200000.0)
        reference = LRGP(problem, engine="reference")
        vectorized = LRGP(problem, engine="vectorized")
        reference.run(80)
        vectorized.run(80)
        tightened = problem.with_node_capacity("S0", 80000.0)
        reference.set_problem(tightened)
        vectorized.set_problem(tightened)
        reference.run(80)
        vectorized.run(80)
        assert_trajectories_match(reference, vectorized)


class TestEngineProtocol:
    def test_reference_engine_is_lrgp_engine(self):
        engine = create_engine("reference", micro_workload(), LRGPConfig())
        assert isinstance(engine, LRGPEngine)

    def test_vectorized_engine_is_lrgp_engine(self):
        engine = create_engine("vectorized", micro_workload(), LRGPConfig())
        assert isinstance(engine, LRGPEngine)
        assert engine.name == "vectorized"

    def test_adaptive_gamma_prototype_not_shared(self):
        """Each node adapts independently in both engines."""
        config = LRGPConfig(node_gamma=AdaptiveGamma())
        optimizer = LRGP(base_workload(), config, engine="vectorized")
        optimizer.run(120)
        gammas = set(optimizer.node_gammas().values())
        assert len(gammas) > 1
