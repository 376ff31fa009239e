"""Engine choice + reference/vectorized trajectory equivalence.

The acceptance bar for any alternative engine: on every supported
workload its utility trajectory must match the reference driver's at
*every* iteration within
:data:`repro.utility.tolerance.ENGINE_EQUIVALENCE_RTOL`, and the final
allocation must agree (populations exactly — they are integers).
"""

import dataclasses
import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consumer_allocation import allocate_consumers
from repro.core.engines import (
    DEFAULT_ENGINE,
    LRGPEngine,
    ReferenceEngine,
    available_engines,
    create_engine,
)
from repro.core.gamma import AdaptiveGamma, FixedGamma
from repro.core.lrgp import LRGP, LRGPConfig
from repro.core.two_stage import two_stage_optimize
from repro.model.entities import Node
from repro.model.problem import Problem, build_problem
from repro.utility.functions import PowerUtility
from repro.utility.tolerance import ENGINE_EQUIVALENCE_RTOL, close_enough
from repro.workloads.base import base_workload
from repro.workloads.bottleneck import link_bottleneck_workload
from repro.workloads.datacenter import leaf_spine_workload
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


class ExoticGamma(FixedGamma):
    """A schedule subclass: the vectorized engine must honour any type."""


class HardBackoffGamma(AdaptiveGamma):
    """The paper's heuristic with a harder backoff on fluctuation."""

    def __init__(self) -> None:
        super().__init__(backoff=0.25)

    def clone(self) -> "HardBackoffGamma":
        return HardBackoffGamma()


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

    def test_engine_argument_defaults_to_default_engine(self):
        problem = micro_workload()
        assert DEFAULT_ENGINE in available_engines()
        assert LRGP(problem).engine_name == DEFAULT_ENGINE
        assert LRGP(problem, engine="vectorized").engine_name == "vectorized"
        for entry_point in (LRGP, two_stage_optimize):
            default = inspect.signature(entry_point).parameters["engine"].default
            assert default == DEFAULT_ENGINE
        with pytest.raises(ValueError, match="unknown engine 'turbo'"):
            LRGP(problem, engine="turbo")


class TestVectorizedGating:
    def test_custom_admission_rejected(self):
        def admission(problem, node_id, rates):  # pragma: no cover - stub
            return allocate_consumers(problem, node_id, rates)

        config = LRGPConfig(admission=admission)
        with pytest.raises(ValueError, match="admission"):
            LRGP(micro_workload(), config, engine="vectorized")

    @pytest.mark.parametrize(
        ("name", "schedule"),
        [
            ("micro", ExoticGamma(0.05)),
            ("base", HardBackoffGamma()),
            ("link-bottleneck", HardBackoffGamma()),
        ],
        ids=["micro", "base", "link-bottleneck"],
    )
    def test_gamma_schedule_subclasses_match_reference(self, name, schedule):
        make = EQUIVALENCE_WORKLOADS[name]
        config = LRGPConfig(node_gamma=schedule)
        reference = LRGP(make(), config, engine="reference")
        vectorized = LRGP(make(), config, engine="vectorized")
        reference.run(150)
        vectorized.run(150)
        assert_trajectories_match(reference, vectorized)
        assert vectorized.allocation().populations == (
            reference.allocation().populations
        )
        assert vectorized.node_gammas() == reference.node_gammas()


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
        # S0 restarts from the config; every other node keeps its state.
        assert vectorized.node_prices() == reference.node_prices()
        assert vectorized.node_gammas() == reference.node_gammas()
        reference.run(80)
        vectorized.run(80)
        assert_trajectories_match(reference, vectorized)


#: A small leaf-spine fabric whose links bind: the ``leaf_capacity`` /
#: ``link_capacity`` recipe of the 256-flow binding fabric scaled to 8
#: flows, so 6 of its 10 link prices are positive after the warm start.
BINDING_FABRIC = leaf_spine_workload(
    spines=2, leaves=4, flows=8, leaf_capacity=4.5e6, link_capacity=150.0
)
REBIND_WARM_START = 30
#: Factors a rebind step applies to a current capacity: unchanged, inside
#: ``close_enough``'s relative tolerance (1e-9) but drifting out of it when
#: applied twice, just outside it, and real changes.
CAPACITY_FACTORS = (1.0, 1.0 + 6e-10, 1.0 + 2e-9, 0.8, 1.25)


def fabric_variant(
    dropped: set[str], node_capacity: dict[str, float], link_capacity: dict[str, float]
) -> Problem:
    """``BINDING_FABRIC`` without the ``dropped`` flows and with the given
    node and link capacities."""
    full = BINDING_FABRIC
    problem = build_problem(
        nodes=[
            Node(node.node_id, capacity=node_capacity.get(node.node_id, node.capacity))
            for node in full.nodes.values()
        ],
        links=[
            dataclasses.replace(
                link, capacity=link_capacity.get(link.link_id, link.capacity)
            )
            for link in full.links.values()
        ],
        flows=full.flows.values(),
        classes=full.classes.values(),
        routes=full.routes,
        costs=full.costs,
    )
    for flow_id in sorted(dropped):
        problem = problem.without_flow(flow_id)
    return problem


def engine_state(optimizer: LRGP) -> dict[str, dict[str, float]]:
    return {
        "rates": optimizer.allocation().rates,
        "populations": optimizer.allocation().populations,
        "node_prices": optimizer.node_prices(),
        "node_gammas": optimizer.node_gammas(),
        "link_prices": optimizer.link_prices(),
    }


def assert_states_match(reference: LRGP, vectorized: LRGP) -> None:
    expected, actual = engine_state(reference), engine_state(vectorized)
    assert actual["populations"] == expected["populations"]
    for name in ("rates", "node_prices", "node_gammas", "link_prices"):
        assert set(actual[name]) == set(expected[name]), name
        for key, value in expected[name].items():
            assert actual[name][key] == pytest.approx(
                value, rel=ENGINE_EQUIVALENCE_RTOL, abs=ENGINE_EQUIVALENCE_RTOL
            ), (name, key)


def assert_survivors_carried(
    before: dict[str, dict[str, float]],
    after: dict[str, dict[str, float]],
    new: Problem,
    born: dict[str, float],
) -> None:
    """Ids present on both sides of a rebind keep their state bit for bit;
    the rest start fresh.  A node or link price survives only while the new
    capacity is close enough to the one the price started under, ``born``
    (updated here for the prices that restart)."""
    for flow_id, rate in after["rates"].items():
        expected = before["rates"].get(flow_id, new.flows[flow_id].rate_min)
        assert rate == expected, flow_id
    for class_id, population in after["populations"].items():
        assert population == before["populations"].get(class_id, 0), class_id
    for kind, entities in (("node", new.nodes), ("link", new.links)):
        for entity_id, price in after[f"{kind}_prices"].items():
            capacity = entities[entity_id].capacity
            kept = entity_id in before[f"{kind}_prices"] and close_enough(
                born[entity_id], capacity
            )
            if kept:
                assert price == before[f"{kind}_prices"][entity_id], (kind, entity_id)
            else:
                assert price == 0.0, (kind, entity_id)
                born[entity_id] = capacity
            if kind == "node" and kept:
                assert after["node_gammas"][entity_id] == (
                    before["node_gammas"][entity_id]
                )


class TestRebindDifferential:
    """``set_problem`` sequences on a fabric whose links bind: both engines
    from one warm start, compared after every step."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_set_problem_sequences_match_reference(self, data):
        full = BINDING_FABRIC
        flows, nodes = sorted(full.flows), list(full.consumer_nodes())
        links = list(full.bottleneck_links())
        reference = LRGP(full, engine="reference")
        vectorized = LRGP(full, engine="vectorized")
        reference.run(REBIND_WARM_START)
        vectorized.run(REBIND_WARM_START)
        dropped: set[str] = set()
        node_capacity = {node: full.nodes[node].capacity for node in nodes}
        link_capacity = {link: full.links[link].capacity for link in links}
        born = {**node_capacity, **link_capacity}
        for _ in range(data.draw(st.integers(1, 5), label="rebinds")):
            action = data.draw(
                st.sampled_from(("drop", "restore", "swap", "node", "link")),
                label="action",
            )
            if action in ("restore", "swap") and dropped:
                # A swap keeps the vocabulary sizes but changes their ids.
                dropped.discard(data.draw(st.sampled_from(sorted(dropped)), label="restore"))
            if action in ("drop", "swap") and len(dropped) < len(flows) - 1:
                dropped.add(data.draw(st.sampled_from(flows), label="drop"))
            elif action == "node":
                node = data.draw(st.sampled_from(nodes), label="node")
                factor = data.draw(st.sampled_from(CAPACITY_FACTORS), label="factor")
                node_capacity[node] *= factor
            elif action == "link":
                link = data.draw(st.sampled_from(links), label="link")
                factor = data.draw(st.sampled_from(CAPACITY_FACTORS), label="factor")
                link_capacity[link] *= factor
            problem = fabric_variant(dropped, node_capacity, link_capacity)
            before = engine_state(vectorized)
            reference.set_problem(problem)
            vectorized.set_problem(problem)
            assert_survivors_carried(before, engine_state(vectorized), problem, born)
            assert_states_match(reference, vectorized)
            for _ in range(data.draw(st.integers(1, 6), label="steps")):
                reference.step()
                vectorized.step()
                assert_states_match(reference, vectorized)

    def test_capacity_drift_restarts_link_price_like_the_reference(self):
        """Two changes of a binding link's capacity, each inside
        ``close_enough``'s tolerance of the last but together outside it:
        the price restarts, because it is compared with the capacity it
        started under, as a reference controller's is."""
        reference = LRGP(BINDING_FABRIC, engine="reference")
        vectorized = LRGP(BINDING_FABRIC, engine="vectorized")
        reference.run(REBIND_WARM_START)
        vectorized.run(REBIND_WARM_START)
        prices = reference.link_prices()
        link = max(prices, key=prices.get)
        capacity = BINDING_FABRIC.links[link].capacity
        born = {
            **{node: BINDING_FABRIC.nodes[node].capacity for node in reference.node_prices()},
            **{lid: BINDING_FABRIC.links[lid].capacity for lid in prices},
        }
        for factor in (1.0 + 6e-10, 1.0 + 1.2e-9):
            problem = fabric_variant(set(), {}, {link: capacity * factor})
            before = engine_state(vectorized)
            reference.set_problem(problem)
            vectorized.set_problem(problem)
            assert_survivors_carried(before, engine_state(vectorized), problem, born)
            assert_states_match(reference, vectorized)
        assert prices[link] > 0.0
        assert vectorized.link_prices()[link] == 0.0
        reference.run(20)
        vectorized.run(20)
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
