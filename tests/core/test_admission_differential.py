"""Differential test: vectorized greedy admission vs the reference.

``VectorizedEngine._admit`` runs Algorithm 2 for every consumer node at
once (a presorted greedy fill with an early exit); the reference is the
per-node :func:`~repro.core.consumer_allocation.allocate_consumers`.  At
the same rates, on generated problems and small leaf-spine fabrics, the
populations must be exactly equal, and ``used`` and BC(b,t) (eq. 11) must
agree within :data:`~repro.utility.tolerance.ENGINE_EQUIVALENCE_RTOL` (the
flow cost is a reassociated sum).

The edge cases of the fill get explicit coverage: ratio ties, zero-cost
classes (free and useful, i.e. ``inf`` ratio, and free and useless), a
node whose flow cost alone exceeds its capacity (negative budget), and
nodes whose budget covers every class.  Each runs on a *dense* problem,
where every flow reaches every consumer node, and on a *sparse* one,
where flows reach a subset, so the node/flow incidence triples the
budgets are scattered from have both a full and a partly empty pattern.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiled import VectorizedEngine
from repro.core.consumer_allocation import allocate_consumers
from repro.core.lrgp import LRGPConfig
from repro.model.costs import CostModel, CostModelBuilder
from repro.model.entities import ConsumerClass, Flow, Link, Node, Route
from repro.model.problem import Problem, build_problem
from repro.utility.base import UtilityFunction
from repro.utility.functions import LogUtility
from repro.utility.tolerance import ENGINE_EQUIVALENCE_RTOL
from repro.workloads.datacenter import leaf_spine_workload
from repro.workloads.generator import GeneratorConfig, generate_workload

SHAPES = ("log", "pow25", "pow50", "pow75")
INCIDENCES = ("dense", "sparse")


def assert_admission_matches(
    problem: Problem, rates: dict[str, float]
) -> tuple[dict[str, int], list[float]]:
    """Run both admissions at ``rates`` and compare node by node.

    Returns the vectorized populations by class id and BC(b,t) by node.
    """
    engine = VectorizedEngine(problem, LRGPConfig())
    compiled = engine.compiled
    engine._rates = compiled.rates_vector(rates)
    populations, used, best = engine._admit(compiled.class_values(engine._rates))
    admitted = compiled.populations_dict(populations)
    for b, node_id in enumerate(compiled.node_ids):
        expected = allocate_consumers(problem, node_id, rates)
        for class_id, count in expected.populations.items():
            assert admitted[class_id] == count, (node_id, class_id)
        assert used[b] == pytest.approx(
            expected.used, rel=ENGINE_EQUIVALENCE_RTOL, abs=ENGINE_EQUIVALENCE_RTOL
        ), node_id
        assert best[b] == pytest.approx(
            expected.best_unsatisfied_ratio,
            rel=ENGINE_EQUIVALENCE_RTOL,
            abs=ENGINE_EQUIVALENCE_RTOL,
        ), node_id
    return admitted, best


def with_free_classes(problem: Problem, free: set[str]) -> Problem:
    """``problem`` with the consumer cost of the ``free`` classes zeroed."""
    costs = problem.costs
    return problem.with_costs(
        CostModel(
            link_cost=dict(costs.link_cost),
            flow_node_cost=dict(costs.flow_node_cost),
            consumer_cost={
                (node_id, class_id): 0.0 if class_id in free else cost
                for (node_id, class_id), cost in costs.consumer_cost.items()
            },
        )
    )


@st.composite
def generated_problems(draw):
    """Generated problems spanning slack, tight and overloaded nodes."""
    rank_low = draw(st.floats(min_value=1.0, max_value=100.0))
    tied = draw(st.booleans())
    config = GeneratorConfig(
        flows=draw(st.integers(min_value=1, max_value=8)),
        consumer_nodes=draw(st.integers(min_value=1, max_value=4)),
        nodes_per_flow=draw(st.integers(min_value=1, max_value=3)),
        classes_per_flow_node=draw(st.integers(min_value=1, max_value=3)),
        rank_low=rank_low,
        rank_high=rank_low if tied else draw(st.floats(min_value=rank_low, max_value=200.0)),
        max_consumers_low=1,
        max_consumers_high=draw(st.integers(min_value=1, max_value=2000)),
        rate_min=draw(st.sampled_from([0.0, 10.0])),
        node_capacity=draw(st.sampled_from([1.0e3, 5.0e4, 9.0e5, 1.0e9])),
        flow_node_cost=draw(st.sampled_from([3.0, 50.0, 5.0e3])),
        consumer_cost_low=19.0,
        consumer_cost_high=19.0 if tied else draw(st.floats(min_value=19.0, max_value=60.0)),
        shape=draw(st.sampled_from(SHAPES)),
    )
    problem = generate_workload(config, seed=draw(st.integers(0, 2**16)))
    free = draw(st.sets(st.sampled_from(sorted(problem.classes)), max_size=3))
    return with_free_classes(problem, free) if free else problem


def rate_strategy(low: float, high: float) -> st.SearchStrategy[float]:
    """A bound itself, or an interior rate of at least 1.

    A rate of exactly 0 makes a flow's classes free; a denormal positive
    rate would overflow ``budget / cost`` in both implementations alike.
    """
    return st.one_of(
        st.sampled_from([low, high]),
        st.floats(min_value=max(low, 1.0), max_value=high),
    )


def draw_rates(data, problem: Problem, equal: bool) -> dict[str, float]:
    """In-bounds rates; ``equal`` gives every flow one shared rate."""
    if equal:
        low = max(flow.rate_min for flow in problem.flows.values())
        high = min(flow.rate_max for flow in problem.flows.values())
        shared = data.draw(rate_strategy(low, high), label="rate")
        return dict.fromkeys(problem.flows, shared)
    return {
        fid: data.draw(rate_strategy(flow.rate_min, flow.rate_max), label=f"rate:{fid}")
        for fid, flow in problem.flows.items()
    }


@settings(max_examples=120, deadline=None)
@given(
    problem=generated_problems(),
    equal=st.booleans(),
    data=st.data(),
)
def test_generated_problems_match_reference(problem, equal, data):
    assert_admission_matches(problem, draw_rates(data, problem, equal))


@settings(max_examples=40, deadline=None)
@given(
    spines=st.integers(min_value=1, max_value=4),
    leaves=st.integers(min_value=2, max_value=8),
    flows=st.integers(min_value=1, max_value=24),
    leaves_per_flow=st.integers(min_value=1, max_value=3),
    classes_per_leaf=st.integers(min_value=1, max_value=3),
    max_consumers=st.integers(min_value=1, max_value=800),
    leaf_capacity=st.sampled_from([2.0e4, 2.0e5, 9.0e5]),
    data=st.data(),
)
def test_leaf_spine_fabrics_match_reference(
    spines, leaves, flows, leaves_per_flow, classes_per_leaf, max_consumers,
    leaf_capacity, data,
):
    problem = leaf_spine_workload(
        spines=spines,
        leaves=leaves,
        flows=flows,
        leaves_per_flow=leaves_per_flow,
        classes_per_leaf=classes_per_leaf,
        max_consumers=max_consumers,
        leaf_capacity=leaf_capacity,
    )
    equal = data.draw(st.booleans(), label="equal")
    assert_admission_matches(problem, draw_rates(data, problem, equal))


# -- explicit edge cases -------------------------------------------------------


def tight_problem(incidence: str, **overrides) -> Problem:
    """Four flows over two nodes, sized so both nodes are contended.

    A ``"dense"`` problem routes every flow through both nodes; a
    ``"sparse"`` one routes each flow through one of them.
    """
    config = dict(
        flows=4,
        consumer_nodes=2,
        nodes_per_flow=2 if incidence == "dense" else 1,
        classes_per_flow_node=3,
        rank_low=10.0,
        rank_high=90.0,
        max_consumers_low=500,
        max_consumers_high=2000,
        node_capacity=2.0e5,
    )
    config.update(overrides)
    return generate_workload(GeneratorConfig(**config), seed=7)


@pytest.mark.parametrize("incidence", INCIDENCES)
class TestEdgeCases:
    def test_ratio_ties_break_by_class_id(self, incidence):
        # One rank, one consumer cost and one shared rate: every class at
        # a node has the same ratio, so the fill order is the class order.
        problem = tight_problem(
            incidence,
            rank_low=50.0, rank_high=50.0, max_consumers_low=10, max_consumers_high=30
        )
        rates = dict.fromkeys(problem.flows, 100.0)
        populations, _ = assert_admission_matches(problem, rates)
        for node_id in problem.consumer_nodes():
            members = sorted(problem.classes_at_node(node_id))
            unsatisfied = [
                populations[c] < problem.classes[c].max_consumers for c in members
            ]
            # Saturated prefix in class-id order, then the unsatisfied rest.
            assert unsatisfied == sorted(unsatisfied)
            assert any(unsatisfied) and not all(unsatisfied)

    def test_zero_cost_classes_admit_everyone(self, incidence):
        problem = tight_problem(incidence)
        free = set(sorted(problem.classes)[::3])
        problem = with_free_classes(problem, free)
        rates = {fid: 250.0 for fid in problem.flows}
        populations, _ = assert_admission_matches(problem, rates)
        for class_id in free:
            assert populations[class_id] == problem.classes[class_id].max_consumers

    def test_free_and_useful_classes_stay_out_of_best_ratio(self, incidence):
        # G = 0 with positive utility is an inf ratio in the reference; it
        # saturates and never counts toward BC(b,t), which stays finite.
        problem = with_free_classes(
            tight_problem(incidence), set(tight_problem(incidence).classes)
        )
        rates = {fid: 100.0 for fid in problem.flows}
        _, best = assert_admission_matches(problem, rates)
        assert all(math.isfinite(ratio) for ratio in best)

    def test_zero_rate_makes_classes_free_and_useless(self, incidence):
        problem = tight_problem(incidence, rate_min=0.0)
        rates = {fid: 0.0 if i % 2 else 300.0 for i, fid in enumerate(problem.flows)}
        assert_admission_matches(problem, rates)

    def test_negative_budget_admits_no_chargeable_class(self, incidence):
        # The flow cost alone exceeds capacity: the budget starts negative.
        problem = tight_problem(incidence, node_capacity=1.0e3, flow_node_cost=50.0)
        rates = {fid: 900.0 for fid in problem.flows}
        populations, _ = assert_admission_matches(problem, rates)
        assert sum(populations.values()) == 0

    def test_covered_nodes_saturate_every_class(self, incidence):
        problem = tight_problem(incidence, node_capacity=1.0e12)
        rates = {fid: 1000.0 for fid in problem.flows}
        populations, best = assert_admission_matches(problem, rates)
        assert all(
            populations[cid] == cls.max_consumers
            for cid, cls in problem.classes.items()
        )
        assert best == [0.0] * len(problem.consumer_nodes())


class InfiniteValue(UtilityFunction):
    """A utility whose value overflows: its ratio is never finite."""

    def value(self, rate: float) -> float:
        return math.inf

    def derivative(self, rate: float) -> float:
        return 1.0


def one_node_problem(
    capacity: float,
    classes: list[tuple[str, UtilityFunction, float, int]],
    incidence: str = "dense",
) -> Problem:
    """One flow at a fixed rate of 1 into one node with flow cost 1.

    ``classes`` holds ``(class id, utility, consumer cost, n^max)``, so a
    class's unit cost is its consumer cost and the budget is
    ``capacity - 1``.  A ``"sparse"`` problem adds a second flow ``g``
    that bypasses the node (to a node hosting no class), so the node's
    incidence row holds one of two flows and its budget is unchanged.
    """
    costs = CostModelBuilder().set_flow_node("S", "f", 1.0).set_link("P->S", "f", 1.0)
    for class_id, _, consumer_cost, _ in classes:
        costs.set_consumer("S", class_id, consumer_cost)
    nodes = [Node("P", capacity=math.inf), Node("S", capacity=capacity)]
    links = [Link("P->S", tail="P", head="S")]
    flows = [Flow("f", source="P", rate_min=1.0, rate_max=1.0)]
    routes = {"f": Route(nodes=("P", "S"), links=("P->S",))}
    if incidence == "sparse":
        nodes.append(Node("T", capacity=capacity))
        links.append(Link("P->T", tail="P", head="T"))
        flows.append(Flow("g", source="P", rate_min=1.0, rate_max=1.0))
        routes["g"] = Route(nodes=("P", "T"), links=("P->T",))
        costs.set_flow_node("T", "g", 1.0).set_link("P->T", "g", 1.0)
    return build_problem(
        nodes=nodes,
        links=links,
        flows=flows,
        classes=[
            ConsumerClass(class_id, "f", "S", max_consumers=n_max, utility=utility)
            for class_id, utility, _, n_max in classes
        ],
        routes=routes,
        costs=costs.build(),
    )


@pytest.mark.parametrize("incidence", INCIDENCES)
@pytest.mark.parametrize("leftover", [1.0 - 5e-10, 1.0, 1.0005])
def test_budget_at_the_cheapest_cost_still_admits(incidence, leftover):
    # "a" saturates (5 x 10) and leaves ``leftover`` for the cheap "b"
    # (unit cost 1): the flooring slack admits one more consumer even a
    # hair below the cost, so the early exit must not fire there.
    problem = one_node_problem(
        capacity=1.0 + 50.0 + leftover,
        classes=[
            ("a", LogUtility(scale=1000.0), 10.0, 5),
            ("b", LogUtility(scale=1.0), 1.0, 100),
        ],
        incidence=incidence,
    )
    populations, _ = assert_admission_matches(problem, {"f": 1.0, "g": 1.0})
    assert populations == {"a": 5, "b": 1}


@pytest.mark.parametrize("incidence", INCIDENCES)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("capacity", [0.5, 30.0])
def test_non_finite_ratios_never_set_best_ratio(incidence, capacity):
    # "inf" sorts first and stays unsatisfied; BC(b,t) must skip it both
    # when the fill visits it (positive budget) and when the budget is
    # negative from the start.  "tiny" overflows its ratio the same way.
    classes = [
        ("inf", InfiniteValue(), 10.0, 5),
        ("mid", LogUtility(scale=5.0), 1.0, 100),
        ("low", LogUtility(scale=2.0), 1.0, 100),
    ]
    if capacity < 1.0:
        classes.append(("tiny", LogUtility(scale=1.0), 1e-320, 3))
    problem = one_node_problem(capacity=capacity, classes=classes, incidence=incidence)
    _, best = assert_admission_matches(problem, {"f": 1.0, "g": 1.0})
    assert best == [pytest.approx(5.0 * math.log(2.0))]
