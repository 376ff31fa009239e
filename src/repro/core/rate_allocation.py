"""Lagrangian rate allocation (Algorithm 1, equations 6-9).

Given fixed populations and resource prices, the source node of each flow
independently maximizes the flow's term of the Lagrangian dual (eq. 7):

    max_{r_i}  sum_{j in C_i} n_j U_j(r_i)  -  r_i (PL_i + PB_i)

where the aggregate path prices are

    PL_i = sum_{l in L_i} L_{l,i} p_l                               (eq. 8)
    PB_i = sum_{b in B_i} (F_{b,i} + sum_j G_{b,j} n_j) p_b         (eq. 9)

The maximizer is unique because the objective is strictly concave; it is
computed in closed form where available, otherwise by bracketed root finding
(:func:`repro.utility.solve_rate`), then clamped to ``[r_min, r_max]``.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.model.entities import ClassId, FlowId, LinkId, NodeId
from repro.model.problem import Problem
from repro.utility.calculus import solve_rate
from repro.utility.tolerance import is_zero


def link_path_price(
    problem: Problem,
    flow_id: FlowId,
    link_prices: Mapping[LinkId, float],
) -> float:
    """``PL_i`` (eq. 8): total link price along the flow's route, weighted by
    link cost."""
    route = problem.route(flow_id)
    return sum(
        problem.costs.link(link_id, flow_id) * link_prices.get(link_id, 0.0)
        for link_id in route.links
    )


def node_path_price(
    problem: Problem,
    flow_id: FlowId,
    populations: Mapping[ClassId, int],
    node_prices: Mapping[NodeId, float],
) -> float:
    """``PB_i`` (eq. 9): total node price along the route.

    Each node contributes its price weighted by the flow's marginal resource
    footprint there: the flow-node cost plus the consumer cost of every
    *admitted* consumer of the flow's classes at that node.
    """
    route = problem.route(flow_id)
    total = 0.0
    for node_id in route.nodes:
        price = node_prices.get(node_id, 0.0)
        if is_zero(price):
            continue
        coefficient = problem.costs.flow_node(node_id, flow_id)
        for class_id in problem.classes_of_flow_at_node(flow_id, node_id):
            coefficient += problem.costs.consumer(node_id, class_id) * populations.get(
                class_id, 0
            )
        total += coefficient * price
    return total


def aggregate_flow_price(
    problem: Problem,
    flow_id: FlowId,
    populations: Mapping[ClassId, int],
    node_prices: Mapping[NodeId, float],
    link_prices: Mapping[LinkId, float],
) -> float:
    """``PL_i + PB_i``: the per-unit-rate price the flow faces."""
    return link_path_price(problem, flow_id, link_prices) + node_path_price(
        problem, flow_id, populations, node_prices
    )


def allocate_rate(
    problem: Problem,
    flow_id: FlowId,
    populations: Mapping[ClassId, int],
    price: float,
) -> float:
    """Algorithm 1, step 2: the rate maximizing eq. 7 for one flow.

    ``price`` is the aggregate ``PL_i + PB_i`` (compute it with
    :func:`aggregate_flow_price`).  Classes with zero admitted population do
    not contribute utility; if no consumer is admitted anywhere on the flow
    and the price is positive, the optimal rate is the lower bound.
    """
    flow = problem.flows[flow_id]
    terms = [
        (float(populations.get(class_id, 0)), problem.classes[class_id].utility)
        for class_id in problem.classes_of_flow(flow_id)
    ]
    return solve_rate(terms, price, flow.rate_min, flow.rate_max)


def allocate_all_rates(
    problem: Problem,
    populations: Mapping[ClassId, int],
    node_prices: Mapping[NodeId, float],
    link_prices: Mapping[LinkId, float],
) -> dict[FlowId, float]:
    """Run Algorithm 1 for every flow source.

    In the distributed system each source computes only its own rate; this
    helper is the synchronous composition used by the reference driver and
    by tests.
    """
    return {
        flow_id: allocate_rate(
            problem,
            flow_id,
            populations,
            aggregate_flow_price(
                problem, flow_id, populations, node_prices, link_prices
            ),
        )
        for flow_id in problem.flows
    }
