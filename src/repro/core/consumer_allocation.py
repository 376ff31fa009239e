"""Greedy consumer allocation (section 3.2) and node benefit/cost ratios.

Each consumer-hosting node, given the current flow rates, fills its capacity
with consumers in decreasing order of benefit/cost ratio

    BC_j = U_j(r_i) / (G_{b,j} r_i)          (eq. 10, i = flowMap(j))

The ratio is constant in ``n_j`` (both numerator and denominator are linear
in the population), so the greedy "+1 at a time" procedure of the paper is
equivalent to filling classes to saturation in sorted order — which is what
we implement.

The allocation also produces ``BC(b,t)`` (eq. 11): the best ratio among
classes that remain below ``n^max``, which the node-price controller tracks
(eq. 12) to price the marginal value of node capacity.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

from repro.model.entities import ClassId, FlowId, NodeId
from repro.model.problem import Problem

#: Slack added before flooring a fractional admission count, to avoid
#: dropping a consumer to floating-point noise.
_FLOOR_SLACK = 1e-9


def benefit_cost_ratio(
    problem: Problem, node_id: NodeId, class_id: ClassId, rate: float
) -> float:
    """``BC_j`` (eq. 10) for a class at its hosting node.

    Degenerate cases: when the per-consumer cost ``G_{b,j} * r`` is zero,
    admission is free — the ratio is ``+inf`` when the consumer contributes
    positive utility and ``0`` otherwise.
    """
    cls = problem.classes[class_id]
    benefit = cls.utility.value(rate)
    unit_cost = problem.costs.consumer(node_id, class_id) * rate
    if unit_cost <= 0.0:
        return math.inf if benefit > 0.0 else 0.0
    return benefit / unit_cost


@dataclass(frozen=True)
class NodeAllocation:
    """Result of one greedy consumer allocation at one node."""

    node_id: NodeId
    populations: dict[ClassId, int]
    #: ``used_b(t)``: flow-node cost plus admitted-consumer cost (eq. 5 LHS).
    used: float
    #: ``BC(b,t)`` (eq. 11); 0 when every class reached ``n^max``.
    best_unsatisfied_ratio: float
    #: The per-class ``BC_j`` values used for the greedy ordering.
    ratios: dict[ClassId, float]


def allocate_consumers(
    problem: Problem,
    node_id: NodeId,
    rates: Mapping[FlowId, float],
) -> NodeAllocation:
    """Algorithm 2, step 2: greedily admit consumers at ``node_id``.

    The budget available for consumers is the node capacity minus the
    consumer-independent flow cost ``sum_i F_{b,i} r_i``.  If the flow cost
    alone exceeds capacity, no consumer is admitted and the reported usage
    exceeds capacity, which drives the node price into the violation branch
    of eq. 12.
    """
    capacity = problem.nodes[node_id].capacity
    flow_cost = sum(
        problem.costs.flow_node(node_id, flow_id) * rates.get(flow_id, 0.0)
        for flow_id in problem.flows_at_node(node_id)
    )

    class_ids = problem.classes_at_node(node_id)
    ratios = {
        class_id: benefit_cost_ratio(
            problem,
            node_id,
            class_id,
            rates.get(problem.flow_of_class(class_id), 0.0),
        )
        for class_id in class_ids
    }
    # Decreasing ratio; ties broken by class id for determinism.
    order = sorted(class_ids, key=lambda c: (-ratios[c], c))

    populations: dict[ClassId, int] = {}
    budget = capacity - flow_cost
    consumer_cost = 0.0
    for class_id in order:
        cls = problem.classes[class_id]
        rate = rates.get(cls.flow_id, 0.0)
        unit_cost = problem.costs.consumer(node_id, class_id) * rate
        if unit_cost <= 0.0:
            # Free admission: take everyone (they consume nothing).
            populations[class_id] = cls.max_consumers
            continue
        if budget <= 0.0:
            populations[class_id] = 0
            continue
        affordable = int(budget / unit_cost + _FLOOR_SLACK)
        admitted = min(cls.max_consumers, affordable)
        populations[class_id] = admitted
        cost = admitted * unit_cost
        budget -= cost
        consumer_cost += cost

    unsatisfied = [
        ratios[class_id]
        for class_id in class_ids
        if populations[class_id] < problem.classes[class_id].max_consumers
        and math.isfinite(ratios[class_id])
    ]
    best_ratio = max(unsatisfied, default=0.0)

    return NodeAllocation(
        node_id=node_id,
        populations=populations,
        used=flow_cost + consumer_cost,
        best_unsatisfied_ratio=best_ratio,
        ratios=ratios,
    )


def allocate_all_consumers(
    problem: Problem, rates: Mapping[FlowId, float]
) -> dict[NodeId, NodeAllocation]:
    """Run the greedy allocation at every consumer-hosting node.

    Each node's decision is purely local (this is the point of the
    greedy-populations half of LRGP); this helper is the synchronous
    composition used by the reference driver.
    """
    return {
        node_id: allocate_consumers(problem, node_id, rates)
        for node_id in problem.consumer_nodes()
    }
