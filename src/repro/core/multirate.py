"""Multirate LRGP — the paper's deferred future work (section 5).

The paper's model delivers every flow at one rate everywhere.  Multicast
flow-control literature ([15], [29] in the paper) allows *multirate*
delivery: downstream nodes thin the stream, so different receivers see
different rates.  Section 5 notes that doing this with node resource
constraints "would become harder" and defers it; this module supplies that
extension on top of the LRGP machinery.

Model extension
---------------
Each consumer-hosting node ``b`` may thin flow ``i`` to a local delivery
rate ``r_{b,i} <= r_i``.  Consumers at ``b`` draw utility from the local
rate, and the node constraint (eq. 5) is evaluated at the local rate:

    sum_i ( F_{b,i} r_{b,i} + sum_j G_{b,j} n_j r_{b,i} ) <= c_b

Links upstream of ``b`` still carry the source rate (thinning happens at
the delivery node).  Because every feasible single-rate allocation is a
feasible multirate allocation (set all local rates to the source rate),
the multirate optimum weakly dominates the single-rate optimum.

Algorithm
---------
One extra message per iteration closes the loop:

1. **Node demand**: each node computes, per flow, its locally optimal
   delivery rate — exactly the Lagrangian subproblem (eq. 7) with the
   node's *own* price: ``d_{b,i} = argmax_r sum_j n_j U_j(r) - p_b
   (F_{b,i} + sum_j G_{b,j} n_j) r`` — and sends it upstream.
2. **Source rate**: the source needs ``r_i`` only as a *cap*; nodes thin
   down to their demands.  With link prices ``PL_i`` the source maximizes
   ``sum_b W_b(min(r, d_b)) - r * PL_i`` where ``W_b`` is node ``b``'s
   surplus — a piecewise-concave function whose maximum lies at one of the
   demands (or a bound), so the source evaluates those candidates.
3. **Thinning + greedy populations**: node ``b`` serves flow ``i`` at
   ``min(r_i, d_{b,i})`` and runs the usual greedy consumer allocation and
   price update (eq. 12) at its local rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.consumer_allocation import allocate_consumers
from repro.core.gamma import AdaptiveGamma, GammaSchedule
from repro.core.prices import LinkPriceController, NodePriceController
from repro.model.allocation import Allocation
from repro.model.entities import ClassId, FlowId, LinkId, NodeId
from repro.model.problem import Problem
from repro.utility.calculus import solve_rate, weighted_value


@dataclass(frozen=True)
class MultirateConfig:
    """Knobs for the multirate driver (mirrors :class:`LRGPConfig`)."""

    node_gamma: GammaSchedule = field(default_factory=AdaptiveGamma)
    link_gamma: float = 1e-4


@dataclass
class MultirateAllocation:
    """Source rates, per-node delivery rates, and populations."""

    source_rates: dict[FlowId, float]
    local_rates: dict[tuple[NodeId, FlowId], float]
    populations: dict[ClassId, int]

    def to_single_rate(self) -> Allocation:
        """Project onto the single-rate model (source rates only) — used to
        compare against plain LRGP allocations."""
        return Allocation(
            rates=dict(self.source_rates), populations=dict(self.populations)
        )


def multirate_total_utility(
    problem: Problem, allocation: MultirateAllocation
) -> float:
    """Objective under local delivery rates:
    ``sum_j n_j U_j(r_{node(j), flow(j)})``."""
    utility = 0.0
    for class_id, cls in problem.classes.items():
        population = allocation.populations.get(class_id, 0)
        if population > 0:
            local_rate = allocation.local_rates.get(
                (cls.node, cls.flow_id), allocation.source_rates.get(cls.flow_id, 0.0)
            )
            utility += population * cls.utility.value(local_rate)
    return utility


def node_demand(
    problem: Problem,
    node_id: NodeId,
    flow_id: FlowId,
    populations: dict[ClassId, int],
    node_price: float,
) -> float:
    """The node's locally optimal delivery rate for a flow: eq. 7 solved
    with the node's own price (step 1 of the multirate algorithm)."""
    flow = problem.flows[flow_id]
    class_ids = problem.classes_of_flow_at_node(flow_id, node_id)
    terms = [
        (float(populations.get(class_id, 0)), problem.classes[class_id].utility)
        for class_id in class_ids
    ]
    coefficient = problem.costs.flow_node(node_id, flow_id)
    for class_id in class_ids:
        coefficient += problem.costs.consumer(node_id, class_id) * populations.get(
            class_id, 0
        )
    return solve_rate(terms, node_price * coefficient, flow.rate_min, flow.rate_max)


def node_surplus(
    problem: Problem,
    node_id: NodeId,
    flow_id: FlowId,
    populations: dict[ClassId, int],
    node_price: float,
    rate: float,
) -> float:
    """``W_b(rate)``: the node's priced surplus from receiving the flow at
    ``rate`` — utility of its admitted consumers minus the resource the
    delivery burns, valued at the node price."""
    class_ids = problem.classes_of_flow_at_node(flow_id, node_id)
    terms = [
        (float(populations.get(class_id, 0)), problem.classes[class_id].utility)
        for class_id in class_ids
    ]
    coefficient = problem.costs.flow_node(node_id, flow_id)
    for class_id in class_ids:
        coefficient += problem.costs.consumer(node_id, class_id) * populations.get(
            class_id, 0
        )
    return weighted_value(terms, rate) - node_price * coefficient * rate


def source_cap(
    problem: Problem,
    flow_id: FlowId,
    demands: dict[NodeId, float],
    populations: dict[ClassId, int],
    node_prices: dict[NodeId, float],
    link_price: float,
) -> float:
    """Step 2: the source rate cap maximizing total priced surplus
    ``Σ_b W_b(min(r, d_b)) − r · PL_i``.

    The objective is piecewise concave with breakpoints at the demands, so
    the maximum lies at a demand or a rate bound; all candidates are
    evaluated.
    """
    flow = problem.flows[flow_id]
    if not demands:
        return flow.rate_min if link_price > 0.0 else flow.rate_max
    candidates = sorted({flow.rate_min, flow.rate_max, *demands.values()})
    best_rate = flow.rate_min
    best_value = float("-inf")
    for rate in candidates:
        value = sum(
            node_surplus(
                problem,
                node_id,
                flow_id,
                populations,
                node_prices.get(node_id, 0.0),
                min(rate, demand),
            )
            for node_id, demand in demands.items()
        ) - rate * link_price
        if value > best_value:
            best_value = value
            best_rate = rate
    return best_rate


def multirate_node_usage(
    problem: Problem, allocation: MultirateAllocation, node_id: NodeId
) -> float:
    """Eq. 5's LHS evaluated at the node's local delivery rates."""
    usage = 0.0
    for flow_id in problem.flows_at_node(node_id):
        rate = allocation.local_rates.get(
            (node_id, flow_id), allocation.source_rates.get(flow_id, 0.0)
        )
        usage += problem.costs.flow_node(node_id, flow_id) * rate
        for class_id in problem.classes_of_flow_at_node(flow_id, node_id):
            usage += (
                problem.costs.consumer(node_id, class_id)
                * allocation.populations.get(class_id, 0)
                * rate
            )
    return usage


class MultirateLRGP:
    """LRGP with per-node flow thinning."""

    def __init__(self, problem: Problem, config: MultirateConfig | None = None) -> None:
        self._problem = problem
        self._config = config or MultirateConfig()
        self._populations: dict[ClassId, int] = {c: 0 for c in problem.classes}
        self._source_rates: dict[FlowId, float] = {
            flow_id: flow.rate_min for flow_id, flow in problem.flows.items()
        }
        self._local_rates: dict[tuple[NodeId, FlowId], float] = {}
        self._node_controllers = {
            node_id: NodePriceController(
                capacity=problem.nodes[node_id].capacity,
                gamma=self._config.node_gamma.clone(),
            )
            for node_id in problem.consumer_nodes()
        }
        self._link_controllers: dict[LinkId, LinkPriceController] = {
            link_id: LinkPriceController(
                capacity=problem.links[link_id].capacity, gamma=self._config.link_gamma
            )
            for link_id in problem.bottleneck_links()
        }
        self.utilities: list[float] = []

    # -- accessors ----------------------------------------------------------

    @property
    def problem(self) -> Problem:
        return self._problem

    def allocation(self) -> MultirateAllocation:
        return MultirateAllocation(
            source_rates=dict(self._source_rates),
            local_rates=dict(self._local_rates),
            populations=dict(self._populations),
        )

    def node_prices(self) -> dict[NodeId, float]:
        return {n: c.price for n, c in self._node_controllers.items()}

    # -- the loop ---------------------------------------------------------------

    def step(self) -> float:
        """One multirate iteration; returns the resulting utility."""
        problem = self._problem
        node_prices = self.node_prices()

        # 1. Node demands per (consumer node, flow reaching it).
        demands: dict[FlowId, dict[NodeId, float]] = {}
        for flow_id in problem.flows:
            demands[flow_id] = {
                node_id: node_demand(
                    problem, node_id, flow_id, self._populations,
                    node_prices[node_id],
                )
                for node_id in problem.route(flow_id).nodes
                if node_id in self._node_controllers
                and problem.classes_of_flow_at_node(flow_id, node_id)
            }

        # 2. Source caps.
        for flow_id in problem.flows:
            link_price = sum(
                problem.costs.link(link_id, flow_id) * controller.price
                for link_id, controller in self._link_controllers.items()
                if flow_id in problem.flows_on_link(link_id)
            )
            self._source_rates[flow_id] = source_cap(
                problem, flow_id, demands[flow_id], self._populations,
                node_prices, link_price,
            )

        # 3. Thinned local rates + greedy populations + node prices.
        for node_id in problem.consumer_nodes():
            local = {}
            for flow_id in problem.flows_at_node(node_id):
                demand = demands.get(flow_id, {}).get(node_id)
                cap = self._source_rates[flow_id]
                local[flow_id] = cap if demand is None else min(cap, demand)
                self._local_rates[(node_id, flow_id)] = local[flow_id]
            result = allocate_consumers(problem, node_id, local)
            self._populations.update(result.populations)
            self._node_controllers[node_id].update(
                benefit_cost=result.best_unsatisfied_ratio, used=result.used
            )

        # 4. Link prices on the source rates.
        for link_id, controller in self._link_controllers.items():
            usage = sum(
                problem.costs.link(link_id, flow_id) * self._source_rates[flow_id]
                for flow_id in problem.flows_on_link(link_id)
            )
            controller.update(usage)

        utility = multirate_total_utility(problem, self.allocation())
        self.utilities.append(utility)
        return utility

    def run(self, iterations: int) -> list[float]:
        if iterations < 0:
            raise ValueError(f"iterations must be non-negative, got {iterations}")
        return [self.step() for _ in range(iterations)]
