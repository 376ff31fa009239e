"""Seeded random workload generator.

The paper constructs hand-made workloads (there were no benchmarks for
utility-based event infrastructures).  This generator produces structurally
similar random instances — a producer hub, a pool of consumer nodes, flows
routed to random node subsets, rank-ordered consumer classes with
populations growing as rank falls — for robustness testing, property tests
and experiments beyond the paper's grid.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.model.costs import (
    GRYPHON_CONSUMER_COST,
    GRYPHON_FLOW_NODE_COST,
    GRYPHON_NODE_CAPACITY,
    CostModelBuilder,
)
from repro.model.entities import ConsumerClass, Flow, Link, Node, Route
from repro.model.problem import Problem, build_problem
from repro.workloads.base import UtilityFactory, resolve_shape


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape of the random instances."""

    flows: int = 6
    consumer_nodes: int = 3
    #: Consumer nodes each flow is routed to (clamped to the node count).
    nodes_per_flow: int = 2
    #: Consumer classes attached per (flow, reached node).
    classes_per_flow_node: int = 2
    rank_low: float = 1.0
    rank_high: float = 100.0
    max_consumers_low: int = 100
    max_consumers_high: int = 2000
    rate_min: float = 10.0
    rate_max: float = 1000.0
    node_capacity: float = GRYPHON_NODE_CAPACITY
    flow_node_cost: float = GRYPHON_FLOW_NODE_COST
    #: Consumer cost is drawn uniformly from this range (heterogeneous
    #: per-consumer processing, section 1.1).
    consumer_cost_low: float = GRYPHON_CONSUMER_COST
    consumer_cost_high: float = GRYPHON_CONSUMER_COST
    shape: str | UtilityFactory = "log"
    #: When finite, links get this capacity so link pricing engages.
    link_capacity: float = math.inf

    def __post_init__(self) -> None:
        if self.flows < 1 or self.consumer_nodes < 1:
            raise ValueError("need at least one flow and one consumer node")
        if self.nodes_per_flow < 1:
            raise ValueError("nodes_per_flow must be at least 1")
        if self.classes_per_flow_node < 1:
            raise ValueError("classes_per_flow_node must be at least 1")
        if not 0 < self.rank_low <= self.rank_high:
            raise ValueError("ranks must satisfy 0 < low <= high")
        if not 0 < self.max_consumers_low <= self.max_consumers_high:
            raise ValueError("max_consumers must satisfy 0 < low <= high")
        if not 0 <= self.rate_min <= self.rate_max:
            raise ValueError("rates must satisfy 0 <= min <= max")
        if self.consumer_cost_low < 0 or self.consumer_cost_high < self.consumer_cost_low:
            raise ValueError("consumer cost range invalid")


def generate_workload(config: GeneratorConfig | None = None, seed: int = 0) -> Problem:
    """Draw one random problem instance; same seed, same instance."""
    config = config or GeneratorConfig()
    rng = random.Random(seed)
    make_utility = resolve_shape(config.shape)

    node_names = [f"S{index}" for index in range(config.consumer_nodes)]
    nodes = [Node("P", capacity=math.inf)] + [
        Node(name, capacity=config.node_capacity) for name in node_names
    ]
    links = [
        Link(f"P->{name}", tail="P", head=name, capacity=config.link_capacity)
        for name in node_names
    ]

    flows = []
    classes = []
    routes: dict[str, Route] = {}
    costs = CostModelBuilder()
    class_counter = 0

    for flow_index in range(config.flows):
        flow_id = f"f{flow_index}"
        flows.append(
            Flow(
                flow_id,
                source="P",
                rate_min=config.rate_min,
                rate_max=config.rate_max,
            )
        )
        count = min(config.nodes_per_flow, config.consumer_nodes)
        reached = rng.sample(node_names, count)
        route_nodes = ["P"] + reached
        route_links = [f"P->{name}" for name in reached]
        routes[flow_id] = Route(nodes=tuple(route_nodes), links=tuple(route_links))
        for name in reached:
            costs.set_flow_node(name, flow_id, config.flow_node_cost)
            costs.set_link(f"P->{name}", flow_id, 1.0)

        # Rank-ordered classes: population grows as rank falls, mirroring
        # "less important users are more numerous" (section 4.1).
        drawn_ranks = sorted(
            (
                rng.uniform(config.rank_low, config.rank_high)
                for _ in range(config.classes_per_flow_node)
            ),
            reverse=True,
        )
        populations = sorted(
            rng.randint(config.max_consumers_low, config.max_consumers_high)
            for _ in range(config.classes_per_flow_node)
        )
        for name in reached:
            for rank, max_consumers in zip(drawn_ranks, populations):
                class_id = f"c{class_counter:03d}"
                class_counter += 1
                classes.append(
                    ConsumerClass(
                        class_id=class_id,
                        flow_id=flow_id,
                        node=name,
                        max_consumers=max_consumers,
                        utility=make_utility(rank),
                    )
                )
                costs.set_consumer(
                    name,
                    class_id,
                    rng.uniform(config.consumer_cost_low, config.consumer_cost_high),
                )

    return build_problem(
        nodes=nodes,
        links=links,
        flows=flows,
        classes=classes,
        routes=routes,
        costs=costs.build(),
    )
