"""Tree-overlay workloads: multi-hop dissemination through relay brokers.

The paper's evaluation workloads are effectively single-hop (a producer hub
fanning out to consumer nodes).  Real event infrastructures route through
interior brokers, which consume CPU for routing and transformation on every
message they relay — the flow-node cost ``F_{b,i}`` applies at relays too.
This workload family builds a complete ``branching``-ary broker tree:

* the root hosts the producers;
* interior nodes are pure relays (flow-node cost, no consumers);
* leaves host the consumer classes;
* each flow is disseminated to a contiguous block of leaves, so different
  flows load different subtrees and interior links/nodes see different
  aggregate traffic.

Exercises machinery the star workloads cannot: relay nodes in routes,
two-stage pruning of interior branches, and (with finite ``link_capacity``)
link pricing at depth.
"""

from __future__ import annotations

import math

from repro.model.costs import (
    GRYPHON_CONSUMER_COST,
    GRYPHON_FLOW_NODE_COST,
    GRYPHON_NODE_CAPACITY,
    CostModelBuilder,
)
from repro.model.entities import ConsumerClass, Flow, Link, Node, Route
from repro.model.problem import Problem, build_problem
from repro.model.topology import Overlay
from repro.workloads.base import UtilityFactory, resolve_shape

#: Rank ladder reused round-robin across a flow's classes.
DEFAULT_RANKS = (40.0, 10.0, 2.0)


def tree_workload(
    depth: int = 3,
    branching: int = 2,
    flows: int = 4,
    leaves_per_flow: int = 2,
    classes_per_leaf: int = 2,
    max_consumers: int = 500,
    leaf_capacity: float = GRYPHON_NODE_CAPACITY,
    relay_capacity: float = math.inf,
    link_capacity: float = math.inf,
    rate_min: float = 10.0,
    rate_max: float = 1000.0,
    shape: str | UtilityFactory = "log",
) -> Problem:
    """Build a ``branching``-ary tree of ``depth`` levels below the root.

    Flow ``i`` reaches leaves ``[i * leaves_per_flow, ...)`` modulo the
    leaf count, so with enough flows subtrees overlap and interior
    resources are genuinely shared.
    """
    if depth < 1 or branching < 1:
        raise ValueError("depth and branching must be at least 1")
    if flows < 1 or leaves_per_flow < 1 or classes_per_leaf < 1:
        raise ValueError("flows/leaves_per_flow/classes_per_leaf must be >= 1")
    make_utility = resolve_shape(shape)

    # Nodes: root, interior levels, leaves.
    nodes = [Node("root", capacity=math.inf)]
    links = []
    level_names: list[list[str]] = [["root"]]
    for level in range(1, depth + 1):
        is_leaf = level == depth
        names = []
        for parent_index, parent in enumerate(level_names[level - 1]):
            for child in range(branching):
                index = parent_index * branching + child
                name = (
                    f"leaf{index}" if is_leaf else f"relay{level}.{index}"
                )
                names.append(name)
                nodes.append(
                    Node(
                        name,
                        capacity=leaf_capacity if is_leaf else relay_capacity,
                    )
                )
                links.append(
                    Link(
                        f"{parent}->{name}",
                        tail=parent,
                        head=name,
                        capacity=link_capacity,
                    )
                )
        level_names.append(names)
    leaves = level_names[-1]

    overlay = Overlay(nodes, links)
    flow_objs = []
    classes = []
    routes: dict[str, Route] = {}
    costs = CostModelBuilder()

    for flow_index in range(flows):
        flow_id = f"f{flow_index}"
        flow_objs.append(
            Flow(flow_id, source="root", rate_min=rate_min, rate_max=rate_max)
        )
        targets = [
            leaves[(flow_index * leaves_per_flow + offset) % len(leaves)]
            for offset in range(min(leaves_per_flow, len(leaves)))
        ]
        route = overlay.dissemination_route("root", targets)
        routes[flow_id] = route
        for node_id in route.nodes[1:]:  # every traversed broker pays F
            costs.set_flow_node(node_id, flow_id, GRYPHON_FLOW_NODE_COST)
        for link_id in route.links:
            costs.set_link(link_id, flow_id, 1.0)
        for leaf in targets:
            for class_index in range(classes_per_leaf):
                class_id = f"c{flow_index}.{leaf}.{class_index}"
                rank = DEFAULT_RANKS[class_index % len(DEFAULT_RANKS)]
                classes.append(
                    ConsumerClass(
                        class_id=class_id,
                        flow_id=flow_id,
                        node=leaf,
                        max_consumers=max_consumers,
                        utility=make_utility(rank),
                    )
                )
                costs.set_consumer(leaf, class_id, GRYPHON_CONSUMER_COST)

    return build_problem(
        nodes=nodes,
        links=links,
        flows=flow_objs,
        classes=classes,
        routes=routes,
        costs=costs.build(),
    )
