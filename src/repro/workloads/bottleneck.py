"""Link-bottleneck workloads.

The paper's evaluation deliberately has no link bottlenecks (section 4.1,
footnote 3: link pricing for rate control is prior work, Low & Lapsley).
Our implementation carries the full link-price machinery (eq. 13), so this
module provides workloads that actually exercise it: all flows share one
capacitated uplink through a relay, making the gradient-projection link
price the binding control.

Topology::

    P --[uplink: capacity c_l]--> R --> S0, S1, ... (consumer nodes)

Every flow traverses the uplink; node capacities are generous so the
uplink is the sole bottleneck (or set ``node_capacity`` low to get mixed
node+link contention).
"""

from __future__ import annotations

import math

from repro.model.costs import (
    GRYPHON_CONSUMER_COST,
    GRYPHON_FLOW_NODE_COST,
    CostModelBuilder,
)
from repro.model.entities import ConsumerClass, Flow, Link, Node, Route
from repro.model.problem import Problem, build_problem
from repro.workloads.base import UtilityFactory, resolve_shape

#: Rank/population pairs for the bottleneck classes (one class per flow per
#: consumer node): heavier ranks on earlier flows so the price allocation
#: has a clear utility-weighted pecking order.
DEFAULT_CLASS_RANKS = (50.0, 20.0, 5.0)
DEFAULT_MAX_CONSUMERS = 200


def link_bottleneck_workload(
    link_capacity: float,
    flows: int = 3,
    consumer_nodes: int = 2,
    ranks: tuple[float, ...] = DEFAULT_CLASS_RANKS,
    max_consumers: int = DEFAULT_MAX_CONSUMERS,
    node_capacity: float = 5.0e6,
    rate_min: float = 1.0,
    rate_max: float = 1000.0,
    shape: str | UtilityFactory = "log",
) -> Problem:
    """A shared-uplink workload where eq. 4 is the binding constraint.

    ``link_capacity`` bounds ``sum_i r_i`` (all link costs are 1).  With the
    default ``5e6`` node capacity the nodes never bind, isolating link
    pricing; lower it to study joint node+link contention.
    """
    if flows < 1 or consumer_nodes < 1:
        raise ValueError("need at least one flow and one consumer node")
    if link_capacity <= 0.0:
        raise ValueError("link_capacity must be positive")
    make_utility = resolve_shape(shape)

    node_names = [f"S{index}" for index in range(consumer_nodes)]
    nodes = [Node("P", capacity=math.inf), Node("R", capacity=math.inf)] + [
        Node(name, capacity=node_capacity) for name in node_names
    ]
    links = [Link("uplink", tail="P", head="R", capacity=link_capacity)] + [
        Link(f"R->{name}", tail="R", head=name) for name in node_names
    ]

    flow_objs = []
    classes = []
    routes: dict[str, Route] = {}
    costs = CostModelBuilder()
    for flow_index in range(flows):
        flow_id = f"f{flow_index}"
        flow_objs.append(
            Flow(flow_id, source="P", rate_min=rate_min, rate_max=rate_max)
        )
        routes[flow_id] = Route(
            nodes=("P", "R", *node_names),
            links=("uplink", *(f"R->{name}" for name in node_names)),
        )
        costs.set_link("uplink", flow_id, 1.0)
        rank = ranks[flow_index % len(ranks)]
        for name in node_names:
            costs.set_link(f"R->{name}", flow_id, 1.0)
            costs.set_flow_node(name, flow_id, GRYPHON_FLOW_NODE_COST)
            class_id = f"c{flow_index}@{name}"
            classes.append(
                ConsumerClass(
                    class_id=class_id,
                    flow_id=flow_id,
                    node=name,
                    max_consumers=max_consumers,
                    utility=make_utility(rank),
                )
            )
            costs.set_consumer(name, class_id, GRYPHON_CONSUMER_COST)

    return build_problem(
        nodes=nodes,
        links=links,
        flows=flow_objs,
        classes=classes,
        routes=routes,
        costs=costs.build(),
    )
