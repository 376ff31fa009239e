"""The paper's base test workload (Table 1, section 4.1).

Six flows, three consumer nodes (S0, S1, S2), twenty consumer classes in
pairs: the two classes of a pair share flow, ``n^max`` and rank and differ
only in the node they attach to.  Class utility is ``rank_j * f(r_i)`` with
a shape ``f`` shared across all classes (``log(1+r)`` by default; section
4.5 varies it).  The resource model is uniform — ``F = 3``, ``G = 19``,
``c_b = 9e5`` (values measured on Gryphon) — and all flows have
``r in [10, 1000]``.  Links are never bottlenecks, so the overlay is a
star with infinite-capacity links from a producer hub to every consumer
node.

The builder generalizes the table with replication factors used by the
scalability study (section 4.3):

* ``node_replicas`` — every consumer node is cloned, with identical classes;
  flows are routed to all clones (same information, more consumers);
* ``flow_replicas`` — the entire workload is cloned, with fresh flows *and*
  fresh consumer nodes (new information flows serving new consumers).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from repro.model.costs import (
    GRYPHON_CONSUMER_COST,
    GRYPHON_FLOW_NODE_COST,
    GRYPHON_NODE_CAPACITY,
    CostModelBuilder,
)
from repro.model.entities import ConsumerClass, Flow, Link, Node, Route
from repro.model.problem import Problem, build_problem
from repro.utility.base import UtilityFunction
from repro.utility.functions import UTILITY_SHAPES

#: Table 1 rows: (flow index, attach nodes, n^max, rank).  Each row yields
#: one class per attach node (the paper's identical class pairs).
TABLE1_CLASS_SPECS: tuple[tuple[int, tuple[str, str], int, float], ...] = (
    (0, ("S0", "S2"), 400, 20.0),
    (0, ("S0", "S2"), 800, 5.0),
    (0, ("S0", "S2"), 2000, 1.0),
    (1, ("S0", "S1"), 1000, 15.0),
    (2, ("S1", "S2"), 1500, 10.0),
    (3, ("S0", "S2"), 400, 30.0),
    (3, ("S0", "S2"), 800, 3.0),
    (3, ("S0", "S2"), 2000, 2.0),
    (4, ("S0", "S1"), 1000, 40.0),
    (5, ("S1", "S2"), 1500, 100.0),
)

BASE_FLOW_COUNT = 6
BASE_NODE_NAMES = ("S0", "S1", "S2")
BASE_RATE_MIN = 10.0
BASE_RATE_MAX = 1000.0
#: Per-(link, flow) bandwidth coefficient.  Links have infinite capacity in
#: the paper's workloads, so this only matters for usage accounting.
BASE_LINK_COST = 1.0

UtilityFactory = Callable[[float], UtilityFunction]


@dataclass(frozen=True)
class WorkloadParams:
    """Knobs shared by the base workload and its scalings."""

    shape: str | UtilityFactory = "log"
    flow_replicas: int = 1
    node_replicas: int = 1
    node_capacity: float = GRYPHON_NODE_CAPACITY
    flow_node_cost: float = GRYPHON_FLOW_NODE_COST
    consumer_cost: float = GRYPHON_CONSUMER_COST
    rate_min: float = BASE_RATE_MIN
    rate_max: float = BASE_RATE_MAX


def resolve_shape(shape: str | UtilityFactory) -> UtilityFactory:
    """The class-utility factory a builder's ``shape=`` names.

    A callable is used as is; a string must name an entry of
    :data:`~repro.utility.functions.UTILITY_SHAPES`, or ``ValueError``
    lists the known ones.
    """
    if callable(shape):
        return shape
    try:
        return UTILITY_SHAPES[shape]
    except KeyError:
        raise ValueError(
            f"unknown utility shape {shape!r}; "
            f"expected one of {sorted(UTILITY_SHAPES)}"
        ) from None


def build_workload(params: WorkloadParams) -> Problem:
    """Materialize a (possibly replicated) Table 1 workload."""
    if params.flow_replicas < 1 or params.node_replicas < 1:
        raise ValueError("replication factors must be at least 1")
    make_utility = resolve_shape(params.shape)

    hub = Node("P", capacity=math.inf)
    nodes: list[Node] = [hub]
    links: list[Link] = []
    flows: list[Flow] = []
    classes: list[ConsumerClass] = []
    routes: dict[str, Route] = {}
    costs = CostModelBuilder()

    def node_name(flow_rep: int, base_name: str, node_rep: int) -> str:
        suffix = ""
        if params.flow_replicas > 1:
            suffix += f".f{flow_rep}"
        if params.node_replicas > 1:
            suffix += f".n{node_rep}"
        return base_name + suffix

    # Consumer nodes and hub links.
    for flow_rep in range(params.flow_replicas):
        for node_rep in range(params.node_replicas):
            for base_name in BASE_NODE_NAMES:
                name = node_name(flow_rep, base_name, node_rep)
                nodes.append(Node(name, capacity=params.node_capacity))
                links.append(Link(f"P->{name}", tail="P", head=name))

    for flow_rep in range(params.flow_replicas):
        # Flows of this replica.
        flow_names = {
            index: (
                f"f{index}" if params.flow_replicas == 1 else f"f{index}.f{flow_rep}"
            )
            for index in range(BASE_FLOW_COUNT)
        }
        # Which base nodes each flow must reach (union over its class specs).
        reach: dict[int, list[str]] = {index: [] for index in range(BASE_FLOW_COUNT)}
        for flow_index, attach_nodes, _, _ in TABLE1_CLASS_SPECS:
            for base_name in attach_nodes:
                if base_name not in reach[flow_index]:
                    reach[flow_index].append(base_name)

        for flow_index in range(BASE_FLOW_COUNT):
            flow_id = flow_names[flow_index]
            flows.append(
                Flow(
                    flow_id,
                    source="P",
                    rate_min=params.rate_min,
                    rate_max=params.rate_max,
                )
            )
            route_nodes = ["P"]
            route_links = []
            for node_rep in range(params.node_replicas):
                for base_name in reach[flow_index]:
                    name = node_name(flow_rep, base_name, node_rep)
                    route_nodes.append(name)
                    route_links.append(f"P->{name}")
                    costs.set_flow_node(name, flow_id, params.flow_node_cost)
                    costs.set_link(f"P->{name}", flow_id, BASE_LINK_COST)
            routes[flow_id] = Route(nodes=tuple(route_nodes), links=tuple(route_links))

        # Classes: one per (spec row, attach node, node replica).
        class_index = 0
        for flow_index, attach_nodes, max_consumers, rank in TABLE1_CLASS_SPECS:
            for base_name in attach_nodes:
                for node_rep in range(params.node_replicas):
                    name = node_name(flow_rep, base_name, node_rep)
                    class_id = f"c{class_index:02d}"
                    if params.flow_replicas > 1:
                        class_id += f".f{flow_rep}"
                    if params.node_replicas > 1:
                        class_id += f".n{node_rep}"
                    classes.append(
                        ConsumerClass(
                            class_id=class_id,
                            flow_id=flow_names[flow_index],
                            node=name,
                            max_consumers=max_consumers,
                            utility=make_utility(rank),
                        )
                    )
                    costs.set_consumer(name, class_id, params.consumer_cost)
                class_index += 1

    return build_problem(
        nodes=nodes,
        links=links,
        flows=flows,
        classes=classes,
        routes=routes,
        costs=costs.build(),
    )


def base_workload(shape: str | UtilityFactory = "log") -> Problem:
    """The exact Table 1 workload: 6 flows, 3 consumer nodes, 20 classes."""
    return build_workload(WorkloadParams(shape=shape))
