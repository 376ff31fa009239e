"""Datacenter-fabric workloads: leaf-spine and fat-tree dissemination.

The paper's evaluation overlays are single-digit-node stars; the ROADMAP
north star is datacenter scale.  This family builds broker overlays shaped
like the two canonical datacenter fabrics (psim builds exactly these
topologies for its packet simulator) and loads them with the same
producer-hub / consumer-leaf structure as the tree workloads:

* producers attach at a hub above the fabric;
* spine/core/aggregation brokers are pure relays (flow-node cost, no
  consumers, infinite node capacity);
* leaf (or edge) brokers host the consumer classes;
* each flow is disseminated to a contiguous block of leaves through **one**
  fabric path picked round-robin per flow — a deterministic stand-in for
  ECMP hashing.  The fabrics are multipath (every leaf is reachable via
  every spine/core), and BFS tie-breaking would collapse all flows onto
  the first spine; the round-robin choice is what actually spreads load,
  and it is insertion-order independent by construction.

Unlike the paper overlays, fabric links default to a *finite* capacity,
so every link is a bottleneck link (eq. 4) with a live price controller —
at ``spines=100, leaves=100`` that is the 10k+ link / 1k+ flow scale the
vectorized engine's COO lowering exists for, with compiled-array memory
proportional to route nonzeros rather than ``n_links x n_flows``.
"""

from __future__ import annotations

from repro.model.costs import (
    GRYPHON_CONSUMER_COST,
    GRYPHON_FLOW_NODE_COST,
    GRYPHON_NODE_CAPACITY,
    CostModelBuilder,
)
from repro.model.entities import ConsumerClass, Flow, Route
from repro.model.problem import Problem, build_problem
from repro.model.topology import fat_tree_overlay, leaf_spine_overlay
from repro.workloads.base import UtilityFactory, resolve_shape
from repro.workloads.tree import DEFAULT_RANKS

#: Default fabric link capacity: finite so links carry price controllers
#: (making them bottleneck links in the compiled lowering), but generous
#: enough that link prices only bind when a workload oversubscribes a
#: fabric on purpose.
DEFAULT_FABRIC_LINK_CAPACITY = 1_000_000.0


def leaf_spine_workload(
    spines: int = 4,
    leaves: int = 8,
    flows: int = 16,
    leaves_per_flow: int = 2,
    classes_per_leaf: int = 2,
    max_consumers: int = 500,
    leaf_capacity: float = GRYPHON_NODE_CAPACITY,
    link_capacity: float = DEFAULT_FABRIC_LINK_CAPACITY,
    rate_min: float = 10.0,
    rate_max: float = 1000.0,
    shape: str | UtilityFactory = "log",
) -> Problem:
    """A two-tier leaf-spine fabric under dissemination load.

    Flow ``i`` routes hub → ``spine{i % spines}`` → its leaf block
    ``[i * leaves_per_flow, ...)`` modulo the leaf count, so consecutive
    flows ride different spines and overlapping blocks share leaves.
    Registered as ``leafspine:...``; the 1k-flow scale leg of the engine
    bench is ``leafspine:spines=100,leaves=100,flows=1024,leaves_per_flow=4``
    (10100 fabric links).
    """
    if flows < 1 or leaves_per_flow < 1 or classes_per_leaf < 1:
        raise ValueError("flows/leaves_per_flow/classes_per_leaf must be >= 1")
    make_utility = resolve_shape(shape)

    overlay = leaf_spine_overlay(
        spines=spines,
        leaves=leaves,
        leaf_capacity=leaf_capacity,
        link_capacity=link_capacity,
    )
    leaf_ids = [f"leaf{j}" for j in range(leaves)]

    flow_objs = []
    classes = []
    routes: dict[str, Route] = {}
    costs = CostModelBuilder()
    for flow_index in range(flows):
        flow_id = f"f{flow_index}"
        flow_objs.append(
            Flow(flow_id, source="hub", rate_min=rate_min, rate_max=rate_max)
        )
        spine = f"spine{flow_index % spines}"
        targets = [
            leaf_ids[(flow_index * leaves_per_flow + offset) % leaves]
            for offset in range(min(leaves_per_flow, leaves))
        ]
        # The flow's dissemination tree through its round-robin spine: the
        # fabric gives exactly one path per (spine, leaf), so the explicit
        # construction equals dissemination_route restricted to that spine.
        route = Route(
            nodes=("hub", spine, *targets),
            links=(
                overlay.link_between("hub", spine),
                *(overlay.link_between(spine, leaf) for leaf in targets),
            ),
        )
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
        nodes=list(overlay.nodes.values()),
        links=list(overlay.links.values()),
        flows=flow_objs,
        classes=classes,
        routes=routes,
        costs=costs.build(),
    )


def fat_tree_workload(
    k: int = 4,
    flows: int = 8,
    edges_per_flow: int = 2,
    classes_per_edge: int = 2,
    max_consumers: int = 500,
    edge_capacity: float = GRYPHON_NODE_CAPACITY,
    link_capacity: float = DEFAULT_FABRIC_LINK_CAPACITY,
    rate_min: float = 10.0,
    rate_max: float = 1000.0,
    shape: str | UtilityFactory = "log",
) -> Problem:
    """A three-tier ``k``-ary fat tree under dissemination load.

    Flow ``i`` enters through core ``i % (k/2)^2`` and fans out to a
    contiguous block of edge switches across pods; below a given core the
    fat tree is a tree (one aggregation switch per pod), so the
    dissemination route is the unique shortest-path tree from that core.
    Registered as ``fattree:...``.
    """
    if flows < 1 or edges_per_flow < 1 or classes_per_edge < 1:
        raise ValueError("flows/edges_per_flow/classes_per_edge must be >= 1")
    make_utility = resolve_shape(shape)

    overlay = fat_tree_overlay(
        k=k, edge_capacity=edge_capacity, link_capacity=link_capacity
    )
    half = k // 2
    n_cores = half * half
    edge_ids = [f"edge{pod}_{e}" for pod in range(k) for e in range(half)]

    flow_objs = []
    classes = []
    routes: dict[str, Route] = {}
    costs = CostModelBuilder()
    for flow_index in range(flows):
        flow_id = f"f{flow_index}"
        flow_objs.append(
            Flow(flow_id, source="hub", rate_min=rate_min, rate_max=rate_max)
        )
        core = f"core{flow_index % n_cores}"
        targets = [
            edge_ids[(flow_index * edges_per_flow + offset) % len(edge_ids)]
            for offset in range(min(edges_per_flow, len(edge_ids)))
        ]
        below = overlay.dissemination_route(core, targets)
        route = Route(
            nodes=("hub", *below.nodes),
            links=(overlay.link_between("hub", core), *below.links),
        )
        routes[flow_id] = route
        for node_id in route.nodes[1:]:
            costs.set_flow_node(node_id, flow_id, GRYPHON_FLOW_NODE_COST)
        for link_id in route.links:
            costs.set_link(link_id, flow_id, 1.0)
        for edge in targets:
            for class_index in range(classes_per_edge):
                class_id = f"c{flow_index}.{edge}.{class_index}"
                rank = DEFAULT_RANKS[class_index % len(DEFAULT_RANKS)]
                classes.append(
                    ConsumerClass(
                        class_id=class_id,
                        flow_id=flow_id,
                        node=edge,
                        max_consumers=max_consumers,
                        utility=make_utility(rank),
                    )
                )
                costs.set_consumer(edge, class_id, GRYPHON_CONSUMER_COST)

    return build_problem(
        nodes=list(overlay.nodes.values()),
        links=list(overlay.links.values()),
        flows=flow_objs,
        classes=classes,
        routes=routes,
        costs=costs.build(),
    )
