"""The optimization problem instance (section 2).

:class:`Problem` bundles the entity sets, the routes and the cost model, and
precomputes the index maps the paper names:

* ``flowMap(j)``      -> :meth:`Problem.flow_of_class`
* ``C_i``             -> :meth:`Problem.classes_of_flow`
* ``attachMap_i(b)``  -> :meth:`Problem.classes_of_flow_at_node`
* ``nodeClasses(b)``  -> :meth:`Problem.classes_at_node`
* ``linkMap(l)``      -> :meth:`Problem.flows_on_link`
* ``nodeMap(b)``      -> :meth:`Problem.flows_at_node`
* ``L_i`` / ``B_i``   -> :meth:`Problem.route` (links / nodes of a flow)

Construction validates cross-references and caches the maps, so algorithm
code never walks raw entity lists.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.model.costs import CostModel
from repro.model.entities import (
    ClassId,
    ConsumerClass,
    Flow,
    FlowId,
    Link,
    LinkId,
    Node,
    NodeId,
    Route,
)


class ProblemValidationError(ValueError):
    """Raised when a problem instance is internally inconsistent."""


@dataclass(frozen=True)
class Problem:
    """An immutable, validated problem instance.

    Use :func:`build_problem` (or a workload builder from
    :mod:`repro.workloads`) rather than constructing directly, so the
    derived maps are populated.
    """

    nodes: Mapping[NodeId, Node]
    links: Mapping[LinkId, Link]
    flows: Mapping[FlowId, Flow]
    classes: Mapping[ClassId, ConsumerClass]
    routes: Mapping[FlowId, Route]
    costs: CostModel
    # Derived maps (built by build_problem).
    _classes_of_flow: Mapping[FlowId, tuple[ClassId, ...]]
    _classes_at_node: Mapping[NodeId, tuple[ClassId, ...]]
    _flows_at_node: Mapping[NodeId, tuple[FlowId, ...]]
    _flows_on_link: Mapping[LinkId, tuple[FlowId, ...]]
    _consumer_nodes: tuple[NodeId, ...]
    _bottleneck_links: tuple[LinkId, ...]

    # -- the paper's index maps -------------------------------------------

    def flow_of_class(self, class_id: ClassId) -> FlowId:
        """``flowMap(j)``: the flow consumed by class ``j``."""
        return self.classes[class_id].flow_id

    def classes_of_flow(self, flow_id: FlowId) -> tuple[ClassId, ...]:
        """``C_i``: all classes consuming flow ``i``."""
        return self._classes_of_flow.get(flow_id, ())

    def classes_at_node(self, node_id: NodeId) -> tuple[ClassId, ...]:
        """``nodeClasses(b)``: all classes attached to node ``b``."""
        return self._classes_at_node.get(node_id, ())

    def classes_of_flow_at_node(
        self, flow_id: FlowId, node_id: NodeId
    ) -> tuple[ClassId, ...]:
        """``attachMap_i(b)``: classes of flow ``i`` attached to node ``b``."""
        return tuple(
            class_id
            for class_id in self._classes_at_node.get(node_id, ())
            if self.classes[class_id].flow_id == flow_id
        )

    def flows_at_node(self, node_id: NodeId) -> tuple[FlowId, ...]:
        """``nodeMap(b)``: flows whose route reaches node ``b``."""
        return self._flows_at_node.get(node_id, ())

    def flows_on_link(self, link_id: LinkId) -> tuple[FlowId, ...]:
        """``linkMap(l)``: flows traversing link ``l``."""
        return self._flows_on_link.get(link_id, ())

    def route(self, flow_id: FlowId) -> Route:
        """``B_i`` and ``L_i``: the nodes reached / links used by flow ``i``."""
        return self.routes[flow_id]

    # -- convenience -------------------------------------------------------

    def consumer_nodes(self) -> tuple[NodeId, ...]:
        """Nodes hosting at least one consumer class, in sorted order."""
        return self._consumer_nodes

    def bottleneck_links(self) -> tuple[LinkId, ...]:
        """Links with finite capacity, in sorted order."""
        return self._bottleneck_links

    def without_flow(self, flow_id: FlowId) -> "Problem":
        """Return a copy with ``flow_id`` (and its classes/route) removed.

        Models a flow source leaving the system (section 4.2, figure 3).
        """
        if flow_id not in self.flows:
            raise KeyError(f"unknown flow {flow_id!r}")
        removed_classes = {
            c.class_id for c in self.classes.values() if c.flow_id == flow_id
        }
        pruned_costs = CostModel(
            link_cost={
                key: value
                for key, value in self.costs.link_cost.items()
                if key[1] != flow_id
            },
            flow_node_cost={
                key: value
                for key, value in self.costs.flow_node_cost.items()
                if key[1] != flow_id
            },
            consumer_cost={
                key: value
                for key, value in self.costs.consumer_cost.items()
                if key[1] not in removed_classes
            },
        )
        return build_problem(
            nodes=self.nodes.values(),
            links=self.links.values(),
            flows=[f for f in self.flows.values() if f.flow_id != flow_id],
            classes=[c for c in self.classes.values() if c.flow_id != flow_id],
            routes={f: r for f, r in self.routes.items() if f != flow_id},
            costs=pruned_costs,
        )

    def with_node_capacity(self, node_id: NodeId, capacity: float) -> "Problem":
        """Return a copy with one node's capacity changed.

        Models capacity dynamics (failures, co-tenancy, upgrades) the
        autonomic system must react to.
        """
        if node_id not in self.nodes:
            raise KeyError(f"unknown node {node_id!r}")
        return build_problem(
            nodes=[
                node if node.node_id != node_id else Node(node_id, capacity=capacity)
                for node in self.nodes.values()
            ],
            links=self.links.values(),
            flows=self.flows.values(),
            classes=self.classes.values(),
            routes=self.routes,
            costs=self.costs,
        )

    def with_costs(self, costs: CostModel) -> "Problem":
        """Return a copy with a different cost model (used by the two-stage
        approximation's pruning pass)."""
        return build_problem(
            nodes=self.nodes.values(),
            links=self.links.values(),
            flows=self.flows.values(),
            classes=self.classes.values(),
            routes=self.routes,
            costs=costs,
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{len(self.flows)} flows, {len(self.consumer_nodes())} c-nodes, "
            f"{len(self.classes)} classes, {len(self.links)} links"
        )


def _validate(
    nodes: dict[NodeId, Node],
    links: dict[LinkId, Link],
    flows: dict[FlowId, Flow],
    classes: dict[ClassId, ConsumerClass],
    routes: dict[FlowId, Route],
    costs: CostModel,
) -> None:
    for link in links.values():
        for endpoint in (link.tail, link.head):
            if endpoint not in nodes:
                raise ProblemValidationError(
                    f"link {link.link_id} references unknown node {endpoint}"
                )
    for flow in flows.values():
        if flow.source not in nodes:
            raise ProblemValidationError(
                f"flow {flow.flow_id} has unknown source node {flow.source}"
            )
        route = routes.get(flow.flow_id)
        if route is None:
            raise ProblemValidationError(f"flow {flow.flow_id} has no route")
        for node_id in route.nodes:
            if node_id not in nodes:
                raise ProblemValidationError(
                    f"route of flow {flow.flow_id} visits unknown node {node_id}"
                )
        for link_id in route.links:
            if link_id not in links:
                raise ProblemValidationError(
                    f"route of flow {flow.flow_id} uses unknown link {link_id}"
                )
        if route.nodes[0] != flow.source:
            raise ProblemValidationError(
                f"route of flow {flow.flow_id} must start at its source "
                f"{flow.source}, starts at {route.nodes[0]}"
            )
    for flow_id in routes:
        if flow_id not in flows:
            raise ProblemValidationError(f"route given for unknown flow {flow_id}")
    for cls in classes.values():
        if cls.flow_id not in flows:
            raise ProblemValidationError(
                f"class {cls.class_id} consumes unknown flow {cls.flow_id}"
            )
        if cls.node not in nodes:
            raise ProblemValidationError(
                f"class {cls.class_id} attaches to unknown node {cls.node}"
            )
        if cls.node not in routes[cls.flow_id].nodes:
            raise ProblemValidationError(
                f"class {cls.class_id} attaches to node {cls.node}, which the "
                f"route of flow {cls.flow_id} does not reach"
            )
    for (link_id, flow_id) in costs.link_cost:
        if link_id not in links or flow_id not in flows:
            raise ProblemValidationError(
                f"link cost references unknown pair ({link_id}, {flow_id})"
            )
    for (node_id, flow_id) in costs.flow_node_cost:
        if node_id not in nodes or flow_id not in flows:
            raise ProblemValidationError(
                f"flow-node cost references unknown pair ({node_id}, {flow_id})"
            )
    for (node_id, class_id) in costs.consumer_cost:
        if node_id not in nodes or class_id not in classes:
            raise ProblemValidationError(
                f"consumer cost references unknown pair ({node_id}, {class_id})"
            )


def build_problem(
    nodes: Iterable[Node],
    links: Iterable[Link],
    flows: Iterable[Flow],
    classes: Iterable[ConsumerClass],
    routes: Mapping[FlowId, Route],
    costs: CostModel,
) -> Problem:
    """Validate inputs, derive the index maps and freeze a :class:`Problem`."""
    node_map = {n.node_id: n for n in nodes}
    link_map = {l.link_id: l for l in links}
    flow_map = {f.flow_id: f for f in flows}
    class_map = {c.class_id: c for c in classes}
    route_map = dict(routes)
    if len(node_map) != len(list(node_map)):
        raise ProblemValidationError("duplicate node ids")
    _validate(node_map, link_map, flow_map, class_map, route_map, costs)

    classes_of_flow: dict[FlowId, list[ClassId]] = {}
    classes_at_node: dict[NodeId, list[ClassId]] = {}
    for cls in class_map.values():
        classes_of_flow.setdefault(cls.flow_id, []).append(cls.class_id)
        classes_at_node.setdefault(cls.node, []).append(cls.class_id)

    flows_at_node: dict[NodeId, list[FlowId]] = {}
    flows_on_link: dict[LinkId, list[FlowId]] = {}
    for flow_id, route in route_map.items():
        for node_id in route.nodes:
            flows_at_node.setdefault(node_id, []).append(flow_id)
        for link_id in route.links:
            flows_on_link.setdefault(link_id, []).append(flow_id)

    return Problem(
        nodes=node_map,
        links=link_map,
        flows=flow_map,
        classes=class_map,
        routes=route_map,
        costs=costs,
        _classes_of_flow={f: tuple(sorted(v)) for f, v in classes_of_flow.items()},
        _classes_at_node={n: tuple(sorted(v)) for n, v in classes_at_node.items()},
        _flows_at_node={n: tuple(sorted(v)) for n, v in flows_at_node.items()},
        _flows_on_link={l: tuple(sorted(v)) for l, v in flows_on_link.items()},
        _consumer_nodes=tuple(sorted(classes_at_node)),
        _bottleneck_links=tuple(
            sorted(
                link_id
                for link_id, link in link_map.items()
                if not math.isinf(link.capacity)
            )
        ),
    )
