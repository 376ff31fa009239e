"""Overlay topology and routing substrate.

The paper assumes each flow has a given dissemination path (section 5:
"Our optimization algorithm assumes all the flows have a given path").
This module builds those paths: it stores a directed overlay as an
insertion-ordered successor map and computes, for each flow, a
dissemination *tree* from the flow's source to the nodes hosting its
consumer classes, recorded as a :class:`repro.model.entities.Route`.

For the paper's evaluation workloads links are never bottlenecks
(section 4.1), so workload builders may use :func:`star_overlay` with
effectively infinite link capacities; the full routing path is still
materialized so link-price machinery is exercised end to end.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable, Mapping, Sequence

from repro.model.entities import Link, LinkId, Node, NodeId, Route


class RoutingError(ValueError):
    """Raised when no route exists between a source and a consumer node."""


class Overlay:
    """A directed overlay of nodes and unidirectional capacitated links."""

    def __init__(self, nodes: Iterable[Node], links: Iterable[Link]) -> None:
        self._nodes = {n.node_id: n for n in nodes}
        self._links = {l.link_id: l for l in links}
        # tail -> head -> link id, both levels in insertion order.
        self._successors: dict[NodeId, dict[NodeId, LinkId]] = {n: {} for n in self._nodes}
        for link in self._links.values():
            if link.tail not in self._nodes or link.head not in self._nodes:
                raise RoutingError(
                    f"link {link.link_id} references nodes outside the overlay"
                )
            heads = self._successors[link.tail]
            if link.head in heads:
                raise RoutingError(
                    f"parallel link between {link.tail} and {link.head}"
                )
            heads[link.head] = link.link_id

    @property
    def nodes(self) -> Mapping[NodeId, Node]:
        return self._nodes

    @property
    def links(self) -> Mapping[LinkId, Link]:
        return self._links

    def shortest_path(self, source: NodeId, target: NodeId) -> list[NodeId]:
        """Hop-count shortest path by FIFO breadth-first search.

        Equal-hop ties go to the path whose successor positions (each
        hop's index among its tail's links, in insertion order) are
        lexicographically smallest.  Raises :class:`RoutingError` for an
        unknown endpoint or an unreachable target.
        """
        paths: dict[NodeId, list[NodeId]] = {}
        if source in self._nodes:
            paths[source] = [source]
        frontier = deque(paths)
        while frontier and target not in paths:
            tail = frontier.popleft()
            for head in self._successors[tail]:
                if head not in paths:
                    paths[head] = [*paths[tail], head]
                    frontier.append(head)
        if target not in paths:
            raise RoutingError(f"no path from {source} to {target}")
        return paths[target]

    def link_between(self, tail: NodeId, head: NodeId) -> LinkId:
        try:
            return self._successors[tail][head]
        except KeyError:
            raise RoutingError(f"no link from {tail} to {head}") from None

    def dissemination_route(self, source: NodeId, targets: Sequence[NodeId]) -> Route:
        """Build the dissemination tree of a flow as a :class:`Route`.

        The tree is the union of hop-count shortest paths from ``source`` to
        each target (a standard shortest-path-tree approximation of the
        Steiner tree).  Node order is a breadth-first order of the union,
        starting at the source; each link appears once even when shared by
        several target paths.
        """
        ordered_nodes: list[NodeId] = [source]
        seen_nodes = {source}
        ordered_links: list[LinkId] = []
        seen_links: set[LinkId] = set()
        for target in targets:
            path = self.shortest_path(source, target)
            for tail, head in zip(path, path[1:]):
                link_id = self.link_between(tail, head)
                if link_id not in seen_links:
                    seen_links.add(link_id)
                    ordered_links.append(link_id)
                if head not in seen_nodes:
                    seen_nodes.add(head)
                    ordered_nodes.append(head)
        return Route(nodes=tuple(ordered_nodes), links=tuple(ordered_links))


def star_overlay(
    hub_id: NodeId,
    leaf_ids: Sequence[NodeId],
    node_capacity: float,
    link_capacity: float = math.inf,
    hub_capacity: float = math.inf,
) -> Overlay:
    """A hub-and-spoke overlay: one hub with a unidirectional link to each
    leaf.

    This is the minimal topology matching the paper's workloads: producers
    attach at the hub, consumer nodes are the leaves, and link capacities
    default to infinite so only node resources constrain the system.
    """
    nodes = [Node(hub_id, capacity=hub_capacity)] + [
        Node(leaf, capacity=node_capacity) for leaf in leaf_ids
    ]
    links = [
        Link(f"{hub_id}->{leaf}", tail=hub_id, head=leaf, capacity=link_capacity)
        for leaf in leaf_ids
    ]
    return Overlay(nodes, links)


def leaf_spine_overlay(
    spines: int,
    leaves: int,
    leaf_capacity: float,
    link_capacity: float = math.inf,
    hub_capacity: float = math.inf,
    spine_capacity: float = math.inf,
    hub_id: NodeId = "hub",
) -> Overlay:
    """A two-tier leaf-spine fabric fed by one producer hub.

    The hub (where producers attach) links to every spine, and every spine
    links to every leaf — the standard datacenter Clos fabric, downstream
    direction only (dissemination flows hub → spine → leaf).  Consumer
    classes live on the leaves; spines and the hub default to infinite
    capacity so they are pure transit.  Every leaf is reachable through
    *every* spine, so the fabric is multipath: workload builders pick the
    spine per flow (ECMP-style) rather than letting BFS tie-breaking
    collapse all routes onto the first spine.

    Node ids are ``spine{i}`` / ``leaf{j}``; link ids are ``tail->head``.
    With ``S`` spines and ``L`` leaves the overlay has ``S + S*L`` links —
    ``spines=100, leaves=100`` gives the 10k+ link fabric the scale bench
    runs.
    """
    if spines < 1 or leaves < 1:
        raise ValueError("a leaf-spine overlay needs at least one spine and leaf")
    spine_ids = [f"spine{i}" for i in range(spines)]
    leaf_ids = [f"leaf{j}" for j in range(leaves)]
    nodes = (
        [Node(hub_id, capacity=hub_capacity)]
        + [Node(sid, capacity=spine_capacity) for sid in spine_ids]
        + [Node(lid, capacity=leaf_capacity) for lid in leaf_ids]
    )
    links = [
        Link(f"{hub_id}->{sid}", tail=hub_id, head=sid, capacity=link_capacity)
        for sid in spine_ids
    ]
    for sid in spine_ids:
        for lid in leaf_ids:
            links.append(
                Link(f"{sid}->{lid}", tail=sid, head=lid, capacity=link_capacity)
            )
    return Overlay(nodes, links)


def fat_tree_overlay(
    k: int,
    edge_capacity: float,
    link_capacity: float = math.inf,
    hub_capacity: float = math.inf,
    transit_capacity: float = math.inf,
    hub_id: NodeId = "hub",
) -> Overlay:
    """A three-tier k-ary fat tree fed by one producer hub.

    The canonical ``k``-pod fat tree (``k`` even): ``(k/2)^2`` core
    switches, ``k`` pods of ``k/2`` aggregation and ``k/2`` edge switches
    each.  Core ``c`` connects to aggregation switch ``c // (k/2)`` of
    every pod, and aggregation switches connect to every edge switch in
    their pod — downstream direction only, with the hub linked to every
    core.  Consumer classes live on the edge switches; everything above
    defaults to infinite capacity (pure transit).  Like the leaf-spine
    fabric, the tree is multipath from the hub (one path per core), and
    workload builders pick the core per flow.

    Node ids are ``core{c}`` / ``agg{p}_{a}`` / ``edge{p}_{e}``.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError("a fat tree needs an even k >= 2")
    half = k // 2
    core_ids = [f"core{c}" for c in range(half * half)]
    nodes = [Node(hub_id, capacity=hub_capacity)] + [
        Node(cid, capacity=transit_capacity) for cid in core_ids
    ]
    links = [
        Link(f"{hub_id}->{cid}", tail=hub_id, head=cid, capacity=link_capacity)
        for cid in core_ids
    ]
    for pod in range(k):
        agg_ids = [f"agg{pod}_{a}" for a in range(half)]
        edge_ids = [f"edge{pod}_{e}" for e in range(half)]
        nodes.extend(Node(aid, capacity=transit_capacity) for aid in agg_ids)
        nodes.extend(Node(eid, capacity=edge_capacity) for eid in edge_ids)
        for c, cid in enumerate(core_ids):
            aid = agg_ids[c // half]
            links.append(
                Link(f"{cid}->{aid}", tail=cid, head=aid, capacity=link_capacity)
            )
        for aid in agg_ids:
            for eid in edge_ids:
                links.append(
                    Link(f"{aid}->{eid}", tail=aid, head=eid, capacity=link_capacity)
                )
    return Overlay(nodes, links)


def line_overlay(
    node_ids: Sequence[NodeId],
    node_capacity: float,
    link_capacity: float = math.inf,
) -> Overlay:
    """A unidirectional chain ``n0 -> n1 -> ... -> nk``.

    Useful for link-bottleneck experiments: every downstream flow shares the
    upstream links.
    """
    if len(node_ids) < 2:
        raise ValueError("a line overlay needs at least two nodes")
    nodes = [Node(node_id, capacity=node_capacity) for node_id in node_ids]
    links = [
        Link(f"{tail}->{head}", tail=tail, head=head, capacity=link_capacity)
        for tail, head in zip(node_ids, node_ids[1:])
    ]
    return Overlay(nodes, links)
