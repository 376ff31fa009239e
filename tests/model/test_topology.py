"""Unit tests for the overlay/routing substrate."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.entities import Link, Node
from repro.model.topology import (
    Overlay,
    RoutingError,
    fat_tree_overlay,
    leaf_spine_overlay,
    line_overlay,
    star_overlay,
)


def _diamond(first: str, second: str) -> Overlay:
    """Two equal-hop paths ``s -> {first,second} -> t``; insertion order of
    the middle nodes/links is the only thing distinguishing them."""
    nodes = [Node("s"), Node(first), Node(second), Node("t")]
    links = [
        Link(f"s->{first}", tail="s", head=first),
        Link(f"s->{second}", tail="s", head=second),
        Link(f"{first}->t", tail=first, head="t"),
        Link(f"{second}->t", tail=second, head="t"),
    ]
    return Overlay(nodes, links)


class TestOverlay:
    def test_shortest_path(self):
        overlay = line_overlay(["a", "b", "c"], node_capacity=10.0)
        assert overlay.shortest_path("a", "c") == ["a", "b", "c"]

    def test_no_path_raises(self):
        overlay = line_overlay(["a", "b", "c"], node_capacity=10.0)
        with pytest.raises(RoutingError):
            overlay.shortest_path("c", "a")  # links are unidirectional

    def test_unknown_node_raises(self):
        overlay = line_overlay(["a", "b"], node_capacity=10.0)
        with pytest.raises(RoutingError):
            overlay.shortest_path("a", "zzz")

    def test_link_between(self):
        overlay = line_overlay(["a", "b"], node_capacity=10.0)
        assert overlay.link_between("a", "b") == "a->b"
        with pytest.raises(RoutingError):
            overlay.link_between("b", "a")

    def test_rejects_parallel_links(self):
        nodes = [Node("a"), Node("b")]
        links = [
            Link("l1", tail="a", head="b"),
            Link("l2", tail="a", head="b"),
        ]
        with pytest.raises(RoutingError):
            Overlay(nodes, links)

    def test_rejects_dangling_link(self):
        with pytest.raises(RoutingError):
            Overlay([Node("a")], [Link("l", tail="a", head="ghost")])


class TestDisseminationRoute:
    def test_star_route(self):
        overlay = star_overlay("hub", ["x", "y", "z"], node_capacity=5.0)
        route = overlay.dissemination_route("hub", ["x", "z"])
        assert route.nodes == ("hub", "x", "z")
        assert set(route.links) == {"hub->x", "hub->z"}

    def test_shared_prefix_links_deduplicated(self):
        overlay = line_overlay(["a", "b", "c", "d"], node_capacity=5.0)
        route = overlay.dissemination_route("a", ["c", "d"])
        # a->b and b->c are shared by both target paths but appear once.
        assert route.links == ("a->b", "b->c", "c->d")
        assert route.nodes == ("a", "b", "c", "d")

    def test_source_only_route(self):
        overlay = star_overlay("hub", ["x"], node_capacity=5.0)
        route = overlay.dissemination_route("hub", [])
        assert route.nodes == ("hub",)
        assert route.links == ()


class TestMultipathDeterminism:
    """Equal-hop tie-breaks must be insertion-order stable.

    The leaf-spine / fat-tree generators and every workload builder on
    top of them rely on this: BFS tie-breaking picks the *first inserted*
    adjacency, never a hash-order-dependent one, so routes (and therefore
    config hashes and replay captures) are identical across processes.
    """

    def test_equal_hop_tie_breaks_follow_insertion_order(self):
        overlay = _diamond("m1", "m2")
        assert overlay.shortest_path("s", "t") == ["s", "m1", "t"]
        route = overlay.dissemination_route("s", ["t"])
        assert route.nodes == ("s", "m1", "t")
        assert route.links == ("s->m1", "m1->t")

    def test_tie_break_tracks_insertion_not_name(self):
        # Insert the lexicographically *larger* middle node first: the
        # route must follow insertion order, proving the tie-break is not
        # accidental name sorting (nor hash ordering).
        overlay = _diamond("m2", "m1")
        assert overlay.shortest_path("s", "t") == ["s", "m2", "t"]
        assert overlay.dissemination_route("s", ["t"]).nodes == ("s", "m2", "t")

    def test_repeated_routing_is_stable(self):
        overlay = _diamond("m1", "m2")
        routes = {overlay.dissemination_route("s", ["t"]) for _ in range(20)}
        assert len(routes) == 1

    def test_leaf_spine_bfs_collapses_onto_first_spine(self):
        # Documented multipath caveat: naive BFS dissemination through a
        # leaf-spine fabric always rides spine0, which is why the
        # leafspine workload assigns spines round-robin per flow instead.
        overlay = leaf_spine_overlay(spines=3, leaves=4, leaf_capacity=5.0)
        route = overlay.dissemination_route("hub", ["leaf1", "leaf3"])
        assert route.nodes == ("hub", "spine0", "leaf1", "leaf3")
        assert route.links == ("hub->spine0", "spine0->leaf1", "spine0->leaf3")


class TestFabricFactories:
    def test_leaf_spine_shape(self):
        overlay = leaf_spine_overlay(
            spines=3, leaves=4, leaf_capacity=7.0, link_capacity=9.0
        )
        assert len(overlay.nodes) == 1 + 3 + 4
        assert len(overlay.links) == 3 + 3 * 4
        assert overlay.nodes["hub"].capacity == math.inf
        assert overlay.nodes["spine0"].capacity == math.inf
        assert overlay.nodes["leaf2"].capacity == 7.0
        assert overlay.links["spine1->leaf3"].capacity == 9.0
        # Every leaf reachable through every spine (the multipath fabric).
        for spine in range(3):
            for leaf in range(4):
                assert overlay.link_between(f"spine{spine}", f"leaf{leaf}")

    def test_leaf_spine_validates_counts(self):
        with pytest.raises(ValueError):
            leaf_spine_overlay(spines=0, leaves=4, leaf_capacity=1.0)
        with pytest.raises(ValueError):
            leaf_spine_overlay(spines=2, leaves=0, leaf_capacity=1.0)

    def test_fat_tree_shape(self):
        overlay = fat_tree_overlay(k=4, edge_capacity=7.0, link_capacity=9.0)
        half = 2
        cores, pods = half * half, 4
        # hub + cores + per-pod agg/edge.
        assert len(overlay.nodes) == 1 + cores + pods * (half + half)
        # hub->core, core->agg (one per core per pod), agg->edge per pod.
        assert len(overlay.links) == cores + cores * pods + pods * half * half
        assert overlay.nodes["edge2_1"].capacity == 7.0
        assert overlay.nodes["agg1_0"].capacity == math.inf
        # Core c homes onto aggregation switch c // (k/2) in every pod.
        assert overlay.link_between("core0", "agg0_0")
        assert overlay.link_between("core3", "agg2_1")
        with pytest.raises(RoutingError):
            overlay.link_between("core0", "agg0_1")

    def test_fat_tree_requires_even_k(self):
        with pytest.raises(ValueError):
            fat_tree_overlay(k=3, edge_capacity=1.0)
        with pytest.raises(ValueError):
            fat_tree_overlay(k=0, edge_capacity=1.0)


class TestFactories:
    def test_star_overlay_shape(self):
        overlay = star_overlay(
            "hub", ["a", "b"], node_capacity=7.0, link_capacity=3.0,
        )
        assert overlay.nodes["hub"].capacity == math.inf
        assert overlay.nodes["a"].capacity == 7.0
        assert overlay.links["hub->a"].capacity == 3.0

    def test_line_overlay_needs_two_nodes(self):
        with pytest.raises(ValueError):
            line_overlay(["only"], node_capacity=1.0)


@st.composite
def _routing_cases(draw):
    """A random overlay plus endpoints: 2-7 nodes, a random subset of the
    possible links inserted in random order, and endpoints that may name
    a node outside the overlay."""
    ids = draw(st.permutations([f"n{i}" for i in range(draw(st.integers(2, 7)))]))
    pairs = [(tail, head) for tail in ids for head in ids if tail != head]
    links = draw(st.lists(st.sampled_from(pairs), unique=True))
    endpoints = st.sampled_from([*ids, "ghost"])
    return ids, links, draw(endpoints), draw(endpoints)


def _hop_distances(ids, links, source):
    """Unit-weight Bellman-Ford distances from ``source``."""
    dist = dict.fromkeys(ids, math.inf)
    dist[source] = 0
    for _ in range(len(ids) - 1):
        for tail, head in links:
            dist[head] = min(dist[head], dist[tail] + 1)
    return dist


def _fifo_path(links, dist, source, target):
    """The hop-minimal path whose sequence of successor positions (each
    hop's index among its tail's links, in insertion order) is
    lexicographically smallest, by exhaustive enumeration."""
    successors = {}
    for tail, head in links:
        successors.setdefault(tail, []).append(head)

    def walks(node):
        if node == target:
            yield (), [node]
            return
        for position, head in enumerate(successors.get(node, [])):
            if dist[head] == dist[node] + 1:
                for rest, path in walks(head):
                    yield (position, *rest), [node, *path]

    return min(walks(source), key=lambda walk: walk[0])[1]


class TestRoutingOracle:
    """``shortest_path`` against an independent oracle on random overlays."""

    @settings(max_examples=400, deadline=None)
    @given(case=_routing_cases())
    def test_shortest_path_matches_oracle(self, case):
        ids, links, source, target = case
        overlay = Overlay(
            [Node(node_id) for node_id in ids],
            [Link(f"{tail}->{head}", tail=tail, head=head) for tail, head in links],
        )
        dist = _hop_distances(ids, links, source) if source in ids else {}
        if math.isinf(dist.get(target, math.inf)):
            with pytest.raises(RoutingError):
                overlay.shortest_path(source, target)
            return
        path = overlay.shortest_path(source, target)
        assert path[0] == source and path[-1] == target
        for tail, head in zip(path, path[1:]):
            assert overlay.link_between(tail, head) == f"{tail}->{head}"
        assert len(path) - 1 == dist[target]
        assert path == _fifo_path(links, dist, source, target)
