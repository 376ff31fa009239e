"""The two-stage approximation with path pruning (section 2.4, point 2).

The constraint equations assume a flow is routed to every node hosting one
of its classes, even if the optimizer ends up admitting nobody there.  The
paper proposes: (1) solve under that assumption; (2) prune the branches
where every class got ``n_j = 0`` — zero the corresponding ``F_{b,i}`` and
``L_{l,i}`` coefficients — and solve again.  Pruning releases the flow-node
cost ``F * r`` at abandoned nodes, which stage 2 can spend on consumers or
rate.

Pruning is computed on the flow's dissemination tree: a reached node is
prunable when it hosts no admitted class of the flow and no un-pruned route
link of the flow departs from it (i.e. it is a leaf of the remaining tree);
pruning iterates to a fixpoint so whole abandoned branches collapse.  The
source node is never pruned.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.engines import DEFAULT_ENGINE
from repro.core.lrgp import LRGP, LRGPConfig
from repro.model.allocation import Allocation
from repro.obs.telemetry import NULL_TELEMETRY
from repro.model.entities import FlowId, LinkId, NodeId
from repro.model.problem import Problem
from repro.utility.tolerance import is_zero


@dataclass(frozen=True)
class PruneSet:
    """Coefficients a stage-1 solution allows us to zero."""

    flow_nodes: frozenset[tuple[NodeId, FlowId]]
    flow_links: frozenset[tuple[LinkId, FlowId]]

    def is_empty(self) -> bool:
        return not self.flow_nodes and not self.flow_links


def compute_prune_set(problem: Problem, allocation: Allocation) -> PruneSet:
    """Find the (node, flow) and (link, flow) pairs a solution abandons."""
    dropped_nodes: set[tuple[NodeId, FlowId]] = set()
    dropped_links: set[tuple[LinkId, FlowId]] = set()

    for flow_id in problem.flows:
        route = problem.route(flow_id)
        link_objs = [problem.links[link_id] for link_id in route.links]
        pruned_nodes: set[NodeId] = set()
        pruned_links: set[LinkId] = set()

        def has_admitted_class(node_id: NodeId) -> bool:
            return any(
                allocation.population(class_id) > 0
                for class_id in problem.classes_of_flow_at_node(flow_id, node_id)
            )

        changed = True
        while changed:
            changed = False
            for node_id in route.nodes:
                if node_id == route.nodes[0] or node_id in pruned_nodes:
                    continue  # never prune the source
                if has_admitted_class(node_id):
                    continue
                departing = [
                    link
                    for link in link_objs
                    if link.tail == node_id and link.link_id not in pruned_links
                ]
                if departing:
                    continue  # still relays traffic downstream
                pruned_nodes.add(node_id)
                for link in link_objs:
                    if link.head == node_id:
                        pruned_links.add(link.link_id)
                changed = True

        dropped_nodes.update((node_id, flow_id) for node_id in sorted(pruned_nodes))
        dropped_links.update((link_id, flow_id) for link_id in sorted(pruned_links))

    return PruneSet(
        flow_nodes=frozenset(dropped_nodes), flow_links=frozenset(dropped_links)
    )


@dataclass(frozen=True)
class TwoStageResult:
    """Outcome of the two-stage optimization."""

    stage1_utility: float
    stage2_utility: float
    prune_set: PruneSet
    stage1_allocation: Allocation
    stage2_allocation: Allocation
    pruned_problem: Problem
    #: Per-iteration utility trajectories of the underlying LRGP runs.
    #: When nothing was prunable, stage 2 is not re-run and its trajectory
    #: repeats stage 1's.
    stage1_utilities: tuple[float, ...] = ()
    stage2_utilities: tuple[float, ...] = ()

    @property
    def improvement(self) -> float:
        """Relative utility gain of stage 2 over stage 1."""
        if is_zero(self.stage1_utility):
            return 0.0
        return (self.stage2_utility - self.stage1_utility) / self.stage1_utility


def two_stage_optimize(
    problem: Problem,
    config: LRGPConfig | None = None,
    iterations: int = 250,
    engine: str = DEFAULT_ENGINE,
) -> TwoStageResult:
    """Run LRGP, prune abandoned branches, run LRGP again.

    Both stages run ``iterations`` LRGP iterations from a fresh optimizer
    (stage 2 on the pruned problem).  If nothing is prunable, stage 2 equals
    stage 1 and is not re-run.  ``engine`` names the LRGP engine both
    stages run (:mod:`repro.core.engines`).
    """
    telemetry = config.telemetry if config is not None else NULL_TELEMETRY
    profiler = telemetry.profiler
    stage1 = LRGP(problem, config, engine=engine)
    with profiler.phase("stage1"):
        stage1.run(iterations)
    allocation1 = stage1.allocation()
    utility1 = stage1.utilities[-1]
    utilities1 = tuple(stage1.utilities)

    with profiler.phase("prune"):
        prune_set = compute_prune_set(problem, allocation1)
    if prune_set.is_empty():
        return TwoStageResult(
            stage1_utility=utility1,
            stage2_utility=utility1,
            prune_set=prune_set,
            stage1_allocation=allocation1,
            stage2_allocation=allocation1,
            pruned_problem=problem,
            stage1_utilities=utilities1,
            stage2_utilities=utilities1,
        )

    pruned_costs = problem.costs.pruned(
        dropped_flow_nodes=set(prune_set.flow_nodes),
        dropped_flow_links=set(prune_set.flow_links),
    )
    pruned_problem = problem.with_costs(pruned_costs)
    stage2 = LRGP(pruned_problem, config, engine=engine)
    with profiler.phase("stage2"):
        stage2.run(iterations)

    return TwoStageResult(
        stage1_utility=utility1,
        stage2_utility=stage2.utilities[-1],
        prune_set=prune_set,
        stage1_allocation=allocation1,
        stage2_allocation=stage2.allocation(),
        pruned_problem=pruned_problem,
        stage1_utilities=utilities1,
        stage2_utilities=tuple(stage2.utilities),
    )
