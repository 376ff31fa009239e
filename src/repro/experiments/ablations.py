"""Ablations of LRGP's design choices (not in the paper, motivated by it).

* **Node-price ablation** — section 3.3 argues the raw benefit/cost ratio is
  too unstable to use directly as the price and that the boundary coupling
  matters.  We compare: the paper's damped/adaptive tracking, raw tracking
  (gamma = 1, i.e. ``p = BC`` each iteration), and an "overload-only" price
  that ignores BC entirely (decays toward zero when under capacity).
* **Admission ablation** — section 3.2's greedy benefit/cost ordering vs.
  FIFO (class-id order), random order, and proportional fair-share fill.
* **Asynchrony ablation** — section 3.5: how latency, message loss and
  price-averaging windows affect the achieved utility.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.consumer_allocation import (
    NodeAllocation,
    admit_in_order,
    allocate_consumers,
    benefit_cost_ratio,
)
from repro.core.convergence import iterations_until_convergence, oscillation_amplitude
from repro.core.lrgp import LRGP, LRGPConfig
from repro.experiments.reporting import TableResult, format_number
from repro.model.entities import FlowId, NodeId
from repro.model.metrics import admission_fairness
from repro.model.problem import Problem
from repro.runtime.asynchronous import AsyncConfig, AsynchronousRuntime
from repro.workloads.base import base_workload

DEFAULT_ITERATIONS = 250


# ---------------------------------------------------------------------------
# Alternative admission strategies (all satisfy the node constraint; they
# differ only in *which* consumers occupy the budget).
# ---------------------------------------------------------------------------


def fifo_admission(
    problem: Problem, node_id: NodeId, rates: Mapping[FlowId, float]
) -> NodeAllocation:
    """Admit classes in class-id order, ignoring benefit/cost."""
    return admit_in_order(problem, node_id, rates, problem.classes_at_node(node_id))


def make_random_admission(seed: int = 0):
    """Admit classes in a fresh random order every call (seeded)."""
    rng = random.Random(seed)

    def random_admission(
        problem: Problem, node_id: NodeId, rates: Mapping[FlowId, float]
    ) -> NodeAllocation:
        order = list(problem.classes_at_node(node_id))
        rng.shuffle(order)
        return admit_in_order(problem, node_id, rates, order)

    return random_admission


def proportional_admission(
    problem: Problem, node_id: NodeId, rates: Mapping[FlowId, float]
) -> NodeAllocation:
    """Fair-share fill: every class is admitted the same fraction of its
    ``n^max`` (the largest feasible fraction), regardless of value."""
    capacity = problem.nodes[node_id].capacity
    flow_cost = sum(
        problem.costs.flow_node(node_id, flow_id) * rates.get(flow_id, 0.0)
        for flow_id in problem.flows_at_node(node_id)
    )
    class_ids = problem.classes_at_node(node_id)
    ratios = {
        class_id: benefit_cost_ratio(
            problem, node_id, class_id,
            rates.get(problem.flow_of_class(class_id), 0.0),
        )
        for class_id in class_ids
    }
    budget = capacity - flow_cost
    full_demand = sum(
        problem.costs.consumer(node_id, class_id)
        * problem.classes[class_id].max_consumers
        * rates.get(problem.classes[class_id].flow_id, 0.0)
        for class_id in class_ids
    )
    if budget <= 0.0 or full_demand <= 0.0:
        fraction = 1.0 if full_demand <= 0.0 and budget > 0.0 else 0.0
    else:
        fraction = min(1.0, budget / full_demand)
    populations = {
        class_id: int(fraction * problem.classes[class_id].max_consumers)
        for class_id in class_ids
    }
    consumer_cost = sum(
        problem.costs.consumer(node_id, class_id)
        * populations[class_id]
        * rates.get(problem.classes[class_id].flow_id, 0.0)
        for class_id in class_ids
    )
    unsatisfied = [
        ratios[class_id]
        for class_id in class_ids
        if populations[class_id] < problem.classes[class_id].max_consumers
        and math.isfinite(ratios[class_id])
    ]
    return NodeAllocation(
        node_id=node_id,
        populations=populations,
        used=flow_cost + consumer_cost,
        best_unsatisfied_ratio=max(unsatisfied, default=0.0),
        ratios=ratios,
    )


def overload_only_admission(
    problem: Problem, node_id: NodeId, rates: Mapping[FlowId, float]
) -> NodeAllocation:
    """The paper's greedy admission, but reporting ``BC(b,t) = 0`` so the
    node price never tracks consumer value — isolating how much the
    benefit/cost price coupling (key idea 4, section 3) contributes."""
    result = allocate_consumers(problem, node_id, rates)
    return NodeAllocation(
        node_id=result.node_id,
        populations=result.populations,
        used=result.used,
        best_unsatisfied_ratio=0.0,
        ratios=result.ratios,
    )


# ---------------------------------------------------------------------------
# Ablation experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AblationRow:
    label: str
    final_utility: float
    convergence_iteration: int | None
    tail_amplitude: float
    #: Jain's index over per-class admitted fractions — admission ablations
    #: surface the utility/fairness tradeoff explicitly.
    fairness: float


def _run_variant(
    label: str, problem: Problem, config: LRGPConfig, iterations: int
) -> AblationRow:
    optimizer = LRGP(problem, config)
    optimizer.run(iterations)
    return AblationRow(
        label=label,
        final_utility=optimizer.utilities[-1],
        convergence_iteration=iterations_until_convergence(optimizer.utilities),
        tail_amplitude=oscillation_amplitude(optimizer.utilities),
        fairness=admission_fairness(problem, optimizer.allocation()),
    )


def _ablation_table(table_id: str, title: str, rows: list[AblationRow]) -> TableResult:
    return TableResult(
        table_id=table_id,
        title=title,
        columns=(
            "variant", "final utility", "conv. iter", "tail amplitude",
            "fairness",
        ),
        rows=tuple(
            (
                row.label,
                format_number(row.final_utility),
                str(row.convergence_iteration)
                if row.convergence_iteration is not None
                else ">max",
                f"{row.tail_amplitude:.5f}",
                f"{row.fairness:.3f}",
            )
            for row in rows
        ),
    )


def ablation_node_price(
    iterations: int = DEFAULT_ITERATIONS, shape: str = "log"
) -> TableResult:
    """Ablation A: what the damped benefit/cost node price buys."""
    problem = base_workload(shape)
    rows = [
        _run_variant("damped BC (adaptive gamma)", problem, LRGPConfig.adaptive(), iterations),
        _run_variant("damped BC (gamma=0.1)", problem, LRGPConfig.fixed(0.1), iterations),
        _run_variant("raw BC (gamma=1)", problem, LRGPConfig.fixed(1.0), iterations),
        _run_variant(
            "overload-only price",
            problem,
            LRGPConfig(admission=overload_only_admission),
            iterations,
        ),
    ]
    return _ablation_table(
        "Ablation A",
        "Node price determination (section 3.3 design choices)",
        rows,
    )


def ablation_admission(
    iterations: int = DEFAULT_ITERATIONS, shape: str = "log", seed: int = 0
) -> TableResult:
    """Ablation B: greedy benefit/cost admission vs value-blind fills."""
    problem = base_workload(shape)
    rows = [
        _run_variant("greedy benefit/cost (paper)", problem, LRGPConfig.adaptive(), iterations),
        _run_variant(
            "FIFO (class-id order)",
            problem,
            LRGPConfig(admission=fifo_admission),
            iterations,
        ),
        _run_variant(
            "random order",
            problem,
            LRGPConfig(admission=make_random_admission(seed)),
            iterations,
        ),
        _run_variant(
            "proportional fair-share",
            problem,
            LRGPConfig(admission=proportional_admission),
            iterations,
        ),
    ]
    return _ablation_table(
        "Ablation B",
        "Consumer admission strategy (section 3.2 design choice)",
        rows,
    )


def ablation_asynchrony(
    duration: float = 250.0, shape: str = "log", seed: int = 0
) -> TableResult:
    """Ablation C: robustness of the asynchronous deployment.

    Compares the synchronous utility against async runs with increasing
    latency, loss and different price-averaging windows.  Utilities are
    trailing means over the last 20 samples.
    """
    problem = base_workload(shape)
    sync = LRGP(problem, LRGPConfig.adaptive())
    sync.run(int(duration))
    rows: list[tuple[str, ...]] = [
        (
            "synchronous",
            format_number(sync.utilities[-1]),
            str(iterations_until_convergence(sync.utilities) or ">max"),
        )
    ]
    variants = [
        ("async: low latency, window=3", AsyncConfig(latency_mean=0.1, seed=seed)),
        ("async: high latency, window=3", AsyncConfig(latency_mean=0.8, seed=seed)),
        (
            "async: high latency, window=1",
            AsyncConfig(latency_mean=0.8, averaging_window=1, seed=seed),
        ),
        (
            "async: 10% loss, window=3",
            AsyncConfig(latency_mean=0.25, loss_probability=0.1, seed=seed),
        ),
        (
            "async: 30% loss, window=3",
            AsyncConfig(latency_mean=0.25, loss_probability=0.3, seed=seed),
        ),
    ]
    for label, config in variants:
        runtime = AsynchronousRuntime(problem, config)
        runtime.run_until(duration)
        utilities = runtime.utilities()
        converged = iterations_until_convergence(utilities)
        rows.append(
            (
                label,
                format_number(runtime.converged_utility()),
                str(converged) if converged is not None else ">max",
            )
        )
    return TableResult(
        table_id="Ablation C",
        title="Synchronous vs asynchronous LRGP (section 3.5)",
        columns=("variant", "utility (tail mean)", "stable by"),
        rows=tuple(rows),
        notes="async time unit ~ one activation period ~ one sync iteration",
    )
