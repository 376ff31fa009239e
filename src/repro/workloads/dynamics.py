"""Dynamic scenarios: workload and capacity churn over time.

Section 2.1 frames LRGP as "running all the time, and responding to changes
in workload and system capacity".  A :class:`DynamicScenario` scripts those
changes — flows leaving, capacity shifts — against an optimizer that keeps
iterating, and records the utility trajectory with event markers.  Figure
3's single flow-removal is the simplest instance; the churn scenario
bundled here exercises a whole sequence.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.lrgp import LRGP, LRGPConfig
from repro.model.problem import Problem
from repro.workloads.base import base_workload

#: A mutation takes the current problem and returns the new problem.
Mutation = Callable[[Problem], Problem]


@dataclass(frozen=True)
class ScheduledChange:
    """One scripted system change."""

    iteration: int
    label: str
    mutate: Mutation

    def __post_init__(self) -> None:
        if self.iteration < 1:
            raise ValueError("changes must be scheduled at iteration >= 1")


@dataclass
class DynamicRun:
    """Outcome of driving an optimizer through a scenario."""

    utilities: list[float]
    #: (iteration, label) for each enacted change, in order.
    events: list[tuple[int, str]] = field(default_factory=list)

    def utility_before(self, iteration: int) -> float:
        """Utility at the end of the given 1-based iteration."""
        return self.utilities[iteration - 1]


@dataclass
class DynamicScenario:
    """A scripted sequence of system changes."""

    initial: Problem
    changes: list[ScheduledChange]
    total_iterations: int = 300

    def __post_init__(self) -> None:
        iterations = [change.iteration for change in self.changes]
        if iterations != sorted(iterations):
            raise ValueError("changes must be sorted by iteration")
        if iterations and iterations[-1] > self.total_iterations:
            raise ValueError("a change is scheduled after the run ends")

    def run(self, config: LRGPConfig | None = None) -> DynamicRun:
        """Drive a fresh optimizer through the scenario.

        Each scheduled change is applied *after* its iteration completes,
        mirroring an autonomic system reacting to an external event; prices
        and populations for surviving entities are preserved across changes
        (warm start), which is what makes recovery fast.
        """
        optimizer = LRGP(self.initial, config or LRGPConfig.adaptive())
        run = DynamicRun(utilities=optimizer.utilities)
        pending = list(self.changes)
        for iteration in range(1, self.total_iterations + 1):
            optimizer.step()
            while pending and pending[0].iteration == iteration:
                change = pending.pop(0)
                optimizer.set_problem(change.mutate(optimizer.problem))
                run.events.append((iteration, change.label))
        return run


def churn_scenario(total_iterations: int = 300) -> DynamicScenario:
    """A bundled stress scenario on the base workload:

    * iteration 80: node S1 loses half its capacity (failure / co-tenant);
    * iteration 140: flow f5 (highest-rank classes) leaves — figure 3's
      event, now mid-churn;
    * iteration 200: S1's capacity is restored.
    """
    problem = base_workload()
    s1_capacity = problem.nodes["S1"].capacity
    return DynamicScenario(
        initial=problem,
        changes=[
            ScheduledChange(
                iteration=80,
                label="S1 capacity halved",
                mutate=lambda p: p.with_node_capacity("S1", s1_capacity / 2.0),
            ),
            ScheduledChange(
                iteration=140,
                label="flow f5 leaves",
                mutate=lambda p: p.without_flow("f5"),
            ),
            ScheduledChange(
                iteration=200,
                label="S1 capacity restored",
                mutate=lambda p: p.with_node_capacity("S1", s1_capacity),
            ),
        ],
        total_iterations=total_iterations,
    )
