"""Resource metering: measuring what the constraint equations predict.

The paper's cost model (section 2.3) was validated on the Gryphon system;
we substitute a metered discrete-event simulator.  Brokers charge the meter
per message:

* ``F_{b,i}`` units at node ``b`` per message of flow ``i`` (routing,
  transformation);
* ``G_{b,j}`` units at node ``b`` per message delivered to each admitted
  consumer of class ``j``;
* ``L_{l,i}`` units on link ``l`` per message of flow ``i`` crossing it.

Dividing accumulated charge by elapsed time gives the *measured* resource
rate, which :func:`repro.events.metering.compare_with_model` checks against
the eq. 4/5 left-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.utility.tolerance import is_zero

from repro.model.allocation import Allocation, link_usage, node_usage
from repro.model.entities import LinkId, NodeId
from repro.model.problem import Problem

if TYPE_CHECKING:  # optional telemetry; obs never imports events
    from repro.obs.registry import MetricsRegistry


class ResourceMeter:
    """Accumulates per-node and per-link resource charges over time.

    Pass a :class:`~repro.obs.MetricsRegistry` to mirror every charge into
    cumulative counters (``sim.charge.node.<id>`` /
    ``sim.charge.link.<id>``) so a metrics snapshot shows measured
    consumption alongside the optimizer's own figures.  Unlike the
    windowed rates, the mirrored counters are never reset — counters only
    go up.
    """

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        self._node_charge: dict[NodeId, float] = {}
        self._link_charge: dict[LinkId, float] = {}
        self._window_start = 0.0
        self._registry = registry

    def charge_node(self, node_id: NodeId, amount: float) -> None:
        if amount < 0.0:
            raise ValueError(f"charge must be non-negative, got {amount}")
        self._node_charge[node_id] = self._node_charge.get(node_id, 0.0) + amount
        if self._registry is not None:
            self._registry.counter(f"sim.charge.node.{node_id}").inc(amount)

    def charge_link(self, link_id: LinkId, amount: float) -> None:
        if amount < 0.0:
            raise ValueError(f"charge must be non-negative, got {amount}")
        self._link_charge[link_id] = self._link_charge.get(link_id, 0.0) + amount
        if self._registry is not None:
            self._registry.counter(f"sim.charge.link.{link_id}").inc(amount)

    def reset(self, now: float) -> None:
        """Start a fresh measurement window at time ``now``."""
        self._node_charge.clear()
        self._link_charge.clear()
        self._window_start = now

    def node_rate(self, node_id: NodeId, now: float) -> float:
        """Measured resource rate at a node over the current window."""
        elapsed = now - self._window_start
        if elapsed <= 0.0:
            return 0.0
        return self._node_charge.get(node_id, 0.0) / elapsed

    def link_rate(self, link_id: LinkId, now: float) -> float:
        elapsed = now - self._window_start
        if elapsed <= 0.0:
            return 0.0
        return self._link_charge.get(link_id, 0.0) / elapsed

    def link_rates(self, now: float) -> dict[LinkId, float]:
        return {link_id: self.link_rate(link_id, now) for link_id in self._link_charge}


@dataclass(frozen=True)
class ModelComparison:
    """Measured vs. predicted resource rates for one resource."""

    resource: str
    measured: float
    predicted: float

    @property
    def relative_error(self) -> float:
        if is_zero(self.predicted):
            return 0.0 if is_zero(self.measured) else float("inf")
        return abs(self.measured - self.predicted) / self.predicted


def compare_with_model(
    problem: Problem,
    allocation: Allocation,
    meter: ResourceMeter,
    now: float,
) -> list[ModelComparison]:
    """Compare measured rates against the constraint-equation predictions.

    Returns one comparison per consumer node (eq. 5 LHS) and one per link
    that carried traffic (eq. 4 LHS).  With deterministic producers the
    relative error shrinks as ``1/(rate * time)``; with Poisson producers it
    shrinks as the usual ``1/sqrt(count)``.
    """
    comparisons = [
        ModelComparison(
            resource=f"node:{node_id}",
            measured=meter.node_rate(node_id, now),
            predicted=node_usage(problem, allocation, node_id),
        )
        for node_id in problem.consumer_nodes()
    ]
    comparisons.extend(
        ModelComparison(
            resource=f"link:{link_id}",
            measured=meter.link_rate(link_id, now),
            predicted=link_usage(problem, allocation, link_id),
        )
        for link_id in sorted(meter.link_rates(now))
    )
    return comparisons
