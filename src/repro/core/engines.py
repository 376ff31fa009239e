"""Solver engines for the LRGP driver.

PR 3 splits the former monolithic :class:`~repro.core.lrgp.LRGP` into a thin
facade (iteration bookkeeping, records, convergence) and an *engine* that
owns the per-iteration state — rates, populations, price controllers — and
executes one full LRGP iteration:

* ``"reference"`` — :class:`ReferenceEngine`, the original dict-based
  composition of the per-agent algorithms, moved here verbatim.  It remains
  the semantic ground truth: the synchronous runtime is bit-identical to it
  and every other engine is validated against its trajectory.
* ``"vectorized"`` — :class:`repro.core.compiled.VectorizedEngine`, which
  lowers the problem to COO incidence arrays and runs the flow, class and
  link axes as batched numpy ops (imported lazily to keep numpy off the
  import path of the reference driver).

Both engines apply eq. 12 through the same per-node
:class:`~repro.core.prices.NodePriceController` objects, built and carried
across rebinds by :func:`bind_node_controllers`.  :func:`create_engine`
picks one of the two by name; :data:`DEFAULT_ENGINE` names the one every
driver, two-stage run and ``solve()`` uses unless told otherwise.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.prices import LinkPriceController, NodePriceController
from repro.core.rate_allocation import aggregate_flow_price, allocate_rate
from repro.model.allocation import Allocation, link_usage, total_utility
from repro.model.entities import ClassId, FlowId, LinkId, NodeId
from repro.model.problem import Problem
from repro.obs.events import AdmissionEvent, now_ns
from repro.utility.tolerance import close_enough

if TYPE_CHECKING:  # circular: lrgp imports this module to build its engine
    from repro.core.lrgp import LRGPConfig

#: The engine an unspecified ``engine=`` runs.
DEFAULT_ENGINE = "reference"


@dataclass(frozen=True)
class StepOutcome:
    """What one engine iteration produced, for the facade's bookkeeping.

    ``slack`` maps ``node:<id>`` / ``link:<id>`` to remaining constraint
    headroom (eq. 4/5 capacity minus usage, negative when violated); it is
    populated only when the config records snapshots.
    """

    utility: float
    slack: dict[str, float] = field(default_factory=dict)


class LRGPEngine(ABC):
    """One iteration-execution strategy for the LRGP driver.

    An engine owns the mutable optimizer state (rates, populations, node and
    link prices with their gamma schedules) and knows how to (re)bind it to a
    problem and how to advance it by one full LRGP iteration.  The facade
    (:class:`repro.core.lrgp.LRGP`) owns everything iteration-count shaped:
    utilities, records, convergence, events.
    """

    #: Name of the engine, as passed to :func:`create_engine`.
    name: str = "abstract"

    @property
    @abstractmethod
    def problem(self) -> Problem:
        """The problem the engine is currently bound to."""

    @abstractmethod
    def bind(self, problem: Problem, preserve_state: bool) -> None:
        """(Re)bind to ``problem``.

        With ``preserve_state`` the engine keeps prices/populations/rates of
        entities that persist across the change (same id, capacity unchanged
        within tolerance) and starts the rest fresh (price 0, minimum rate,
        nobody admitted), exactly like the original driver's
        reconfiguration path (figure 3).
        """

    @abstractmethod
    def step(self) -> StepOutcome:
        """Execute one full LRGP iteration (rates, admission, prices)."""

    @abstractmethod
    def rates(self) -> dict[FlowId, float]:
        """Current per-flow rates (a fresh dict)."""

    @abstractmethod
    def populations(self) -> dict[ClassId, int]:
        """Current per-class admitted populations (a fresh dict)."""

    @abstractmethod
    def node_prices(self) -> dict[NodeId, float]:
        """Current node prices (consumer nodes only)."""

    @abstractmethod
    def link_prices(self) -> dict[LinkId, float]:
        """Current link prices (finite-capacity links only)."""

    @abstractmethod
    def node_gammas(self) -> dict[NodeId, float]:
        """The step size each node's next price update would apply."""

    def allocation(self) -> Allocation:
        """The current (rates, populations) solution."""
        return Allocation(rates=self.rates(), populations=self.populations())


def bind_node_controllers(
    problem: Problem,
    config: "LRGPConfig",
    previous: Mapping[NodeId, NodePriceController],
) -> dict[NodeId, NodePriceController]:
    """One eq. 12 controller per consumer node, in ``consumer_nodes()`` order.

    A controller in ``previous`` carries over, price and step-size state
    included, when its node persists with an unchanged capacity (figure 3);
    every other node starts at price 0 with its own clone of
    ``config.node_gamma``.  With telemetry enabled each controller gets a
    fresh node probe.
    """
    controllers: dict[NodeId, NodePriceController] = {}
    for node_id in problem.consumer_nodes():
        capacity = problem.nodes[node_id].capacity
        existing = previous.get(node_id)
        if existing is not None and close_enough(existing.capacity, capacity):
            controllers[node_id] = existing
        else:
            controllers[node_id] = NodePriceController(
                capacity=capacity, gamma=config.node_gamma.clone()
            )
    telemetry = config.telemetry
    if telemetry.enabled:
        for node_id, controller in controllers.items():
            probe = telemetry.probe("node", node_id)
            if probe is not None:
                controller.attach_probe(probe)
    return controllers


class ReferenceEngine(LRGPEngine):
    """The original dict-based LRGP iteration (sections 3.1-3.4).

    A direct, centralized composition of the per-agent algorithms: rate
    allocation via :func:`~repro.core.rate_allocation.allocate_rate` per
    flow, the configured admission strategy per consumer node, then the
    eq. 12 / eq. 13 price controllers.  Deliberately unoptimized — this is
    the implementation every other engine must match.
    """

    name = "reference"

    def __init__(self, problem: Problem, config: "LRGPConfig") -> None:
        self._config = config
        self._problem: Problem = problem
        self._rates: dict[FlowId, float] = {}
        self._populations: dict[ClassId, int] = {}
        self._node_controllers: dict[NodeId, NodePriceController] = {}
        self._link_controllers: dict[LinkId, LinkPriceController] = {}
        self.bind(problem, preserve_state=False)

    @property
    def problem(self) -> Problem:
        return self._problem

    def rates(self) -> dict[FlowId, float]:
        return dict(self._rates)

    def populations(self) -> dict[ClassId, int]:
        return dict(self._populations)

    def node_prices(self) -> dict[NodeId, float]:
        return {n: c.price for n, c in self._node_controllers.items()}

    def link_prices(self) -> dict[LinkId, float]:
        return {link_id: c.price for link_id, c in self._link_controllers.items()}

    def node_gammas(self) -> dict[NodeId, float]:
        return {n: c.gamma for n, c in self._node_controllers.items()}

    def bind(self, problem: Problem, preserve_state: bool) -> None:
        old_rates = self._rates if preserve_state else {}
        old_populations = self._populations if preserve_state else {}
        old_nodes = self._node_controllers if preserve_state else {}
        old_links = self._link_controllers if preserve_state else {}

        self._problem = problem
        self._rates = {
            flow_id: old_rates.get(flow_id, flow.rate_min)
            for flow_id, flow in problem.flows.items()
        }
        self._populations = {
            class_id: old_populations.get(class_id, 0) for class_id in problem.classes
        }
        self._node_controllers = bind_node_controllers(problem, self._config, old_nodes)
        self._link_controllers = {}
        for link_id, link in problem.links.items():
            if math.isinf(link.capacity):
                continue
            existing = old_links.get(link_id)
            if existing is not None and close_enough(existing.capacity, link.capacity):
                self._link_controllers[link_id] = existing
            else:
                self._link_controllers[link_id] = LinkPriceController(
                    capacity=link.capacity, gamma=self._config.link_gamma
                )

        telemetry = self._config.telemetry
        if telemetry.enabled:
            for link_id, link_controller in self._link_controllers.items():
                probe = telemetry.probe("link", link_id)
                if probe is not None:
                    link_controller.attach_probe(probe)

    def step(self) -> StepOutcome:
        problem = self._problem
        telemetry = self._config.telemetry
        profiler = telemetry.profiler
        snapshots = self._config.record_snapshots
        node_prices = self.node_prices()
        link_prices = self.link_prices()
        slack: dict[str, float] = {}

        with profiler.phase("iteration"):
            # 1. Rate allocation at each source (Algorithm 1), using last
            #    iteration's populations and prices.
            with profiler.phase("argmax"):
                for flow_id in problem.flows:
                    price = aggregate_flow_price(
                        problem, flow_id, self._populations, node_prices, link_prices
                    )
                    self._rates[flow_id] = allocate_rate(
                        problem, flow_id, self._populations, price
                    )

            # 2. Consumer allocation at each node (Algorithm 2, step 2 —
            #    greedy by default), then 3a. node price update (eq. 12).
            #    Profiler phases sit *inside* the per-node loop so the
            #    admission/price-update event interleaving (one pair per
            #    node) is untouched — replay depends on capture order.
            for node_id in problem.consumer_nodes():
                with profiler.phase("admission"):
                    result = self._config.admission(problem, node_id, self._rates)
                    self._populations.update(result.populations)
                controller = self._node_controllers[node_id]
                # The adaptive γ observation runs inside update(), so
                # gamma_step cost folds into this phase.
                with profiler.phase("price_update"):
                    controller.update(
                        benefit_cost=result.best_unsatisfied_ratio,
                        used=result.used,
                    )
                if snapshots:
                    slack[f"node:{node_id}"] = controller.capacity - result.used
                if telemetry.enabled:
                    telemetry.emit(
                        AdmissionEvent(
                            node=node_id,
                            admitted=dict(result.populations),
                            used=result.used,
                            capacity=controller.capacity,
                            best_ratio=result.best_unsatisfied_ratio,
                            t_ns=now_ns(),
                        )
                    )

            # 3b. Link price update (Algorithm 3 / eq. 13).
            with profiler.phase("price_update"):
                if self._link_controllers:
                    allocation = self.allocation()
                    for link_id, link_controller in self._link_controllers.items():
                        usage = link_usage(problem, allocation, link_id)
                        link_controller.update(usage)
                        if snapshots:
                            slack[f"link:{link_id}"] = (
                                link_controller.capacity - usage
                            )

            utility = total_utility(problem, self.allocation())

        return StepOutcome(utility=utility, slack=slack)


def available_engines() -> tuple[str, ...]:
    """The engine names :func:`create_engine` accepts."""
    return ("reference", "vectorized")


def create_engine(name: str, problem: Problem, config: "LRGPConfig") -> LRGPEngine:
    """Instantiate the engine called ``name``.

    Raises ``ValueError`` naming the available engines when ``name`` is
    unknown, so a typo in ``engine=`` fails loudly at construction rather
    than mid-run.
    """
    if name == "reference":
        return ReferenceEngine(problem, config)
    if name == "vectorized":
        # Imported here so that importing repro.core.lrgp never imports numpy.
        from repro.core.compiled import VectorizedEngine

        return VectorizedEngine(problem, config)
    raise ValueError(
        f"unknown engine {name!r}; available: {', '.join(available_engines())}"
    )
