"""Distributed deployment of multirate LRGP.

The multirate extension (:mod:`repro.core.multirate`) adds exactly one
message to the paper's protocol: a **demand update** — each node advertises,
per flow, the delivery rate it would locally prefer at its current price
and populations.  Sources turn the advertised demands into a rate *cap*
(maximizing total priced surplus) and announce it; nodes then thin to
``min(cap, own demand)`` and run the ordinary greedy admission and price
update at their local rates.

The synchronous runtime here is bit-identical to the centralized
:class:`~repro.core.multirate.MultirateLRGP` driver (asserted by
integration tests), mirroring the relationship between
:class:`~repro.runtime.synchronous.SynchronousRuntime` and the reference
:class:`~repro.core.lrgp.LRGP`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.gamma import AdaptiveGamma, GammaSchedule
from repro.core.consumer_allocation import allocate_consumers
from repro.core.multirate import (
    MultirateAllocation,
    multirate_total_utility,
    node_demand,
    source_cap,
)
from repro.core.prices import NodePriceController
from repro.model.entities import ClassId, FlowId, NodeId
from repro.model.problem import Problem
from repro.runtime.agents import (
    Agent,
    LinkAgent,
    link_address,
    merge_populations,
    node_address,
    source_address,
)
from repro.runtime.messages import (
    LinkPriceUpdate,
    Message,
    NodePriceUpdate,
    PopulationUpdate,
    RateUpdate,
)


@dataclass(frozen=True)
class DemandUpdate(Message):
    """A node advertises its locally preferred delivery rate for a flow."""

    node_id: NodeId = ""
    flow_id: FlowId = ""
    demand: float = 0.0


class MultirateSourceAgent(Agent):
    """Computes the flow's rate *cap* from the nodes' advertised demands."""

    def __init__(self, problem: Problem, flow_id: FlowId) -> None:
        super().__init__(source_address(flow_id))
        self._problem = problem
        self._flow_id = flow_id
        self._demands: dict[NodeId, float] = {}
        self._node_prices: dict[NodeId, float] = {}
        self._link_prices: dict[str, float] = {}
        self._populations: dict[ClassId, int] = {
            class_id: 0 for class_id in problem.classes_of_flow(flow_id)
        }
        self.rate = problem.flows[flow_id].rate_min

    @property
    def flow_id(self) -> FlowId:
        return self._flow_id

    def receive(self, message: Message) -> None:
        if isinstance(message, DemandUpdate):
            self._demands[message.node_id] = message.demand
        elif isinstance(message, NodePriceUpdate):
            self._node_prices[message.node_id] = message.price
        elif isinstance(message, LinkPriceUpdate):
            self._link_prices[message.link_id] = message.price
        elif isinstance(message, PopulationUpdate):
            for class_id, population in message.populations.items():
                if class_id in self._populations:
                    self._populations[class_id] = population
        else:
            raise TypeError(
                f"multirate source got unexpected {type(message).__name__}"
            )

    def act(self, stamp: float) -> list[Message]:
        problem = self._problem
        route = problem.route(self._flow_id)
        link_price = sum(
            problem.costs.link(link_id, self._flow_id)
            * self._link_prices.get(link_id, 0.0)
            for link_id in route.links
        )
        self.rate = source_cap(
            problem,
            self._flow_id,
            self._demands,
            self._populations,
            self._node_prices,
            link_price,
        )
        messages: list[Message] = []
        for node_id in route.nodes:
            if node_id in problem.consumer_nodes():
                messages.append(
                    RateUpdate(
                        sender=self.address,
                        recipient=node_address(node_id),
                        stamp=stamp,
                        flow_id=self._flow_id,
                        rate=self.rate,
                    )
                )
        for link_id in route.links:
            if not math.isinf(problem.links[link_id].capacity):
                messages.append(
                    RateUpdate(
                        sender=self.address,
                        recipient=link_address(link_id),
                        stamp=stamp,
                        flow_id=self._flow_id,
                        rate=self.rate,
                    )
                )
        return messages

    def snapshot(self) -> dict[str, object]:
        return {
            "rate": self.rate,
            "demands": dict(self._demands),
            "node_prices": dict(self._node_prices),
            "link_prices": dict(self._link_prices),
            "populations": dict(self._populations),
        }

    def restore(self, state: dict[str, object]) -> None:
        rate = state["rate"]
        assert isinstance(rate, float)
        self.rate = rate
        demands = state["demands"]
        assert isinstance(demands, dict)
        self._demands = dict(demands)
        node_prices = state["node_prices"]
        assert isinstance(node_prices, dict)
        self._node_prices = dict(node_prices)
        link_prices = state["link_prices"]
        assert isinstance(link_prices, dict)
        self._link_prices = dict(link_prices)
        populations = state["populations"]
        assert isinstance(populations, dict)
        for class_id, population in populations.items():
            if class_id in self._populations:
                self._populations[class_id] = population


class MultirateNodeAgent(Agent):
    """Thins flows to ``min(cap, own demand)``, allocates, prices, and
    advertises fresh demands."""

    def __init__(
        self,
        problem: Problem,
        node_id: NodeId,
        gamma: GammaSchedule,
    ) -> None:
        super().__init__(node_address(node_id))
        self._problem = problem
        self._node_id = node_id
        self._controller = NodePriceController(
            capacity=problem.nodes[node_id].capacity, gamma=gamma
        )
        self._caps: dict[FlowId, float] = {
            flow_id: problem.flows[flow_id].rate_min
            for flow_id in problem.flows_at_node(node_id)
        }
        self.populations: dict[ClassId, int] = {
            class_id: 0 for class_id in problem.classes_at_node(node_id)
        }
        #: Demands advertised at the end of the previous round, per flow —
        #: the thinning target for the cap arriving this round.
        self._advertised: dict[FlowId, float] = {}
        self.local_rates: dict[FlowId, float] = {}

    @property
    def node_id(self) -> NodeId:
        return self._node_id

    @property
    def price(self) -> float:
        return self._controller.price

    def _hosted_flows(self) -> list[FlowId]:
        return [
            flow_id
            for flow_id in self._problem.flows_at_node(self._node_id)
            if self._problem.classes_of_flow_at_node(flow_id, self._node_id)
        ]

    def initial_feedback(self, stamp: float) -> list[Message]:
        """Bootstrap messages mirroring the centralized driver's initial
        state: zero price, zero populations, demands computed from them."""
        return self._feedback(stamp)

    def receive(self, message: Message) -> None:
        if not isinstance(message, RateUpdate):
            raise TypeError(
                f"multirate node got unexpected {type(message).__name__}"
            )
        if message.flow_id in self._caps:
            self._caps[message.flow_id] = message.rate

    def act(self, stamp: float) -> list[Message]:
        problem = self._problem
        local: dict[FlowId, float] = {}
        for flow_id in problem.flows_at_node(self._node_id):
            demand = self._advertised.get(flow_id)
            cap = self._caps[flow_id]
            local[flow_id] = cap if demand is None else min(cap, demand)
        self.local_rates = local
        result = allocate_consumers(problem, self._node_id, local)
        self.populations = dict(result.populations)
        self._controller.update(
            benefit_cost=result.best_unsatisfied_ratio, used=result.used
        )
        return self._feedback(stamp)

    def _feedback(self, stamp: float) -> list[Message]:
        problem = self._problem
        messages: list[Message] = []
        for flow_id in problem.flows_at_node(self._node_id):
            recipient = source_address(flow_id)
            messages.append(
                NodePriceUpdate(
                    sender=self.address,
                    recipient=recipient,
                    stamp=stamp,
                    node_id=self._node_id,
                    price=self._controller.price,
                )
            )
            class_ids = problem.classes_of_flow_at_node(flow_id, self._node_id)
            if class_ids:
                messages.append(
                    PopulationUpdate(
                        sender=self.address,
                        recipient=recipient,
                        stamp=stamp,
                        node_id=self._node_id,
                        flow_id=flow_id,
                        populations={
                            class_id: self.populations[class_id]
                            for class_id in class_ids
                        },
                    )
                )
                demand = node_demand(
                    problem, self._node_id, flow_id, self.populations,
                    self._controller.price,
                )
                self._advertised[flow_id] = demand
                messages.append(
                    DemandUpdate(
                        sender=self.address,
                        recipient=recipient,
                        stamp=stamp,
                        node_id=self._node_id,
                        flow_id=flow_id,
                        demand=demand,
                    )
                )
        return messages

    def snapshot(self) -> dict[str, object]:
        return {
            "caps": dict(self._caps),
            "populations": dict(self.populations),
            "advertised": dict(self._advertised),
            "local_rates": dict(self.local_rates),
            "controller": self._controller.state_dict(),
        }

    def restore(self, state: dict[str, object]) -> None:
        caps = state["caps"]
        assert isinstance(caps, dict)
        for flow_id, cap in caps.items():
            if flow_id in self._caps:
                self._caps[flow_id] = cap
        populations = state["populations"]
        assert isinstance(populations, dict)
        self.populations = {
            class_id: populations.get(class_id, 0)
            for class_id in self.populations
        }
        advertised = state["advertised"]
        assert isinstance(advertised, dict)
        self._advertised = dict(advertised)
        local_rates = state["local_rates"]
        assert isinstance(local_rates, dict)
        self.local_rates = dict(local_rates)
        controller = state["controller"]
        assert isinstance(controller, dict)
        self._controller.load_state(controller)


class MultirateSynchronousRuntime:
    """Barrier-round deployment of the multirate protocol."""

    def __init__(
        self,
        problem: Problem,
        node_gamma: GammaSchedule | None = None,
        link_gamma: float = 1e-4,
    ) -> None:
        prototype = node_gamma if node_gamma is not None else AdaptiveGamma()
        self._problem = problem
        self._sources = [
            MultirateSourceAgent(problem, flow_id)
            for flow_id in sorted(problem.flows)
        ]
        self._nodes = [
            MultirateNodeAgent(problem, node_id, gamma=prototype.clone())
            for node_id in problem.consumer_nodes()
        ]
        self._links = [
            LinkAgent(problem, link_id, gamma=link_gamma)
            for link_id in problem.bottleneck_links()
        ]
        self._agents: dict[str, Agent] = {
            agent.address: agent
            for agent in [*self._sources, *self._nodes, *self._links]
        }
        self._round = 0
        self.utilities: list[float] = []
        self.messages_sent = 0
        # Bootstrap: nodes advertise their initial prices/populations/
        # demands so round 1's sources see the same state the centralized
        # driver starts from.
        bootstrap: list[Message] = []
        for node in self._nodes:
            bootstrap.extend(node.initial_feedback(stamp=-1.0))
        self._deliver(bootstrap)

    def _deliver(self, messages: list[Message]) -> None:
        for message in messages:
            self._agents[message.recipient].receive(message)
        self.messages_sent += len(messages)

    def step(self) -> float:
        stamp = float(self._round)
        rate_messages: list[Message] = []
        for source in self._sources:
            rate_messages.extend(source.act(stamp))
        self._deliver(rate_messages)
        feedback: list[Message] = []
        for node in self._nodes:
            feedback.extend(node.act(stamp))
        for link in self._links:
            feedback.extend(link.act(stamp))
        self._deliver(feedback)
        self._round += 1
        utility = multirate_total_utility(self._problem, self.allocation())
        self.utilities.append(utility)
        return utility

    def run(self, rounds: int) -> list[float]:
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        return [self.step() for _ in range(rounds)]

    def allocation(self) -> MultirateAllocation:
        source_rates = {source.flow_id: source.rate for source in self._sources}
        local_rates: dict[tuple[NodeId, FlowId], float] = {}
        populations: dict[ClassId, int] = merge_populations(self._nodes)
        for node in self._nodes:
            for flow_id, rate in node.local_rates.items():
                local_rates[(node.node_id, flow_id)] = rate
        return MultirateAllocation(
            source_rates=source_rates,
            local_rates=local_rates,
            populations=populations,
        )

    def node_prices(self) -> dict[NodeId, float]:
        return {node.node_id: node.price for node in self._nodes}
