"""Agents of the distributed LRGP deployment.

Three agent roles, one per algorithm in the paper:

* :class:`SourceAgent` — one per flow, colocated with the flow's source
  node; runs Algorithm 1 (Lagrangian rate allocation).
* :class:`NodeAgent` — one per consumer-hosting node; runs Algorithm 2
  (greedy consumer allocation + node price).
* :class:`LinkAgent` — one per finite-capacity link, hosted by one of the
  link's endpoint nodes (footnote 2); runs Algorithm 3 (link price).

An agent holds only local state plus the last values it *received*; each
activation (:meth:`act`) consumes that state and emits protocol messages.
The engines in :mod:`repro.runtime.synchronous` and
:mod:`repro.runtime.asynchronous` decide when agents activate and how
messages travel.

Sources optionally average the last few received prices per resource, the
asynchrony-tolerance device of Low & Lapsley the paper cites in section 3.5.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable

from repro.core.consumer_allocation import allocate_consumers
from repro.core.gamma import GammaSchedule
from repro.core.prices import LinkPriceController, NodePriceController
from repro.core.rate_allocation import allocate_rate
from repro.model.entities import ClassId, FlowId, LinkId, NodeId
from repro.model.problem import Problem
from repro.obs.causal import ActivationSpan
from repro.obs.events import AgentExchangeEvent, now_ns
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.utility.tolerance import is_zero
from repro.runtime.messages import (
    LinkPriceUpdate,
    Message,
    NodePriceUpdate,
    PopulationUpdate,
    RateUpdate,
)


def source_address(flow_id: FlowId) -> str:
    return f"src:{flow_id}"


def node_address(node_id: NodeId) -> str:
    return f"node:{node_id}"


def link_address(link_id: LinkId) -> str:
    return f"link:{link_id}"


class Agent:
    """Common shape: receive messages, activate, emit messages."""

    #: The role tag used in telemetry events and metric names.
    role = "agent"

    def __init__(self, address: str, telemetry: Telemetry = NULL_TELEMETRY) -> None:
        self.address = address
        self.telemetry = telemetry
        #: Causal span of the *current* activation, set by tracing engines
        #: just before :meth:`act` (see ``repro.obs.causal``); ``None``
        #: when the engine runs without causal tracing.
        self.causal: ActivationSpan | None = None

    def receive(self, message: Message) -> None:
        raise NotImplementedError

    def act(self, stamp: float) -> list[Message]:
        """Run this agent's algorithm once; return the messages to send."""
        raise NotImplementedError

    def snapshot(self) -> dict[str, object]:
        """JSON-ready checkpoint of the agent's mutable protocol state.

        Fault-tolerant runtimes checkpoint agents periodically and hand the
        snapshot back via :meth:`restore` after a crash, so a restarted
        agent resumes from its last checkpoint instead of cold state.
        """
        raise NotImplementedError

    def restore(self, state: dict[str, object]) -> None:
        """Inverse of :meth:`snapshot` (on an agent built with the same
        problem and configuration)."""
        raise NotImplementedError

    def _record_activation(
        self,
        sent: int,
        stamp: float,
        rate: float | None = None,
        price: float | None = None,
        populations: dict[ClassId, int] | None = None,
    ) -> None:
        """Emit one ``agent_exchange`` event (no-op when disabled).

        ``rate``/``price``/``populations`` are the agent's post-activation
        deployed state (the schema-v2 replay payload); ``populations`` is
        passed by reference and copied only on the enabled path, so the
        disabled path stays allocation-free.
        """
        telemetry = self.telemetry
        if telemetry.enabled:
            causal = self.causal
            telemetry.emit(
                AgentExchangeEvent(
                    agent=self.address,
                    role=self.role,
                    sent=sent,
                    stamp=stamp,
                    t_ns=now_ns(),
                    trace_id=causal.trace_id if causal is not None else None,
                    span_id=causal.span_id if causal is not None else None,
                    parent_span_id=(
                        causal.parent_span_id if causal is not None else None
                    ),
                    rate=rate,
                    price=price,
                    populations=(
                        dict(populations) if populations is not None else None
                    ),
                )
            )
            telemetry.registry.counter(f"agents.activations.{self.role}").inc()
            telemetry.registry.counter("agents.messages_sent").inc(sent)


class _Averager:
    """Sliding-window mean of the last ``window`` observations per key."""

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError(f"averaging window must be >= 1, got {window}")
        self._window = window
        self._values: dict[str, deque[float]] = {}

    def observe(self, key: str, value: float) -> None:
        queue = self._values.setdefault(key, deque(maxlen=self._window))
        queue.append(value)

    def mean(self, key: str, default: float = 0.0) -> float:
        queue = self._values.get(key)
        if not queue:
            return default
        return sum(queue) / len(queue)

    @property
    def observed(self) -> bool:
        """Whether *any* observation was ever recorded.

        Distinguishes "no price received yet" from "price is genuinely
        zero" — the distinction behind the cold-start hold in
        :meth:`SourceAgent.act`.
        """
        return any(self._values.values())

    def state_dict(self) -> dict[str, list[float]]:
        return {key: list(queue) for key, queue in self._values.items()}

    def load_state(self, state: dict[str, list[float]]) -> None:
        self._values = {
            key: deque(values, maxlen=self._window)
            for key, values in state.items()
        }


class SourceAgent(Agent):
    """Algorithm 1 at the source node of one flow.

    State: the latest (or window-averaged) node and link prices received
    from the flow's route, and the latest consumer allocations for the
    flow's classes.  Each activation solves the Lagrangian rate subproblem
    and announces the rate to every node and link agent on the route.

    ``assume_zero_prices`` controls the cold-start semantics.  In the
    synchronous protocol the zero initial prices are *shared knowledge*
    (every agent starts the same round-zero state), so treating a missing
    price as 0.0 is exact — that is the default, and it keeps the
    synchronous runtime bit-identical to the reference driver.  In an
    asynchronous deployment a cold-started (or restarted) source has
    simply *not heard* the prices yet — they are whatever the running
    system converged to, not zero — so defaulting them to 0.0 makes the
    path look free and spikes the rate to ``r_max``.  With
    ``assume_zero_prices=False`` the source holds its current rate
    (``r_min`` at cold start, the last deployed rate after a checkpoint
    restore) until the first price update from the route arrives.
    """

    role = "source"

    def __init__(
        self,
        problem: Problem,
        flow_id: FlowId,
        averaging_window: int = 1,
        telemetry: Telemetry = NULL_TELEMETRY,
        assume_zero_prices: bool = True,
    ) -> None:
        super().__init__(source_address(flow_id), telemetry=telemetry)
        self._problem = problem
        self._flow_id = flow_id
        self._assume_zero_prices = assume_zero_prices
        self._node_prices = _Averager(averaging_window)
        self._link_prices = _Averager(averaging_window)
        self._populations: dict[ClassId, int] = {
            class_id: 0 for class_id in problem.classes_of_flow(flow_id)
        }
        self.rate = problem.flows[flow_id].rate_min

    @property
    def flow_id(self) -> FlowId:
        return self._flow_id

    def receive(self, message: Message) -> None:
        if isinstance(message, NodePriceUpdate):
            self._node_prices.observe(message.node_id, message.price)
        elif isinstance(message, LinkPriceUpdate):
            self._link_prices.observe(message.link_id, message.price)
        elif isinstance(message, PopulationUpdate):
            for class_id, population in message.populations.items():
                if class_id in self._populations:
                    self._populations[class_id] = population
        else:
            raise TypeError(f"source agent got unexpected {type(message).__name__}")

    def _awaiting_first_price(self) -> bool:
        """True while holding for a first price in async cold start.

        Only holds when the route actually contains price-announcing
        agents (consumer nodes / finite links); a route without priced
        resources has structurally zero prices and never waits.
        """
        if self._assume_zero_prices:
            return False
        if self._node_prices.observed or self._link_prices.observed:
            return False
        problem = self._problem
        route = problem.route(self._flow_id)
        consumer_nodes = problem.consumer_nodes()
        return any(node_id in consumer_nodes for node_id in route.nodes) or any(
            not math.isinf(problem.links[link_id].capacity)
            for link_id in route.links
        )

    def act(self, stamp: float) -> list[Message]:
        problem = self._problem
        route = problem.route(self._flow_id)
        if self._awaiting_first_price():
            # Cold start in a running system: the path is NOT free, we
            # just have not heard its price yet.  Hold the current rate
            # (r_min, or the checkpointed rate) instead of spiking to
            # r_max, and keep announcing it so resource agents see us.
            return self._announcements(stamp)
        # PL_i + PB_i (eq. 8-9) from received prices.
        price = 0.0
        for link_id in route.links:
            price += problem.costs.link(link_id, self._flow_id) * self._link_prices.mean(
                link_id
            )
        for node_id in route.nodes:
            node_price = self._node_prices.mean(node_id)
            if is_zero(node_price):
                continue
            coefficient = problem.costs.flow_node(node_id, self._flow_id)
            for class_id in problem.classes_of_flow_at_node(self._flow_id, node_id):
                coefficient += (
                    problem.costs.consumer(node_id, class_id)
                    * self._populations[class_id]
                )
            price += coefficient * node_price
        self.rate = allocate_rate(problem, self._flow_id, self._populations, price)
        return self._announcements(stamp)

    def _announcements(self, stamp: float) -> list[Message]:
        """Rate announcements to every priced resource on the route."""
        problem = self._problem
        route = problem.route(self._flow_id)
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
        self._record_activation(len(messages), stamp, rate=self.rate)
        return messages

    def snapshot(self) -> dict[str, object]:
        return {
            "rate": self.rate,
            "node_prices": self._node_prices.state_dict(),
            "link_prices": self._link_prices.state_dict(),
            "populations": dict(self._populations),
        }

    def restore(self, state: dict[str, object]) -> None:
        rate = state["rate"]
        assert isinstance(rate, float)
        self.rate = rate
        node_prices = state["node_prices"]
        assert isinstance(node_prices, dict)
        self._node_prices.load_state(node_prices)
        link_prices = state["link_prices"]
        assert isinstance(link_prices, dict)
        self._link_prices.load_state(link_prices)
        populations = state["populations"]
        assert isinstance(populations, dict)
        for class_id, population in populations.items():
            if class_id in self._populations:
                self._populations[class_id] = population


class NodeAgent(Agent):
    """Algorithm 2 at one consumer-hosting node.

    State: the latest rate of each flow reaching the node.  Each activation
    runs the greedy consumer allocation, updates the node price (eq. 12)
    and announces price + populations to the sources of those flows.
    """

    role = "node"

    def __init__(
        self,
        problem: Problem,
        node_id: NodeId,
        gamma: GammaSchedule,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        super().__init__(node_address(node_id), telemetry=telemetry)
        self._problem = problem
        self._node_id = node_id
        self._rates: dict[FlowId, float] = {
            flow_id: problem.flows[flow_id].rate_min
            for flow_id in problem.flows_at_node(node_id)
        }
        self._controller = NodePriceController(
            capacity=problem.nodes[node_id].capacity, gamma=gamma
        )
        probe = telemetry.probe("node", node_id)
        if probe is not None:
            self._controller.attach_probe(probe)
        self.populations: dict[ClassId, int] = {
            class_id: 0 for class_id in problem.classes_at_node(node_id)
        }

    @property
    def node_id(self) -> NodeId:
        return self._node_id

    @property
    def price(self) -> float:
        return self._controller.price

    def receive(self, message: Message) -> None:
        if not isinstance(message, RateUpdate):
            raise TypeError(f"node agent got unexpected {type(message).__name__}")
        if message.flow_id in self._rates:
            self._rates[message.flow_id] = message.rate

    def act(self, stamp: float) -> list[Message]:
        problem = self._problem
        result = allocate_consumers(problem, self._node_id, self._rates)
        self.populations = dict(result.populations)
        self._controller.update(
            benefit_cost=result.best_unsatisfied_ratio, used=result.used
        )

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
        self._record_activation(
            len(messages),
            stamp,
            price=self._controller.price,
            populations=self.populations,
        )
        return messages

    def snapshot(self) -> dict[str, object]:
        return {
            "rates": dict(self._rates),
            "populations": dict(self.populations),
            "controller": self._controller.state_dict(),
        }

    def restore(self, state: dict[str, object]) -> None:
        rates = state["rates"]
        assert isinstance(rates, dict)
        for flow_id, rate in rates.items():
            if flow_id in self._rates:
                self._rates[flow_id] = rate
        populations = state["populations"]
        assert isinstance(populations, dict)
        self.populations = {
            class_id: populations.get(class_id, 0)
            for class_id in self.populations
        }
        controller = state["controller"]
        assert isinstance(controller, dict)
        self._controller.load_state(controller)


class LinkAgent(Agent):
    """Algorithm 3 on behalf of one finite-capacity link."""

    role = "link"

    def __init__(
        self,
        problem: Problem,
        link_id: LinkId,
        gamma: float,
        telemetry: Telemetry = NULL_TELEMETRY,
    ) -> None:
        super().__init__(link_address(link_id), telemetry=telemetry)
        self._problem = problem
        self._link_id = link_id
        self._rates: dict[FlowId, float] = {
            flow_id: problem.flows[flow_id].rate_min
            for flow_id in problem.flows_on_link(link_id)
        }
        self._controller = LinkPriceController(
            capacity=problem.links[link_id].capacity, gamma=gamma
        )
        probe = telemetry.probe("link", link_id)
        if probe is not None:
            self._controller.attach_probe(probe)

    @property
    def link_id(self) -> LinkId:
        return self._link_id

    @property
    def price(self) -> float:
        return self._controller.price

    def receive(self, message: Message) -> None:
        if not isinstance(message, RateUpdate):
            raise TypeError(f"link agent got unexpected {type(message).__name__}")
        if message.flow_id in self._rates:
            self._rates[message.flow_id] = message.rate

    def act(self, stamp: float) -> list[Message]:
        problem = self._problem
        usage = sum(
            problem.costs.link(self._link_id, flow_id) * rate
            for flow_id, rate in self._rates.items()
        )
        self._controller.update(usage)
        messages: list[Message] = [
            LinkPriceUpdate(
                sender=self.address,
                recipient=source_address(flow_id),
                stamp=stamp,
                link_id=self._link_id,
                price=self._controller.price,
            )
            for flow_id in problem.flows_on_link(self._link_id)
        ]
        self._record_activation(len(messages), stamp, price=self._controller.price)
        return messages

    def snapshot(self) -> dict[str, object]:
        return {
            "rates": dict(self._rates),
            "controller": self._controller.state_dict(),
        }

    def restore(self, state: dict[str, object]) -> None:
        rates = state["rates"]
        assert isinstance(rates, dict)
        for flow_id, rate in rates.items():
            if flow_id in self._rates:
                self._rates[flow_id] = rate
        controller = state["controller"]
        assert isinstance(controller, dict)
        self._controller.load_state(controller)


class PopulationCollisionError(RuntimeError):
    """Two node agents reported consumer populations for the same class.

    Every consumer class lives at exactly one node (section 2.2), so a
    collision means the deployment is malformed — e.g. two agents were
    built for the same node, or a problem mutation re-homed a class while
    stale agents were still reporting.  Merging with ``dict.update`` would
    silently keep whichever agent iterated last; fail loudly instead.
    """


def merge_populations(nodes: Iterable[object]) -> dict[ClassId, int]:
    """Merge per-node population reports into one global mapping.

    ``nodes`` is any iterable of agents exposing ``address`` and
    ``populations`` (:class:`NodeAgent`, :class:`MultirateNodeAgent`).
    Raises :class:`PopulationCollisionError` when two distinct agents
    report the same class.
    """
    merged: dict[ClassId, int] = {}
    owners: dict[ClassId, str] = {}
    for node in nodes:
        address = getattr(node, "address", "<unknown>")
        populations = getattr(node, "populations")
        for class_id, population in populations.items():
            previous = owners.get(class_id)
            if previous is not None and previous != address:
                raise PopulationCollisionError(
                    f"class {class_id!r} reported by both {previous} and "
                    f"{address}; every class has exactly one hosting node"
                )
            owners[class_id] = address
            merged[class_id] = population
    return merged
