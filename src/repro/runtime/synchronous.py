"""Round-based synchronous deployment of the LRGP protocol.

One round = one LRGP iteration, exactly as in the paper's synchronous
formulation (section 3.5): all sources activate and their rate messages are
delivered; then all node and link agents activate and their price/population
messages are delivered.  With instantaneous per-round delivery this engine
reproduces the reference driver (:class:`repro.core.LRGP`) step for step —
an integration test asserts trajectory equality.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.gamma import AdaptiveGamma, GammaSchedule
from repro.model.allocation import Allocation, total_utility
from repro.model.problem import Problem
from repro.obs.causal import CausalContext
from repro.obs.events import IterationEvent, MessageEvent, now_ns
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.runtime.agents import (
    Agent,
    LinkAgent,
    NodeAgent,
    SourceAgent,
    merge_populations,
)
from repro.runtime.messages import Message


class SynchronousRuntime:
    """Executes LRGP as message-passing agents with barrier rounds.

    ``telemetry`` (default: the no-op :data:`~repro.obs.NULL_TELEMETRY`)
    threads through to every agent: rounds emit ``iteration`` events,
    deliveries ``message`` events (``latency=None`` — barrier delivery is
    instantaneous), agents their ``agent_exchange`` / price events.

    When telemetry is enabled the runtime also threads a
    :class:`~repro.obs.causal.CausalContext` through every activation and
    message (schema v2), so captures support ``repro trace causal`` and
    ``repro replay``.  ``trace_id`` names the capture; with telemetry off
    no context object even exists — the no-op path is unchanged.
    """

    def __init__(
        self,
        problem: Problem,
        node_gamma: GammaSchedule | None = None,
        link_gamma: float = 1e-4,
        telemetry: Telemetry = NULL_TELEMETRY,
        trace_id: str | None = None,
    ) -> None:
        prototype = node_gamma if node_gamma is not None else AdaptiveGamma()
        self._problem = problem
        self._telemetry = telemetry
        self._tracer = (
            CausalContext(trace_id or "sync") if telemetry.enabled else None
        )
        self._sources = [
            SourceAgent(problem, flow_id, telemetry=telemetry)
            for flow_id in sorted(problem.flows)
        ]
        self._nodes = [
            NodeAgent(problem, node_id, gamma=prototype.clone(), telemetry=telemetry)
            for node_id in problem.consumer_nodes()
        ]
        self._links = [
            LinkAgent(problem, link_id, gamma=link_gamma, telemetry=telemetry)
            for link_id in problem.bottleneck_links()
        ]
        self._agents: dict[str, Agent] = {
            agent.address: agent
            for agent in [*self._sources, *self._nodes, *self._links]
        }
        self._round = 0
        self.utilities: list[float] = []
        self.messages_sent = 0

    @property
    def problem(self) -> Problem:
        return self._problem

    @property
    def rounds(self) -> int:
        return self._round

    def _activate(self, agent: Agent, stamp: float) -> list[Message]:
        """Run one activation, stamping causal context when tracing."""
        tracer = self._tracer
        if tracer is None:
            return agent.act(stamp)
        agent.causal = tracer.begin_activation(agent.address)
        messages = agent.act(stamp)
        stamped: list[Message] = []
        for message in messages:
            span_id, parent = tracer.message_context(message.sender)
            stamped.append(
                replace(
                    message,
                    trace_id=tracer.trace_id,
                    span_id=span_id,
                    parent_span_id=parent,
                )
            )
        return stamped

    def _deliver(self, messages: list[Message], stamp: float) -> None:
        telemetry = self._telemetry
        tracer = self._tracer
        for message in messages:
            recipient = self._agents.get(message.recipient)
            if recipient is None:
                raise KeyError(f"message addressed to unknown agent {message.recipient}")
            recipient.receive(message)
            if tracer is not None:
                tracer.record_delivery(message.recipient, message.span_id)
            if telemetry.enabled:
                telemetry.emit(
                    MessageEvent(
                        sender=message.sender,
                        recipient=message.recipient,
                        payload=type(message).__name__,
                        t_ns=now_ns(),
                        latency=None,
                        at=stamp,
                        trace_id=message.trace_id,
                        span_id=message.span_id,
                        parent_span_id=message.parent_span_id,
                    )
                )
        self.messages_sent += len(messages)
        telemetry.registry.counter("runtime.sync.messages").inc(len(messages))

    def step(self) -> float:
        """Run one round (= one LRGP iteration); returns the round utility."""
        telemetry = self._telemetry
        profiler = telemetry.profiler
        with profiler.phase("runtime"):
            stamp = float(self._round)
            rate_messages: list[Message] = []
            with profiler.phase("activation"):
                for source in self._sources:
                    rate_messages.extend(self._activate(source, stamp))
            with profiler.phase("delivery"):
                self._deliver(rate_messages, stamp)

            feedback: list[Message] = []
            with profiler.phase("activation"):
                for node in self._nodes:
                    feedback.extend(self._activate(node, stamp))
                for link in self._links:
                    feedback.extend(self._activate(link, stamp))
            with profiler.phase("delivery"):
                self._deliver(feedback, stamp)

            self._round += 1
            utility = total_utility(self._problem, self.allocation())
        self.utilities.append(utility)
        telemetry.registry.counter("runtime.sync.rounds").inc()
        telemetry.registry.gauge("runtime.sync.utility").set(utility)
        if telemetry.enabled:
            telemetry.emit(
                IterationEvent(
                    iteration=self._round,
                    utility=utility,
                    t_ns=now_ns(),
                    at=float(self._round),
                )
            )
        return utility

    def run(self, rounds: int) -> list[float]:
        """Run several rounds; returns their utilities."""
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        return [self.step() for _ in range(rounds)]

    def allocation(self) -> Allocation:
        """Global snapshot assembled from the agents' local states."""
        rates = {source.flow_id: source.rate for source in self._sources}
        return Allocation(
            rates=rates, populations=merge_populations(self._nodes)
        )

    def node_prices(self) -> dict[str, float]:
        return {node.node_id: node.price for node in self._nodes}

    def link_prices(self) -> dict[str, float]:
        return {link.link_id: link.price for link in self._links}
