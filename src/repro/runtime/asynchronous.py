"""Asynchronous deployment of the LRGP protocol.

Section 3.5: the synchronous formulation can be made asynchronous with known
techniques — agents act on their own clocks over possibly stale state, and
sources average over the last few prices from a resource (Low & Lapsley) to
tolerate missing or delayed updates.

This engine is a discrete-event simulation: every agent activates
periodically (with jitter), messages travel with random latency and may be
lost, and sources apply window averaging to received prices.  A global
observer samples the "deployed" state (rates at the sources, populations at
the nodes) on a fixed interval, producing a utility-over-time trajectory
comparable to the synchronous per-iteration one.

Three protocol-hardening layers sit on top of the basic simulation:

* **sequence numbers** — every dispatched message carries a per-sender
  sequence number; a delivery whose sequence is not newer than the last
  one seen on the same (sender, recipient, type) channel is rejected as
  stale, so reordered or retransmitted updates cannot roll state backwards;
* **bounded retry** — with a :class:`~repro.events.reliability.RetryPolicy`,
  rate announcements are acknowledged at delivery and retransmitted (same
  sequence number) after ``timeout`` up to ``max_retries`` times, the same
  machinery :mod:`repro.events.reliability` applies to consumer delivery;
* **failure injection** — a :class:`~repro.runtime.faults.FaultPlan`
  schedules agent crashes/restarts, network partitions and delay storms;
  the runtime checkpoints live agents periodically so a restarted agent
  resumes from its last checkpoint (see :mod:`repro.runtime.faults`).

All randomness flows from one seeded :class:`random.Random`, so runs are
reproducible — including faulty ones.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.core.gamma import AdaptiveGamma, GammaSchedule
from repro.events.reliability import RetryPolicy
from repro.model.allocation import Allocation, total_utility
from repro.model.problem import Problem
from repro.obs.causal import CausalContext
from repro.obs.events import (
    AgentRestartedEvent,
    FaultInjectedEvent,
    IterationEvent,
    MessageEvent,
    now_ns,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.runtime.agents import (
    Agent,
    LinkAgent,
    NodeAgent,
    SourceAgent,
    merge_populations,
)
from repro.runtime.faults import CrashFault, FaultPlan, RecoveryRecord
from repro.runtime.messages import Message, RateUpdate

#: Profiler phase for each event kind; the ``fault_*`` family falls through
#: to the ``"faults"`` default.
_PHASE_OF_KIND = {
    "activate": "activation",
    "deliver": "delivery",
    "ack_check": "retransmit",
    "sample": "sample",
    "checkpoint": "checkpoint",
}


@dataclass(frozen=True)
class AsyncConfig:
    """Timing, reliability and staleness-tolerance knobs.

    Times are in abstract units; one synchronous iteration corresponds
    roughly to one ``activation_period`` (the paper equates iteration time
    with the maximum round-trip time, section 4.3).
    """

    activation_period: float = 1.0
    #: Relative jitter on each agent's activation period (uniform +-).
    period_jitter: float = 0.2
    #: Mean one-way message latency.
    latency_mean: float = 0.25
    #: Relative jitter on latency (uniform +-).
    latency_jitter: float = 0.5
    #: Probability that any message is silently dropped.
    loss_probability: float = 0.0
    #: Number of recent prices a source averages per resource (1 = latest).
    averaging_window: int = 3
    #: Interval at which the observer samples global utility.
    sample_interval: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.activation_period <= 0.0:
            raise ValueError("activation_period must be positive")
        if not 0.0 <= self.period_jitter < 1.0:
            raise ValueError("period_jitter must be in [0, 1)")
        if self.latency_mean < 0.0:
            raise ValueError("latency_mean must be non-negative")
        if not 0.0 <= self.latency_jitter <= 1.0:
            raise ValueError("latency_jitter must be in [0, 1]")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        if self.averaging_window < 1:
            raise ValueError("averaging_window must be >= 1")
        if self.sample_interval <= 0.0:
            raise ValueError("sample_interval must be positive")


class _Recovering:
    """Book-keeping for one crash awaiting utility recovery."""

    __slots__ = ("crashed_at", "pre_utility", "restarted_at", "from_checkpoint")

    def __init__(self, crashed_at: float, pre_utility: float) -> None:
        self.crashed_at = crashed_at
        self.pre_utility = pre_utility
        self.restarted_at: float | None = None
        self.from_checkpoint = False


class AsynchronousRuntime:
    """Discrete-event asynchronous execution of the LRGP agents.

    ``fault_plan`` injects the scheduled crashes/partitions/storms (see
    :mod:`repro.runtime.faults`); ``retry`` enables acknowledged delivery
    with bounded retransmission for rate announcements.  Both default to
    off, leaving the plain lossy-asynchronous behaviour.

    Sources here run with ``assume_zero_prices=False``: a source that has
    not yet heard a price holds its current rate instead of treating the
    route as free and spiking to ``r_max`` (the synchronous runtime keeps
    the exact zero-initial-price semantics; see
    :class:`~repro.runtime.agents.SourceAgent`).
    """

    def __init__(
        self,
        problem: Problem,
        config: AsyncConfig | None = None,
        node_gamma: GammaSchedule | None = None,
        link_gamma: float = 1e-4,
        telemetry: Telemetry = NULL_TELEMETRY,
        fault_plan: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
        trace_id: str | None = None,
    ) -> None:
        self._problem = problem
        self._config = config or AsyncConfig()
        self._rng = random.Random(self._config.seed)
        self._telemetry = telemetry
        # Causal tracing (schema v2): span ids are allocated sequentially
        # in event order, which the seeded simulation makes deterministic.
        # No context object exists at all when telemetry is off.
        self._tracer = (
            CausalContext(trace_id or f"async-{self._config.seed}")
            if telemetry.enabled
            else None
        )
        self._plan = fault_plan
        self._retry = retry
        prototype = node_gamma if node_gamma is not None else AdaptiveGamma()

        # Factories rebuild an agent with cold state after a crash; a
        # checkpoint (if any) is then layered on via Agent.restore().
        self._factories: dict[str, Callable[[], Agent]] = {}

        def source_factory(flow_id: str) -> Callable[[], Agent]:
            return lambda: SourceAgent(
                problem,
                flow_id,
                averaging_window=self._config.averaging_window,
                telemetry=telemetry,
                assume_zero_prices=False,
            )

        def node_factory(node_id: str) -> Callable[[], Agent]:
            return lambda: NodeAgent(
                problem, node_id, gamma=prototype.clone(), telemetry=telemetry
            )

        def link_factory(link_id: str) -> Callable[[], Agent]:
            return lambda: LinkAgent(
                problem, link_id, gamma=link_gamma, telemetry=telemetry
            )

        self._sources: list[SourceAgent] = []
        for flow_id in sorted(problem.flows):
            factory = source_factory(flow_id)
            agent = factory()
            assert isinstance(agent, SourceAgent)
            self._factories[agent.address] = factory
            self._sources.append(agent)
        self._nodes: list[NodeAgent] = []
        for node_id in problem.consumer_nodes():
            factory = node_factory(node_id)
            agent = factory()
            assert isinstance(agent, NodeAgent)
            self._factories[agent.address] = factory
            self._nodes.append(agent)
        self._links: list[LinkAgent] = []
        for link_id in problem.bottleneck_links():
            factory = link_factory(link_id)
            agent = factory()
            assert isinstance(agent, LinkAgent)
            self._factories[agent.address] = factory
            self._links.append(agent)
        self._agents: dict[str, Agent] = {
            agent.address: agent
            for agent in [*self._sources, *self._nodes, *self._links]
        }

        self._queue: list[tuple[float, int, str, object]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self.samples: list[tuple[float, float]] = []
        self.messages_sent = 0
        self.messages_lost = 0
        #: Sequenced deliveries rejected because a newer update from the
        #: same sender had already been seen on that channel.
        self.messages_stale = 0
        #: Deliveries dropped because the recipient was crashed.
        self.messages_to_down = 0
        #: Deliveries dropped because they crossed an active partition cut.
        self.messages_partitioned = 0
        self.retransmissions = 0
        self.retries_abandoned = 0
        #: Completed crash -> restart -> utility-recovered cycles.
        self.recoveries: list[RecoveryRecord] = []

        #: Per-sender send counters; each dispatched message gets the next.
        self._send_seq: dict[str, int] = {}
        #: Newest sequence seen per (sender, recipient, message type).
        self._last_seen: dict[tuple[str, str, str], int] = {}
        #: Unacknowledged rate announcements, keyed (sender, seq).
        self._pending_acks: dict[tuple[str, int], Message] = {}

        self._down: set[str] = set()
        self._partitions: list[frozenset[str]] = []
        self._storm_factors: list[float] = []
        self._checkpoints: dict[str, dict[str, object]] = {}
        self._recovering: dict[str, _Recovering] = {}

        # Stagger initial activations uniformly across one period so agents
        # do not start in lockstep.
        for agent in self._agents.values():
            offset = self._rng.uniform(0.0, self._config.activation_period)
            self._schedule(offset, "activate", agent.address)
        # Samples live on the absolute grid k * sample_interval.  Scheduling
        # them by repeated ``now + interval`` accumulates float error, so a
        # sample nominally at the end of a run_until() window could land
        # just past it and silently slip into the next call.
        self._schedule(self._config.sample_interval, "sample", 1)

        if fault_plan is not None:
            unknown = fault_plan.addresses() - set(self._agents)
            if unknown:
                raise ValueError(
                    "fault plan names unknown agents: "
                    + ", ".join(sorted(unknown))
                )
            for crash in fault_plan.crashes:
                self._schedule(crash.at, "fault_crash", crash)
                if crash.restart_after is not None:
                    self._schedule(
                        crash.at + crash.restart_after, "fault_restart", crash
                    )
            for partition in fault_plan.partitions:
                self._schedule(partition.at, "fault_partition", partition)
                self._schedule(
                    partition.at + partition.duration, "fault_heal", partition
                )
            for storm in fault_plan.storms:
                self._schedule(storm.at, "fault_storm", storm)
                self._schedule(storm.at + storm.duration, "fault_storm_end", storm)
            if fault_plan.checkpoint_interval is not None:
                self._schedule(fault_plan.checkpoint_interval, "checkpoint", 1)

    # -- event plumbing -----------------------------------------------------

    def _schedule(self, at: float, kind: str, payload: object) -> None:
        heapq.heappush(self._queue, (at, next(self._sequence), kind, payload))

    def _next_period(self) -> float:
        jitter = self._config.period_jitter
        return self._config.activation_period * (
            1.0 + self._rng.uniform(-jitter, jitter)
        )

    def _latency(self) -> float:
        jitter = self._config.latency_jitter
        latency = self._config.latency_mean * (
            1.0 + self._rng.uniform(-jitter, jitter)
        )
        return latency * math.prod(self._storm_factors)

    def _dispatch(self, messages: list[Message]) -> None:
        retry = self._retry
        tracer = self._tracer
        for message in messages:
            seq = self._send_seq.get(message.sender, 0)
            self._send_seq[message.sender] = seq + 1
            if tracer is not None:
                span_id, parent = tracer.message_context(message.sender)
                message = replace(
                    message,
                    seq=seq,
                    trace_id=tracer.trace_id,
                    span_id=span_id,
                    parent_span_id=parent,
                )
            else:
                message = replace(message, seq=seq)
            if retry is not None and isinstance(message, RateUpdate):
                self._pending_acks[(message.sender, seq)] = message
                self._schedule(
                    self._now + retry.timeout, "ack_check", (message, 0)
                )
            self._send(message)

    def _send(self, message: Message) -> None:
        """One transmission attempt (first send or retransmission)."""
        registry = self._telemetry.registry
        self.messages_sent += 1
        registry.counter("runtime.async.messages_sent").inc()
        if self._rng.random() < self._config.loss_probability:
            self.messages_lost += 1
            registry.counter("runtime.async.messages_lost").inc()
            return
        self._schedule(self._now + self._latency(), "deliver", message)

    def _partitioned(self, sender: str, recipient: str) -> bool:
        return any(
            (sender in isolated) != (recipient in isolated)
            for isolated in self._partitions
        )

    def _replace_agent(self, agent: Agent) -> None:
        address = agent.address
        self._agents[address] = agent
        if isinstance(agent, SourceAgent):
            self._sources = [
                agent if existing.address == address else existing
                for existing in self._sources
            ]
        elif isinstance(agent, NodeAgent):
            self._nodes = [
                agent if existing.address == address else existing
                for existing in self._nodes
            ]
        elif isinstance(agent, LinkAgent):
            self._links = [
                agent if existing.address == address else existing
                for existing in self._links
            ]

    def _emit_fault(self, fault: str, target: str) -> None:
        telemetry = self._telemetry
        telemetry.registry.counter("runtime.async.faults").inc()
        if telemetry.enabled:
            telemetry.emit(
                FaultInjectedEvent(
                    fault=fault, target=target, at=self._now, t_ns=now_ns()
                )
            )

    # -- event handlers -----------------------------------------------------

    def _handle_activate(self, address: str) -> None:
        if address in self._down:
            # Crashed: swallow the activation and do not reschedule; the
            # restart event seeds a fresh activation chain.
            return
        agent = self._agents[address]
        if self._tracer is not None:
            agent.causal = self._tracer.begin_activation(address)
        self._dispatch(agent.act(self._now))
        self._schedule(self._now + self._next_period(), "activate", address)

    def _handle_deliver(self, message: Message) -> None:
        telemetry = self._telemetry
        if message.recipient in self._down:
            self.messages_to_down += 1
            telemetry.registry.counter("runtime.async.messages_to_down").inc()
            return
        if self._partitioned(message.sender, message.recipient):
            self.messages_partitioned += 1
            telemetry.registry.counter(
                "runtime.async.messages_partitioned"
            ).inc()
            return
        # The recipient's transport acks a rate announcement on receipt,
        # duplicate or not; the ack itself may be lost.
        if (
            self._retry is not None
            and isinstance(message, RateUpdate)
            and (message.sender, message.seq) in self._pending_acks
            and not self._rng.random() < self._config.loss_probability
        ):
            del self._pending_acks[(message.sender, message.seq)]
        if message.seq >= 0:
            channel = (message.sender, message.recipient, type(message).__name__)
            if message.seq <= self._last_seen.get(channel, -1):
                self.messages_stale += 1
                telemetry.registry.counter("runtime.async.messages_stale").inc()
                return
            self._last_seen[channel] = message.seq
        self._agents[message.recipient].receive(message)
        if self._tracer is not None:
            self._tracer.record_delivery(message.recipient, message.span_id)
        if telemetry.enabled:
            latency = self._now - message.stamp
            telemetry.emit(
                MessageEvent(
                    sender=message.sender,
                    recipient=message.recipient,
                    payload=type(message).__name__,
                    t_ns=now_ns(),
                    latency=latency,
                    at=self._now,
                    trace_id=message.trace_id,
                    span_id=message.span_id,
                    parent_span_id=message.parent_span_id,
                )
            )
            telemetry.registry.histogram("runtime.async.latency").observe(latency)

    def _handle_ack_check(self, message: Message, attempt: int) -> None:
        retry = self._retry
        assert retry is not None
        key = (message.sender, message.seq)
        if key not in self._pending_acks:
            return  # acknowledged
        if attempt >= retry.max_retries or message.sender in self._down:
            del self._pending_acks[key]
            self.retries_abandoned += 1
            self._telemetry.registry.counter(
                "runtime.async.retries_abandoned"
            ).inc()
            return
        self.retransmissions += 1
        self._telemetry.registry.counter("runtime.async.retransmissions").inc()
        self._send(message)
        self._schedule(self._now + retry.timeout, "ack_check", (message, attempt + 1))

    def _handle_sample(self, index: int) -> None:
        utility = self.utility()
        self.samples.append((self._now, utility))
        telemetry = self._telemetry
        telemetry.registry.gauge("runtime.async.utility").set(utility)
        if telemetry.enabled:
            telemetry.emit(
                IterationEvent(
                    iteration=len(self.samples),
                    utility=utility,
                    t_ns=now_ns(),
                    at=self._now,
                )
            )
        self._resolve_recoveries(utility)
        self._schedule(
            (index + 1) * self._config.sample_interval, "sample", index + 1
        )

    def _resolve_recoveries(self, utility: float) -> None:
        if self._plan is None or not self._recovering:
            return
        threshold = self._plan.recovery_threshold
        for address in list(self._recovering):
            info = self._recovering[address]
            if info.restarted_at is None:
                continue
            if utility >= threshold * info.pre_utility:
                record = RecoveryRecord(
                    address=address,
                    crashed_at=info.crashed_at,
                    restarted_at=info.restarted_at,
                    recovered_at=self._now,
                    from_checkpoint=info.from_checkpoint,
                )
                self.recoveries.append(record)
                self._telemetry.registry.histogram(
                    "runtime.async.recovery_time"
                ).observe(record.recovery_time)
                del self._recovering[address]

    def _handle_crash(self, crash: CrashFault) -> None:
        if crash.address in self._down:
            return
        # Utility just before the failure: the recovery baseline.
        pre_utility = self.utility()
        self._down.add(crash.address)
        self._recovering[crash.address] = _Recovering(
            crashed_at=self._now, pre_utility=pre_utility
        )
        self._emit_fault("crash", crash.address)

    def _handle_restart(self, crash: CrashFault) -> None:
        address = crash.address
        if address not in self._down:
            return
        self._down.discard(address)
        checkpoint = None if crash.cold else self._checkpoints.get(address)
        agent = self._factories[address]()
        if checkpoint is not None:
            agent.restore(checkpoint)
        self._replace_agent(agent)
        info = self._recovering.get(address)
        if info is not None:
            info.restarted_at = self._now
            info.from_checkpoint = checkpoint is not None
        telemetry = self._telemetry
        telemetry.registry.counter("runtime.async.restarts").inc()
        if telemetry.enabled:
            # The restored state comes from a checkpoint (or cold init)
            # that never appears in the event stream, so the restart event
            # must carry it — otherwise a trace replay loses track of the
            # agent's deployed state across the crash.
            rate = agent.rate if isinstance(agent, SourceAgent) else None
            price: float | None = None
            populations: dict[str, int] | None = None
            if isinstance(agent, NodeAgent):
                price = agent.price
                populations = dict(agent.populations)
            elif isinstance(agent, LinkAgent):
                price = agent.price
            telemetry.emit(
                AgentRestartedEvent(
                    agent=address,
                    at=self._now,
                    downtime=self._now - crash.at,
                    from_checkpoint=checkpoint is not None,
                    t_ns=now_ns(),
                    rate=rate,
                    price=price,
                    populations=populations,
                )
            )
        self._schedule(self._now, "activate", address)

    def _handle_checkpoint(self, index: int) -> None:
        assert self._plan is not None and self._plan.checkpoint_interval is not None
        for address, agent in self._agents.items():
            if address not in self._down:
                self._checkpoints[address] = agent.snapshot()
        self._telemetry.registry.counter("runtime.async.checkpoints").inc()
        self._schedule(
            (index + 1) * self._plan.checkpoint_interval, "checkpoint", index + 1
        )

    # -- execution ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    @property
    def down_agents(self) -> frozenset[str]:
        """Addresses currently crashed."""
        return frozenset(self._down)

    def run_until(self, end_time: float) -> None:
        """Process events until the clock passes ``end_time``.

        Events scheduled exactly at ``end_time`` fire in this call (and,
        having been consumed, never again in a later call) — the window is
        half-open on the left: ``(previous end, end_time]``.
        """
        if end_time < self._now:
            raise ValueError(f"end_time {end_time} is in the past (now={self._now})")
        profiler = self._telemetry.profiler
        with profiler.phase("runtime"):
            while self._queue and self._queue[0][0] <= end_time:
                at, _, kind, payload = heapq.heappop(self._queue)
                self._now = at
                with profiler.phase(_PHASE_OF_KIND.get(kind, "faults")):
                    if kind == "activate":
                        assert isinstance(payload, str)
                        self._handle_activate(payload)
                    elif kind == "deliver":
                        assert isinstance(payload, Message)
                        self._handle_deliver(payload)
                    elif kind == "ack_check":
                        assert isinstance(payload, tuple)
                        message, attempt = payload
                        self._handle_ack_check(message, attempt)
                    elif kind == "sample":
                        assert isinstance(payload, int)
                        self._handle_sample(payload)
                    elif kind == "fault_crash":
                        assert isinstance(payload, CrashFault)
                        self._handle_crash(payload)
                    elif kind == "fault_restart":
                        assert isinstance(payload, CrashFault)
                        self._handle_restart(payload)
                    elif kind == "fault_partition":
                        self._partitions.append(payload.isolated)  # type: ignore[attr-defined]
                        self._emit_fault("partition", payload.target)  # type: ignore[attr-defined]
                    elif kind == "fault_heal":
                        self._partitions.remove(payload.isolated)  # type: ignore[attr-defined]
                        self._emit_fault("partition_heal", payload.target)  # type: ignore[attr-defined]
                    elif kind == "fault_storm":
                        self._storm_factors.append(payload.factor)  # type: ignore[attr-defined]
                        self._emit_fault("delay_storm", "*")
                    elif kind == "fault_storm_end":
                        self._storm_factors.remove(payload.factor)  # type: ignore[attr-defined]
                        self._emit_fault("delay_storm_end", "*")
                    elif kind == "checkpoint":
                        assert isinstance(payload, int)
                        self._handle_checkpoint(payload)
                    else:  # pragma: no cover - defensive
                        raise RuntimeError(f"unknown event kind {kind!r}")
        self._now = end_time

    def allocation(self) -> Allocation:
        """Global snapshot of deployed state (may be mutually stale).

        Crashed node agents contribute zero populations — their consumers
        are disconnected while the agent is down.  Crashed sources keep
        their last deployed rate: the data plane keeps forwarding at the
        last configured rate even though the control agent is dead.
        """
        rates = {source.flow_id: source.rate for source in self._sources}
        populations = merge_populations(
            node for node in self._nodes if node.address not in self._down
        )
        for node in self._nodes:
            if node.address in self._down:
                for class_id in node.populations:
                    populations.setdefault(class_id, 0)
        return Allocation(rates=rates, populations=populations)

    def node_prices(self) -> dict[str, float]:
        return {node.node_id: node.price for node in self._nodes}

    def link_prices(self) -> dict[str, float]:
        return {link.link_id: link.price for link in self._links}

    def utility(self) -> float:
        return total_utility(self._problem, self.allocation())

    def utilities(self) -> list[float]:
        """The sampled utility trajectory (one value per sample tick)."""
        return [value for _, value in self.samples]

    def converged_utility(self, tail: int = 20) -> float:
        """Mean utility over the trailing ``tail`` samples."""
        values = self.utilities()[-tail:]
        if not values:
            raise RuntimeError("no samples recorded yet; call run_until first")
        return math.fsum(values) / len(values)

    def message_counters(self) -> dict[str, int]:
        """The message-layer counters, as chaos reports print them."""
        return {
            "messages_sent": self.messages_sent,
            "messages_lost": self.messages_lost,
            "messages_stale": self.messages_stale,
            "messages_to_down": self.messages_to_down,
            "messages_partitioned": self.messages_partitioned,
            "retransmissions": self.retransmissions,
            "retries_abandoned": self.retries_abandoned,
        }


def run_chaos(
    problem: Problem,
    plan: FaultPlan | None,
    *,
    seed: int,
    horizon: float,
    telemetry: Telemetry = NULL_TELEMETRY,
) -> AsynchronousRuntime:
    """Run the chaos deployment under ``plan`` to ``horizon``; return it.

    The deployment is the asynchronous runtime seeded with ``seed``, its
    rate announcements acknowledged under the default
    :class:`~repro.events.reliability.RetryPolicy`.  ``plan=None`` is its
    fault-free twin, the baseline :func:`retention` divides by.
    ``repro chaos``, sweep fault cells and extension E8 all run here.
    """
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    runtime = AsynchronousRuntime(
        problem,
        AsyncConfig(seed=seed),
        telemetry=telemetry,
        fault_plan=plan,
        retry=RetryPolicy(),
    )
    runtime.run_until(horizon)
    return runtime


def retention(
    faulted: AsynchronousRuntime, baseline: AsynchronousRuntime
) -> float | None:
    """Converged utility of a faulted run over its fault-free twin's.

    ``baseline`` is :func:`run_chaos` with ``plan=None`` and the same
    problem, seed and horizon, so the two runs differ only by the faults.
    ``None`` when the twin converges to zero utility.
    """
    reference = baseline.converged_utility()
    return faulted.converged_utility() / reference if reference else None
