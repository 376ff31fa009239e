"""Deterministic failure injection for the distributed LRGP deployment.

The paper's asynchronous treatment (sections 3.5, 4.3) argues LRGP
tolerates staleness, loss and churn, but its evaluation only exercises the
mildest case (one flow leaving).  This module supplies the machinery to
test the strong version of the claim: a seeded :class:`FaultPlan`
schedules **agent crashes with restarts**, **network partitions** (healed
after a window) and **message-delay storms** against
:class:`~repro.runtime.asynchronous.AsynchronousRuntime`, which executes
them deterministically alongside the ordinary protocol events.

Crash recovery has two flavours:

* **checkpoint restart** (default) — the runtime checkpoints every live
  agent every :attr:`FaultPlan.checkpoint_interval` time units via
  ``Agent.snapshot()``; a restarted agent resumes from the last checkpoint
  (``Agent.restore()``), i.e. with its converged prices, rates and step
  sizes;
* **cold restart** (``cold=True``) — the agent rejoins with fresh state
  (prices 0, rates ``r_min``), the worst case the recovery-time benchmark
  compares against.

All randomness in plan *generation* flows from one explicit seed
(:meth:`FaultPlan.random`); execution adds no randomness of its own beyond
the runtime's seeded RNG, so a (config, plan) pair pins the entire faulty
trajectory.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any

from repro.model.problem import Problem
from repro.runtime.agents import link_address, node_address, source_address


@dataclass(frozen=True)
class CrashFault:
    """One agent crash, optionally followed by a restart.

    ``restart_after`` is the downtime in simulated time units; ``None``
    means the agent never comes back (permanent failure).  ``cold``
    forces a cold restart even when a checkpoint exists.
    """

    at: float
    address: str
    restart_after: float | None = None
    cold: bool = False

    def __post_init__(self) -> None:
        # Every check is written so that NaN fails it.
        if not self.at >= 0.0:
            raise ValueError(f"crash time must be non-negative, got {self.at}")
        if self.restart_after is not None and not self.restart_after > 0.0:
            raise ValueError(
                f"restart_after must be positive, got {self.restart_after}"
            )


@dataclass(frozen=True)
class PartitionFault:
    """A network partition isolating a group of agents for a window.

    While active, any message crossing the cut — one endpoint in
    ``isolated``, the other outside — is dropped at delivery time (it was
    on a link that no longer exists).  The partition heals at
    ``at + duration``.
    """

    at: float
    duration: float
    isolated: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.at >= 0.0:
            raise ValueError(f"partition time must be non-negative, got {self.at}")
        if not self.duration > 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not self.isolated:
            raise ValueError("a partition must isolate at least one agent")
        object.__setattr__(self, "isolated", frozenset(self.isolated))

    @property
    def target(self) -> str:
        """Stable label for telemetry (``+``-joined sorted addresses)."""
        return "+".join(sorted(self.isolated))


@dataclass(frozen=True)
class DelayStorm:
    """A window during which message latency is multiplied by ``factor``."""

    at: float
    duration: float
    factor: float = 10.0

    def __post_init__(self) -> None:
        if not self.at >= 0.0:
            raise ValueError(f"storm time must be non-negative, got {self.at}")
        if not self.duration > 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not self.factor >= 1.0:
            raise ValueError(
                f"a delay storm slows messages down: factor >= 1, got {self.factor}"
            )


def agent_addresses(problem: Problem) -> tuple[str, ...]:
    """Every agent address the asynchronous runtime deploys for ``problem``
    (sources, consumer-node agents, bottleneck-link agents), sorted."""
    addresses = [source_address(flow_id) for flow_id in sorted(problem.flows)]
    addresses.extend(node_address(node_id) for node_id in problem.consumer_nodes())
    addresses.extend(link_address(link_id) for link_id in problem.bottleneck_links())
    return tuple(sorted(addresses))


@dataclass(frozen=True)
class RandomPlanParams:
    """The parameters of :meth:`FaultPlan.random`, checked when built.

    This is the one set of checks for a random plan: the generator runs
    them, and so does a sweep cell's ``fault_plan`` before any problem
    exists to draw against.  Each check is written so that NaN fails it,
    and the horizon, warmup, rates and means must be finite: the arrival
    loop runs until it passes the horizon.
    """

    horizon: float
    crash_rate: float = 0.01
    mean_downtime: float = 5.0
    cold_probability: float = 0.0
    partition_rate: float = 0.0
    mean_partition: float = 10.0
    storm_rate: float = 0.0
    mean_storm: float = 10.0
    storm_factor: float = 10.0
    warmup: float = 0.0
    checkpoint_interval: float | None = 5.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.warmup < self.horizon < math.inf:
            raise ValueError(
                "need a finite horizon above a non-negative warmup, got "
                f"horizon {self.horizon} and warmup {self.warmup}"
            )
        for name in ("crash_rate", "partition_rate", "storm_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {rate}")
        for name in ("mean_downtime", "mean_partition", "mean_storm"):
            mean = getattr(self, name)
            if not 0.0 < mean < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {mean}")
        if not 0.0 <= self.cold_probability <= 1.0:
            raise ValueError(
                f"cold_probability must be in [0, 1], got {self.cold_probability}"
            )
        if not 1.0 <= self.storm_factor < math.inf:
            raise ValueError(
                f"storm_factor must be finite and >= 1, got {self.storm_factor}"
            )
        FaultPlan(checkpoint_interval=self.checkpoint_interval)  # its own check


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults plus the recovery knobs.

    ``checkpoint_interval`` controls how often the runtime snapshots live
    agents (``None`` disables checkpointing — every restart is cold).
    ``recovery_threshold`` is the fraction of pre-fault utility at which a
    restarted agent counts as *recovered* for the recovery-time metric.
    """

    crashes: tuple[CrashFault, ...] = ()
    partitions: tuple[PartitionFault, ...] = ()
    storms: tuple[DelayStorm, ...] = ()
    checkpoint_interval: float | None = 5.0
    recovery_threshold: float = 0.99

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "storms", tuple(self.storms))
        if self.checkpoint_interval is not None and not self.checkpoint_interval > 0.0:
            raise ValueError(
                f"checkpoint_interval must be positive, got {self.checkpoint_interval}"
            )
        if not 0.0 < self.recovery_threshold <= 1.0:
            raise ValueError(
                f"recovery_threshold must be in (0, 1], got {self.recovery_threshold}"
            )

    def __bool__(self) -> bool:
        return bool(self.crashes or self.partitions or self.storms)

    @property
    def fault_count(self) -> int:
        return len(self.crashes) + len(self.partitions) + len(self.storms)

    def addresses(self) -> frozenset[str]:
        """Every address named anywhere in the plan (for validation)."""
        named: set[str] = {crash.address for crash in self.crashes}
        for partition in self.partitions:
            named.update(partition.isolated)
        return frozenset(named)

    def summary(self) -> dict[str, int | float | None]:
        """Fault counts and checkpoint interval, as chaos reports print them."""
        return {
            "crashes": len(self.crashes),
            "partitions": len(self.partitions),
            "storms": len(self.storms),
            "checkpoint_interval": self.checkpoint_interval,
        }

    @staticmethod
    def random(
        problem: Problem, seed: int, horizon: float, **params: Any
    ) -> "FaultPlan":
        """A seeded random plan against ``problem``'s agent fleet.

        ``params`` are the other fields of :class:`RandomPlanParams`,
        which holds their defaults and checks them.  Fault arrivals are
        Poisson processes over ``(warmup, horizon)``: ``crash_rate`` /
        ``partition_rate`` / ``storm_rate`` are expected events per time
        unit across the whole fleet; downtimes and window lengths are
        exponential with the given means (floored at one tenth of the
        mean so zero-length windows cannot occur).  The same
        ``(problem, seed, ...)`` arguments always produce the same plan —
        there is no entropy-seeded path.
        """
        knobs = RandomPlanParams(horizon=horizon, **params)
        rng = random.Random(seed)
        fleet = agent_addresses(problem)

        def arrivals(rate: float) -> list[float]:
            times: list[float] = []
            now = knobs.warmup
            while rate > 0.0:
                now += rng.expovariate(rate)
                if now >= horizon:
                    break
                times.append(now)
            return times

        def window(mean: float) -> float:
            return max(rng.expovariate(1.0 / mean), mean / 10.0)

        crashes = tuple(
            CrashFault(
                at=at,
                address=rng.choice(fleet),
                restart_after=window(knobs.mean_downtime),
                cold=rng.random() < knobs.cold_probability,
            )
            for at in arrivals(knobs.crash_rate)
        )
        partitions = tuple(
            PartitionFault(
                at=at,
                duration=window(knobs.mean_partition),
                isolated=frozenset({rng.choice(fleet)}),
            )
            for at in arrivals(knobs.partition_rate)
        )
        storms = tuple(
            DelayStorm(
                at=at, duration=window(knobs.mean_storm), factor=knobs.storm_factor
            )
            for at in arrivals(knobs.storm_rate)
        )
        return FaultPlan(
            crashes=crashes,
            partitions=partitions,
            storms=storms,
            checkpoint_interval=knobs.checkpoint_interval,
        )


@dataclass(frozen=True)
class RecoveryRecord:
    """One completed crash-restart-recover cycle, for the recovery metric."""

    address: str
    crashed_at: float
    restarted_at: float
    recovered_at: float
    from_checkpoint: bool

    @property
    def downtime(self) -> float:
        return self.restarted_at - self.crashed_at

    @property
    def recovery_time(self) -> float:
        """Time from restart until global utility re-crossed the
        recovery threshold."""
        return self.recovered_at - self.restarted_at
