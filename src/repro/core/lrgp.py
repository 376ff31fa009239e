"""The synchronous LRGP driver (section 3).

One LRGP iteration is:

1. **Rate allocation** (Algorithm 1) at every flow source, using the prices
   and populations from the previous iteration;
2. **Consumer allocation** (Algorithm 2, step 2) at every consumer node,
   using the fresh rates;
3. **Node price update** (eq. 12) at every consumer node and **link price
   update** (eq. 13) for every link, closing the loop for the next
   iteration.

The driver is a facade over a pluggable *engine*
(:mod:`repro.core.engines`): the engine owns the iteration state and
executes the three phases, the facade owns iteration counting, the utility
trajectory, records/events, and convergence.  ``engine="reference"`` (the
default, :data:`~repro.core.engines.DEFAULT_ENGINE`) is the original
dict-based composition of the per-agent algorithms; ``engine="vectorized"``
runs the same iteration as numpy array ops over a lowered problem
(:mod:`repro.core.compiled`) with a trajectory equivalent within
:data:`repro.utility.tolerance.ENGINE_EQUIVALENCE_RTOL`.  Every price
starts at 0.

The message-passing deployment of the very same steps lives in
:mod:`repro.runtime`; in synchronous mode it produces bit-identical
trajectories to the reference engine (verified by integration tests).

The driver supports runtime reconfiguration (flows leaving/joining,
capacity changes) to reproduce the recovery experiment of figure 3.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.core.consumer_allocation import NodeAllocation, allocate_consumers
from repro.core.convergence import (
    DEFAULT_REL_AMPLITUDE,
    DEFAULT_WINDOW,
    ConvergenceCriterion,
    iterations_until_convergence,
)
from repro.core.engines import DEFAULT_ENGINE, LRGPEngine, create_engine
from repro.core.gamma import AdaptiveGamma, FixedGamma, GammaSchedule
from repro.model.allocation import Allocation
from repro.model.entities import ClassId, FlowId, LinkId, NodeId
from repro.model.problem import Problem
from repro.obs.events import IterationEvent, now_ns
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry


#: Signature of a consumer-admission strategy: given the problem, a node and
#: the current rates, produce that node's :class:`NodeAllocation`.  The
#: default is the paper's greedy benefit/cost fill; the admission ablation
#: (:mod:`repro.experiments.ablations`) substitutes alternatives.
AdmissionStrategy = Callable[[Problem, NodeId, Mapping[FlowId, float]], NodeAllocation]


@dataclass(frozen=True)
class LRGPConfig:
    """Tuning knobs for the driver.

    ``node_gamma`` is a prototype schedule, cloned per node so each node
    adapts independently (section 4.2); both branches of eq. 12 step with
    it.  The default is the paper's adaptive heuristic.  ``link_gamma`` is
    the gradient-projection step size for link prices (only links with
    finite capacity maintain prices).  Node and link prices start at 0.

    The engine is chosen by the ``engine=`` argument of :class:`LRGP`
    (default :data:`repro.core.engines.DEFAULT_ENGINE`), not here.

    ``telemetry`` wires the driver into the observability layer
    (:mod:`repro.obs`): phase spans go to its profiler, counters and
    gauges to its registry, ``iteration`` / ``admission`` /
    ``price_update`` / ``gamma_step`` events to its sink.  The default
    :data:`~repro.obs.NULL_TELEMETRY` keeps the hot path allocation-free.
    """

    node_gamma: GammaSchedule = field(default_factory=AdaptiveGamma)
    link_gamma: float = 1e-4
    record_snapshots: bool = False
    admission: AdmissionStrategy = allocate_consumers
    telemetry: Telemetry = NULL_TELEMETRY

    @staticmethod
    def fixed(gamma: float, **kwargs: Any) -> "LRGPConfig":
        """Config with a fixed node-price step size (figure 1 runs)."""
        return LRGPConfig(node_gamma=FixedGamma(gamma), **kwargs)

    @staticmethod
    def adaptive(**kwargs: Any) -> "LRGPConfig":
        """Config with the adaptive step size (the paper's default)."""
        return LRGPConfig(node_gamma=AdaptiveGamma(), **kwargs)


@dataclass(frozen=True)
class IterationRecord:
    """Observable state at the end of one LRGP iteration.

    ``node_gammas`` holds the adaptive step size each node would apply on
    its next price update; ``slack`` maps ``node:<id>`` / ``link:<id>``
    to remaining constraint headroom (eq. 4/5 capacity minus usage,
    negative when violated).  Both are populated only when snapshots are
    recorded, like the other mappings.
    """

    iteration: int
    utility: float
    rates: dict[FlowId, float] | None = None
    populations: dict[ClassId, int] | None = None
    node_prices: dict[NodeId, float] | None = None
    link_prices: dict[LinkId, float] | None = None
    node_gammas: dict[NodeId, float] | None = None
    slack: dict[str, float] | None = None


class LRGP:
    """Synchronous LRGP optimizer over a :class:`Problem`.

    Typical use::

        optimizer = LRGP(problem)
        history = optimizer.run(250)
        allocation = optimizer.allocation()

    The optimizer keeps running state (prices, populations, rates) so it can
    be stepped indefinitely and reconfigured mid-run, as an autonomic
    deployment would.  ``engine`` names the engine that executes the
    iterations (:func:`repro.core.engines.create_engine`); the prepackaged
    :func:`repro.solve` entry point is usually more convenient for one-shot
    optimization.
    """

    def __init__(
        self,
        problem: Problem,
        config: LRGPConfig | None = None,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        self._config = config or LRGPConfig()
        self._iteration = 0
        self._utilities: list[float] = []
        self._records: list[IterationRecord] = []
        self._engine: LRGPEngine = create_engine(engine, problem, self._config)

    # -- state accessors ----------------------------------------------------

    @property
    def problem(self) -> Problem:
        return self._engine.problem

    @property
    def config(self) -> LRGPConfig:
        return self._config

    @property
    def engine(self) -> LRGPEngine:
        """The engine executing the iterations (reference, vectorized, ...)."""
        return self._engine

    @property
    def engine_name(self) -> str:
        return self._engine.name

    @property
    def iteration(self) -> int:
        return self._iteration

    @property
    def utilities(self) -> list[float]:
        """Utility after each completed iteration."""
        return self._utilities

    @property
    def records(self) -> list[IterationRecord]:
        return self._records

    def allocation(self) -> Allocation:
        """The current (rates, populations) solution."""
        return self._engine.allocation()

    def node_prices(self) -> dict[NodeId, float]:
        return self._engine.node_prices()

    def link_prices(self) -> dict[LinkId, float]:
        return self._engine.link_prices()

    def node_gammas(self) -> dict[NodeId, float]:
        """The step size each node's next price update would apply."""
        return self._engine.node_gammas()

    # -- reconfiguration ------------------------------------------------------

    def set_problem(self, problem: Problem) -> None:
        """Swap the problem while the optimizer keeps running.

        Prices and populations for entities that persist across the change
        are preserved; departed flows/classes/resources are dropped and new
        ones start fresh (price 0, minimum rate, nobody admitted).  This
        reproduces the "flow source leaves the system" dynamics of figure 3.
        """
        self._engine.bind(problem, preserve_state=True)

    def remove_flow(self, flow_id: FlowId) -> None:
        """Remove one flow (and its consumer classes) from the system."""
        self.set_problem(self.problem.without_flow(flow_id))

    # -- the algorithm --------------------------------------------------------

    def step(self) -> IterationRecord:
        """Execute one full LRGP iteration and return its record."""
        telemetry = self._config.telemetry
        registry = telemetry.registry
        snapshots = self._config.record_snapshots

        outcome = self._engine.step()
        self._iteration += 1
        utility = outcome.utility

        registry.counter("lrgp.iterations").inc()
        registry.gauge("lrgp.utility").set(utility)
        self._utilities.append(utility)
        record = IterationRecord(
            iteration=self._iteration,
            utility=utility,
            rates=self._engine.rates() if snapshots else None,
            populations=self._engine.populations() if snapshots else None,
            node_prices=self._engine.node_prices() if snapshots else None,
            link_prices=self._engine.link_prices() if snapshots else None,
            node_gammas=self._engine.node_gammas() if snapshots else None,
            slack=outcome.slack if snapshots else None,
        )
        self._records.append(record)
        if telemetry.enabled:
            telemetry.emit(
                IterationEvent(
                    iteration=record.iteration,
                    utility=record.utility,
                    t_ns=now_ns(),
                    rates=record.rates,
                    populations=record.populations,
                    node_prices=record.node_prices,
                    link_prices=record.link_prices,
                    gammas=record.node_gammas,
                    slack=record.slack,
                )
            )
        return record

    def run(self, iterations: int) -> list[IterationRecord]:
        """Run a fixed number of iterations, returning their records.

        The whole batch runs under one ``solve`` profiler phase, so the
        per-iteration phases nest as ``solve -> iteration -> ...`` and
        the sum of phase self-times accounts for the run's wall clock.
        """
        if iterations < 0:
            raise ValueError(f"iterations must be non-negative, got {iterations}")
        start = len(self._records)
        with self._config.telemetry.profiler.phase("solve"):
            for _ in range(iterations):
                self.step()
        return self._records[start:]

    def run_until_converged(
        self,
        max_iterations: int = 1000,
        window: int = DEFAULT_WINDOW,
        rel_amplitude: float = DEFAULT_REL_AMPLITUDE,
    ) -> int | None:
        """Iterate until the paper's stability criterion holds.

        Returns the 1-based iteration count at first convergence, or
        ``None`` if ``max_iterations`` elapse without stabilizing.  Only the
        iterations of *this call* are examined, so the method composes with
        earlier :meth:`run` calls and reconfigurations.
        """
        criterion = ConvergenceCriterion(window, rel_amplitude)
        utilities: list[float] = []
        for count in range(1, max_iterations + 1):
            utilities.append(self.step().utility)
            if count >= window and criterion.window_converged(utilities):
                return count
        return None

    def convergence_iteration(
        self,
        window: int = DEFAULT_WINDOW,
        rel_amplitude: float = DEFAULT_REL_AMPLITUDE,
    ) -> int | None:
        """Iterations-until-convergence over the whole recorded history."""
        return iterations_until_convergence(self._utilities, window, rel_amplitude)
