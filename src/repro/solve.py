"""Unified one-shot solver API: ``repro.solve(problem, method=...)``.

Every optimizer family in the repository answers the same question — "given
this :class:`~repro.model.problem.Problem`, what allocation should the
system run?" — but historically each answered it through its own driver
class and ad-hoc result object (``LRGP`` + ``utilities``,
``MultirateLRGP``, ``TwoStageResult``, ``AnnealingResult`` ...).  This
module is the front door over all of them:

>>> import repro
>>> result = repro.solve(problem, method="lrgp", engine="vectorized")
>>> result.utility, result.converged_at, result.allocation

``method`` selects the algorithm family, ``engine`` the LRGP iteration
execution strategy (:mod:`repro.core.engines`; only meaningful for the
LRGP-based methods), ``iterations`` the per-method effort budget.  Extra
keyword options are forwarded to the underlying optimizer (``config=`` for
the LRGP family, ``seed=`` for the stochastic baselines, ...).

Methods:

* ``"lrgp"`` — the synchronous driver (section 3), default.
* ``"multirate"`` — the multirate extension (per-node flow thinning).
* ``"two_stage"`` — LRGP with path pruning (section 2.4).
* ``"annealing"`` — the paper's simulated-annealing comparison
  (best-of-start-temperatures protocol, section 4.4).
* ``"hill_climb"`` / ``"random_search"`` — calibration baselines.
* ``"coordinate"`` — alternating exact-rate / greedy-population stages.

Every method returns the same frozen :class:`SolveResult`; method-specific
extras live in its ``metadata`` mapping, not in attributes.

Method-specific imports happen lazily inside the runners so that
``import repro`` stays as light as the reference driver (in particular,
numpy only loads for ``engine="vectorized"`` or the numpy-backed
baselines).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.convergence import iterations_until_convergence
from repro.core.engines import DEFAULT_ENGINE
from repro.core.lrgp import LRGP, LRGPConfig
from repro.model.allocation import Allocation, total_utility
from repro.model.problem import Problem

if TYPE_CHECKING:
    from repro.core.multirate import MultirateAllocation

#: Methods for which the ``engine=`` selector is meaningful: the ones that
#: execute LRGP iterations through :mod:`repro.core.engines`.
ENGINE_METHODS = frozenset({"lrgp", "two_stage"})

#: Smallest flow count at which the vectorized engine pays for itself.
#: On the smallest problems numpy array setup dominates.  The measured
#: speedups over the reference engine and the measured crossover are the
#: ``engines.dispatch.workloads.*.speedup`` and
#: ``engines.dispatch.measured_crossover_flows`` metrics of
#: ``benchmarks/results/BENCH_trajectory.json`` (from ``BENCH_engines.json``).
#: Below this floor :func:`solve` silently runs the reference engine and
#: records the substitution in ``metadata["engine_fallback"]``.
#: Constructing :class:`LRGP` directly with ``engine="vectorized"`` bypasses
#: the dispatch: explicit driver construction means the caller wants that
#: engine, benchmark harnesses included.
VECTORIZED_MIN_FLOWS = 4


def _dispatch_engine(
    problem: Problem, engine: str | None
) -> tuple[str, dict[str, Any] | None]:
    """Resolve the requested engine against the problem size.

    ``None`` means :data:`~repro.core.engines.DEFAULT_ENGINE`.  Returns the
    engine to actually run plus the ``engine_fallback`` metadata entry
    (``None`` when the request is honored as-is).
    """
    if engine is None:
        return DEFAULT_ENGINE, None
    if engine != "vectorized":
        return engine, None
    flows = len(problem.flows)
    if flows >= VECTORIZED_MIN_FLOWS:
        return engine, None
    return "reference", {
        "requested": "vectorized",
        "reason": (
            f"problem has {flows} flow(s), below the vectorized "
            f"crossover of {VECTORIZED_MIN_FLOWS}; reference engine is "
            "faster at this size"
        ),
    }


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one :func:`solve` call, identical across methods.

    ``utilities`` is the per-iteration utility trajectory when the method
    produces one (the LRGP family); single-shot searches report a
    one-point trajectory.  ``converged_at`` is the 1-based iteration count
    until the paper's stability criterion first holds (``None`` when the
    trajectory never stabilizes or the method has no notion of it).
    ``metadata`` carries method-specific extras (stage utilities, node
    prices, acceptance rates, per-iteration records of a snapshot run...)
    without widening the common surface.
    """

    method: str
    engine: str | None
    allocation: "Allocation | MultirateAllocation"
    utility: float
    utilities: tuple[float, ...]
    iterations: int
    converged_at: int | None
    wall_time_seconds: float
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (the ``repro optimize --json`` payload).

        Metadata entries that are not JSON-representable — e.g. the
        :class:`~repro.core.lrgp.IterationRecord` tuple of a snapshot run
        — are dropped rather than coerced.
        """
        return {
            "method": self.method,
            "engine": self.engine,
            "utility": self.utility,
            "iterations": self.iterations,
            "converged_at": self.converged_at,
            "wall_time_seconds": self.wall_time_seconds,
            "utilities": list(self.utilities),
            "allocation": _allocation_payload(self.allocation),
            "metadata": {
                key: value
                for key, value in sorted(self.metadata.items())
                if _json_safe(value)
            },
        }

    def canonical_dict(self) -> dict[str, Any]:
        """:meth:`to_dict` minus the volatile measurement fields.

        ``wall_time_seconds`` changes run to run even when the trajectory
        is bit-identical, so the canonical form — the one the sweep cache
        stores — excludes it.  Everything the optimizer *computed*
        (utility trajectory, allocation, prices, convergence) stays in.
        """
        payload = self.to_dict()
        del payload["wall_time_seconds"]
        return payload


def _json_safe(value: Any) -> bool:
    """True when ``value`` serializes losslessly with ``json.dumps``."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, (list, tuple)):
        return all(_json_safe(item) for item in value)
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and _json_safe(item)
            for key, item in value.items()
        )
    return False


def _allocation_payload(
    allocation: "Allocation | MultirateAllocation",
) -> dict[str, Any]:
    """Flatten either allocation shape into JSON-friendly mappings."""
    if isinstance(allocation, Allocation):
        return {
            "rates": dict(allocation.rates),
            "populations": dict(allocation.populations),
        }
    return {
        "source_rates": dict(allocation.source_rates),
        "local_rates": {
            f"{node_id}:{flow_id}": local_rate
            for (node_id, flow_id), local_rate in sorted(
                allocation.local_rates.items()
            )
        },
        "populations": dict(allocation.populations),
    }


def _take_config(options: dict[str, Any], method: str) -> Any:
    """Pop the ``config=`` option; reject anything else left over."""
    config = options.pop("config", None)
    if options:
        unexpected = ", ".join(sorted(options))
        raise TypeError(
            f"solve(method={method!r}) got unexpected options: {unexpected}"
        )
    return config


def _solve_lrgp(
    problem: Problem,
    engine: str | None,
    iterations: int | None,
    options: dict[str, Any],
) -> SolveResult:
    config: LRGPConfig | None = _take_config(options, "lrgp")
    budget = 250 if iterations is None else iterations
    engine, fallback = _dispatch_engine(problem, engine)
    started = time.perf_counter()
    optimizer = LRGP(problem, config, engine=engine)
    optimizer.run(budget)
    wall = time.perf_counter() - started

    allocation = optimizer.allocation()
    utilities = tuple(optimizer.utilities)
    metadata: dict[str, Any] = {
        "node_prices": optimizer.node_prices(),
        "link_prices": optimizer.link_prices(),
    }
    if fallback is not None:
        metadata["engine_fallback"] = fallback
    if optimizer.records and optimizer.records[0].rates is not None:
        metadata["records"] = tuple(optimizer.records)
    return SolveResult(
        method="lrgp",
        engine=optimizer.engine_name,
        allocation=allocation,
        utility=utilities[-1] if utilities else total_utility(problem, allocation),
        utilities=utilities,
        iterations=optimizer.iteration,
        converged_at=optimizer.convergence_iteration(),
        wall_time_seconds=wall,
        metadata=metadata,
    )


def _solve_multirate(
    problem: Problem,
    engine: str | None,
    iterations: int | None,
    options: dict[str, Any],
) -> SolveResult:
    from repro.core.multirate import MultirateLRGP, multirate_total_utility

    config = _take_config(options, "multirate")
    budget = 250 if iterations is None else iterations
    started = time.perf_counter()
    optimizer = (
        MultirateLRGP(problem)
        if config is None
        else MultirateLRGP(problem, config)
    )
    optimizer.run(budget)
    wall = time.perf_counter() - started

    allocation = optimizer.allocation()
    utilities = tuple(optimizer.utilities)
    return SolveResult(
        method="multirate",
        engine=None,
        allocation=allocation,
        utility=multirate_total_utility(problem, allocation),
        utilities=utilities,
        iterations=len(utilities),
        converged_at=iterations_until_convergence(utilities),
        wall_time_seconds=wall,
        metadata={"node_prices": optimizer.node_prices()},
    )


def _solve_two_stage(
    problem: Problem,
    engine: str | None,
    iterations: int | None,
    options: dict[str, Any],
) -> SolveResult:
    from repro.core.two_stage import two_stage_optimize

    config: LRGPConfig | None = _take_config(options, "two_stage")
    budget = 250 if iterations is None else iterations
    engine, fallback = _dispatch_engine(problem, engine)
    started = time.perf_counter()
    result = two_stage_optimize(problem, config, budget, engine=engine)
    wall = time.perf_counter() - started

    utilities = result.stage1_utilities + result.stage2_utilities
    metadata: dict[str, Any] = {
        "stage1_utility": result.stage1_utility,
        "stage2_utility": result.stage2_utility,
        "improvement": result.improvement,
        "pruned_flow_nodes": len(result.prune_set.flow_nodes),
        "pruned_flow_links": len(result.prune_set.flow_links),
    }
    if fallback is not None:
        metadata["engine_fallback"] = fallback
    return SolveResult(
        method="two_stage",
        engine=engine,
        allocation=result.stage2_allocation,
        utility=result.stage2_utility,
        utilities=utilities,
        iterations=len(utilities),
        converged_at=iterations_until_convergence(result.stage2_utilities),
        wall_time_seconds=wall,
        metadata=metadata,
    )


def _solve_annealing(
    problem: Problem,
    engine: str | None,
    iterations: int | None,
    options: dict[str, Any],
) -> SolveResult:
    from repro.baselines import best_of_temperatures

    if iterations is not None:
        options.setdefault("max_steps", iterations)
    started = time.perf_counter()
    result = best_of_temperatures(problem, **options)
    wall = time.perf_counter() - started
    return SolveResult(
        method="annealing",
        engine=None,
        allocation=result.best_allocation,
        utility=result.best_utility,
        utilities=(result.best_utility,),
        iterations=result.steps,
        converged_at=None,
        wall_time_seconds=wall,
        metadata={
            "final_step_utility": result.final_utility,
            "accepted": result.accepted,
            "acceptance_rate": result.acceptance_rate,
            "start_temperature": result.start_temperature,
        },
    )


def _solve_hill_climb(
    problem: Problem,
    engine: str | None,
    iterations: int | None,
    options: dict[str, Any],
) -> SolveResult:
    from repro.baselines import hill_climb

    if iterations is not None:
        options.setdefault("max_steps", iterations)
    started = time.perf_counter()
    result = hill_climb(problem, **options)
    wall = time.perf_counter() - started
    return SolveResult(
        method="hill_climb",
        engine=None,
        allocation=result.best_allocation,
        utility=result.best_utility,
        utilities=(result.best_utility,),
        iterations=result.steps,
        converged_at=None,
        wall_time_seconds=wall,
        metadata={},
    )


def _solve_random_search(
    problem: Problem,
    engine: str | None,
    iterations: int | None,
    options: dict[str, Any],
) -> SolveResult:
    from repro.baselines import random_search

    if iterations is not None:
        options.setdefault("samples", iterations)
    started = time.perf_counter()
    result = random_search(problem, **options)
    wall = time.perf_counter() - started
    return SolveResult(
        method="random_search",
        engine=None,
        allocation=result.best_allocation,
        utility=result.best_utility,
        utilities=(result.best_utility,),
        iterations=result.steps,
        converged_at=None,
        wall_time_seconds=wall,
        metadata={},
    )


def _solve_coordinate(
    problem: Problem,
    engine: str | None,
    iterations: int | None,
    options: dict[str, Any],
) -> SolveResult:
    from repro.baselines import alternating_optimization

    if iterations is not None:
        options.setdefault("max_stages", iterations)
    started = time.perf_counter()
    result = alternating_optimization(problem, **options)
    wall = time.perf_counter() - started
    return SolveResult(
        method="coordinate",
        engine=None,
        allocation=result.best_allocation,
        utility=result.best_utility,
        utilities=(result.best_utility,),
        iterations=result.stages,
        converged_at=result.stages if result.converged else None,
        wall_time_seconds=wall,
        metadata={"converged": result.converged},
    )


_RUNNERS: dict[
    str,
    Callable[[Problem, str | None, int | None, dict[str, Any]], SolveResult],
] = {
    "lrgp": _solve_lrgp,
    "multirate": _solve_multirate,
    "two_stage": _solve_two_stage,
    "annealing": _solve_annealing,
    "hill_climb": _solve_hill_climb,
    "random_search": _solve_random_search,
    "coordinate": _solve_coordinate,
}


def available_methods() -> tuple[str, ...]:
    """Registered :func:`solve` method names, sorted."""
    return tuple(sorted(_RUNNERS))


def solve(
    problem: Problem,
    method: str = "lrgp",
    *,
    engine: str | None = None,
    iterations: int | None = None,
    **options: Any,
) -> SolveResult:
    """Optimize ``problem`` with the chosen method; return a :class:`SolveResult`.

    ``engine`` selects the LRGP iteration-execution strategy
    (``"reference"`` | ``"vectorized"``; ``None`` runs
    :data:`~repro.core.engines.DEFAULT_ENGINE`) and is only accepted for the
    LRGP-based methods (:data:`ENGINE_METHODS`).  For problems below the
    measured vectorized crossover (:data:`VECTORIZED_MIN_FLOWS` flows)
    ``engine="vectorized"`` transparently runs the reference engine
    instead — numpy setup costs exceed the per-iteration win there — and
    notes the substitution in ``metadata["engine_fallback"]``.
    ``iterations`` maps to
    the method's natural effort knob (LRGP iterations, annealing /
    hill-climb steps, random-search samples, coordinate stages); ``None``
    keeps each method's own default.  Remaining keyword ``options`` are
    forwarded to the underlying optimizer (``config=`` for the LRGP
    family, ``seed=`` for the stochastic baselines, ...).
    """
    runner = _RUNNERS.get(method)
    if runner is None:
        raise ValueError(
            f"unknown method {method!r}; available: "
            f"{', '.join(available_methods())}"
        )
    if engine is not None and method not in ENGINE_METHODS:
        raise ValueError(
            f"method {method!r} does not execute LRGP iterations, so "
            f"engine={engine!r} is not applicable (engines apply to: "
            f"{', '.join(sorted(ENGINE_METHODS))})"
        )
    if iterations is not None and iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations}")
    return runner(problem, engine, iterations, dict(options))
