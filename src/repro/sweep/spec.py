"""Declarative sweep grids: named axes expanding to deterministic cells.

A :class:`SweepSpec` names each experiment axis with a value list —
workloads (registry specs), solve methods, LRGP engines, gamma policies,
fault plans, iteration budgets, seeds — and :meth:`SweepSpec.expand`
takes their cartesian product in declared axis order, yielding the same
:class:`RunConfig` list on every machine and every ``PYTHONHASHSEED``.

Axis values that cannot apply to a cell are *normalized* rather than
rejected: an ``engine`` only means something for the LRGP-iteration
methods (``repro.solve.ENGINE_METHODS``) and a gamma policy only for the
LRGP config family, so for other methods those axes collapse to their
defaults and the resulting duplicate cells are dropped (first
occurrence wins).  This is what lets one grid put ``annealing`` next to
``lrgp x {reference, vectorized}`` without 2x the annealing runs.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Mapping
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from repro.canonical import content_hash
from repro.core.engines import available_engines
from repro.core.gamma import FixedGamma
from repro.solve import ENGINE_METHODS, available_methods
from repro.workloads.registry import canonical_workload_spec

__all__ = ["RunConfig", "SweepSpec", "load_spec", "parse_gamma_policy"]

#: Methods whose gamma-policy axis is meaningful (they build LRGPConfig).
GAMMA_METHODS = frozenset({"lrgp", "two_stage", "multirate"})

#: Simulated time a fault cell runs when its plan names no ``horizon``.
FAULT_HORIZON = 400.0


def parse_gamma_policy(policy: str) -> tuple[str, float | None]:
    """Validate ``"adaptive"`` | ``"fixed:<step>"``; return (kind, value)."""
    if policy == "adaptive":
        return "adaptive", None
    kind, sep, value = policy.partition(":")
    if kind == "fixed" and sep:
        try:
            # FixedGamma holds the one rule for a valid step.
            return "fixed", FixedGamma(float(value)).gamma
        except ValueError as error:
            raise ValueError(f"gamma policy {policy!r}: {error}") from None
    raise ValueError(
        f"unknown gamma policy {policy!r}; expected 'adaptive' or 'fixed:<step>'"
    )


def _normalize_fault_plan(
    plan: Mapping[str, float] | None,
) -> tuple[tuple[str, float], ...] | None:
    """Sorted, validated (key, value) pairs — hashable and canonical.

    The values go through :class:`~repro.runtime.faults.RandomPlanParams`,
    the generator's own checks, with :data:`FAULT_HORIZON` standing in for
    an absent horizon, so a bad plan fails here rather than when its cell
    runs.  The runtime is imported only for a cell that has a plan.
    """
    if plan is None:
        return None
    from repro.runtime.faults import RandomPlanParams

    accepted = {f.name for f in fields(RandomPlanParams)}
    unknown = set(plan) - accepted
    if unknown:
        raise ValueError(
            f"unknown fault-plan parameter(s) {sorted(unknown)}; "
            f"accepted: {sorted(accepted)}"
        )
    items = tuple((key, float(plan[key])) for key in sorted(plan))
    RandomPlanParams(**{"horizon": FAULT_HORIZON, **dict(items)})
    return items


@dataclass(frozen=True)
class RunConfig:
    """One fully-specified experiment cell.

    Pure data: strings, numbers and tuples only, so a config pickles
    into worker processes and serializes canonically for the cache key.
    ``workload`` is a registry spec (``NAME[:k=v,...]``), stored in
    canonical form (aliases resolved, parameters key-sorted) so two
    spellings of the same cell share one cache entry.
    """

    workload: str = "base"
    method: str = "lrgp"
    engine: str | None = None
    gamma: str = "adaptive"
    fault_plan: tuple[tuple[str, float], ...] | None = None
    iterations: int = 250
    seed: int = 0
    repeat: int = 0

    def __post_init__(self) -> None:
        if self.method not in available_methods():
            raise ValueError(
                f"unknown method {self.method!r}; available: "
                f"{', '.join(available_methods())}"
            )
        if self.engine is not None:
            if self.method not in ENGINE_METHODS:
                raise ValueError(
                    f"method {self.method!r} does not take an engine "
                    f"(engines apply to: {', '.join(sorted(ENGINE_METHODS))})"
                )
            if self.engine not in available_engines():
                raise ValueError(
                    f"unknown engine {self.engine!r}; available: "
                    f"{', '.join(available_engines())}"
                )
        kind, _ = parse_gamma_policy(self.gamma)
        if kind == "fixed" and self.method not in GAMMA_METHODS:
            raise ValueError(
                f"method {self.method!r} does not take a gamma policy "
                f"(policies apply to: {', '.join(sorted(GAMMA_METHODS))})"
            )
        if self.iterations < 0:
            raise ValueError(
                f"iterations must be non-negative, got {self.iterations}"
            )
        if self.repeat < 0:
            raise ValueError(f"repeat must be non-negative, got {self.repeat}")
        object.__setattr__(
            self, "workload", canonical_workload_spec(self.workload)
        )
        object.__setattr__(
            self, "fault_plan", _normalize_fault_plan(
                dict(self.fault_plan) if self.fault_plan is not None else None
            )
        )

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-ready form; the basis of the cache key."""
        return {
            "workload": self.workload,
            "method": self.method,
            "engine": self.engine,
            "gamma": self.gamma,
            "fault_plan": (
                None
                if self.fault_plan is None
                else {key: value for key, value in self.fault_plan}
            ),
            "iterations": self.iterations,
            "seed": self.seed,
            "repeat": self.repeat,
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "RunConfig":
        plan = payload.get("fault_plan")
        return RunConfig(
            workload=payload.get("workload", "base"),
            method=payload.get("method", "lrgp"),
            engine=payload.get("engine"),
            gamma=payload.get("gamma", "adaptive"),
            fault_plan=(
                None if plan is None else tuple(sorted(dict(plan).items()))
            ),
            iterations=int(payload.get("iterations", 250)),
            seed=int(payload.get("seed", 0)),
            repeat=int(payload.get("repeat", 0)),
        )

    def config_hash(self, salt: Mapping[str, Any] | None = None) -> str:
        """Content address of this cell (optionally salted)."""
        if salt is None:
            return content_hash(self.to_dict())
        return content_hash({"config": self.to_dict(), "salt": dict(salt)})

    def label(self) -> str:
        """Compact human label for tables and logs."""
        parts = [self.workload, self.method]
        if self.engine is not None:
            parts.append(self.engine)
        kind, _ = parse_gamma_policy(self.gamma)
        if kind == "fixed":
            parts.append(self.gamma)
        if self.fault_plan is not None:
            parts.append("faults")
        parts.append(f"i{self.iterations}")
        if self.seed:
            parts.append(f"s{self.seed}")
        if self.repeat:
            parts.append(f"r{self.repeat}")
        return "/".join(parts)


@dataclass(frozen=True)
class SweepSpec:
    """The declarative grid: named axes with value lists.

    ``repeats`` replicates every cell with ``repeat`` indices
    ``0..repeats-1`` (distinct cache entries — the knob for variance
    studies over deterministic methods whose seed axis is meaningless).
    """

    workloads: tuple[str, ...] = ("base",)
    methods: tuple[str, ...] = ("lrgp",)
    engines: tuple[str | None, ...] = (None,)
    gammas: tuple[str, ...] = ("adaptive",)
    fault_plans: tuple[Mapping[str, float] | None, ...] = (None,)
    iterations: tuple[int, ...] = (250,)
    seeds: tuple[int, ...] = (0,)
    repeats: int = 1

    def __post_init__(self) -> None:
        for axis in (
            "workloads", "methods", "engines", "gammas",
            "fault_plans", "iterations", "seeds",
        ):
            values = getattr(self, axis)
            if not isinstance(values, tuple):
                object.__setattr__(self, axis, tuple(values))
            if not getattr(self, axis):
                raise ValueError(f"sweep axis {axis!r} must not be empty")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")

    def expand(self) -> tuple[RunConfig, ...]:
        """The deterministic cell list: product in declared axis order.

        Inapplicable axis values collapse (engine -> ``None`` for
        non-LRGP-iteration methods, gamma -> ``"adaptive"`` for methods
        without an LRGP config) and the duplicates that collapse creates
        are dropped, first occurrence winning.
        """
        cells: list[RunConfig] = []
        seen: set[tuple[Any, ...]] = set()
        for workload, method, engine, gamma, plan, iters, seed in (
            itertools.product(
                self.workloads, self.methods, self.engines, self.gammas,
                self.fault_plans, self.iterations, self.seeds,
            )
        ):
            if method not in ENGINE_METHODS:
                engine = None
            if method not in GAMMA_METHODS:
                gamma = "adaptive"
            for repeat in range(self.repeats):
                config = RunConfig(
                    workload=workload,
                    method=method,
                    engine=engine,
                    gamma=gamma,
                    fault_plan=(
                        None if plan is None
                        else tuple(sorted((k, float(v)) for k, v in dict(plan).items()))
                    ),
                    iterations=iters,
                    seed=seed,
                    repeat=repeat,
                )
                identity = (
                    config.workload, config.method, config.engine,
                    config.gamma, config.fault_plan, config.iterations,
                    config.seed, config.repeat,
                )
                if identity in seen:
                    continue
                seen.add(identity)
                cells.append(config)
        return tuple(cells)

    def to_dict(self) -> dict[str, Any]:
        return {
            "workloads": list(self.workloads),
            "methods": list(self.methods),
            "engines": list(self.engines),
            "gammas": list(self.gammas),
            "fault_plans": [
                None if plan is None else dict(plan)
                for plan in self.fault_plans
            ],
            "iterations": list(self.iterations),
            "seeds": list(self.seeds),
            "repeats": self.repeats,
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "SweepSpec":
        known = {f.name for f in fields(SweepSpec)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown sweep-spec field(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        kwargs: dict[str, Any] = {}
        for name in known - {"repeats", "fault_plans"}:
            if name in payload:
                kwargs[name] = tuple(payload[name])
        if "fault_plans" in payload:
            kwargs["fault_plans"] = tuple(
                None if plan is None else dict(plan)
                for plan in payload["fault_plans"]
            )
        if "repeats" in payload:
            kwargs["repeats"] = int(payload["repeats"])
        return SweepSpec(**kwargs)


def load_spec(path: str | Path) -> SweepSpec:
    """Read a :class:`SweepSpec` from a JSON file (``repro sweep --spec``)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as error:
        raise ValueError(f"cannot read sweep spec {path}: {error}") from error
    except ValueError as error:
        raise ValueError(f"unparseable sweep spec {path}: {error}") from error
    if not isinstance(payload, Mapping):
        raise ValueError(f"sweep spec {path} must be a JSON object")
    return SweepSpec.from_dict(payload)
