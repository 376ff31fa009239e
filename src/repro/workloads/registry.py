"""Workload registry: stable names onto parameterized problem factories.

The registry is the single list of "the workloads this repository
ships": the CLI, sweep grids and experiments all address a workload
through it rather than calling builders directly.

>>> from repro.workloads.registry import get_workload, list_workloads
>>> problem = get_workload("base", shape="pow50")
>>> problem = get_workload("tree", depth=4, branching=3)
>>> sorted(list_workloads())[:3]
['base', 'bottleneck', 'cnodes']

Specs
-----
A *workload spec* is the one-string spelling the CLI and sweep grids use::

    NAME                  # defaults
    NAME:k=v,k2=v2        # keyword parameters for the factory

Parameter values parse as ``int``, then ``float``, then ``true``/``false``
booleans, then plain strings — enough to reach every keyword the shipped
factories expose (counts, capacities, seeds, utility shape names).

Aliases
-------
Convenience names (``flows-x4`` for ``flows:factor=4``) resolve through
:data:`_ALIASES`.  Utility shapes are parameters, not names: the paper's
power-utility variants are ``base:shape=pow50`` and friends.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.model.problem import Problem
from repro.workloads.base import base_workload
from repro.workloads.bottleneck import link_bottleneck_workload
from repro.workloads.datacenter import fat_tree_workload, leaf_spine_workload
from repro.workloads.generator import GeneratorConfig, generate_workload
from repro.workloads.micro import micro_workload
from repro.workloads.scaling import scale_consumer_nodes, scale_flows
from repro.workloads.scenarios import latest_price_scenario, trade_data_scenario
from repro.workloads.tree import tree_workload

__all__ = [
    "WorkloadEntry",
    "get_workload",
    "list_workloads",
    "list_aliases",
    "parse_workload_spec",
    "format_workload_spec",
    "workload_from_spec",
    "register_workload",
]


@dataclass(frozen=True)
class WorkloadEntry:
    """One registered workload family."""

    name: str
    factory: Callable[..., Problem]
    summary: str
    #: Documented keyword parameters (name -> default), for ``--help`` and
    #: error messages; factories may accept more.
    defaults: Mapping[str, Any] = field(default_factory=dict)


_REGISTRY: dict[str, WorkloadEntry] = {}

#: alias -> (canonical name, implied params).  Explicit params passed by
#: the caller override the implied ones.
_ALIASES: dict[str, tuple[str, dict[str, Any]]] = {}


def register_workload(
    name: str,
    factory: Callable[..., Problem],
    summary: str,
    defaults: Mapping[str, Any] | None = None,
) -> None:
    """Add a workload family under a stable name (idempotent re-register
    of the same name replaces the entry — tests use that)."""
    if ":" in name or "," in name or "=" in name:
        raise ValueError(f"workload name {name!r} contains spec syntax")
    _REGISTRY[name] = WorkloadEntry(
        name=name, factory=factory, summary=summary, defaults=dict(defaults or {})
    )


def register_alias(
    alias: str, target: str, params: Mapping[str, Any] | None = None
) -> None:
    """Map ``alias`` to ``target`` with implied parameters."""
    _ALIASES[alias] = (target, dict(params or {}))


def list_workloads() -> tuple[str, ...]:
    """Canonical registered names, sorted."""
    return tuple(sorted(_REGISTRY))


def list_aliases() -> dict[str, str]:
    """alias -> canonical spec it resolves to."""
    return {
        alias: format_workload_spec(target, params)
        for alias, (target, params) in sorted(_ALIASES.items())
    }


def entry_for(name: str) -> WorkloadEntry:
    """The registry entry behind a canonical name (aliases not resolved)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; registered: "
            f"{', '.join(list_workloads())}"
        ) from None


def get_workload(name: str, **params: Any) -> Problem:
    """Build the named workload; keyword ``params`` reach the factory.

    Aliases resolve first (explicit params override the alias's implied
    ones).
    """
    if name in _ALIASES:
        target, implied = _ALIASES[name]
        merged = {**implied, **params}
        return get_workload(target, **merged)
    entry = entry_for(name)
    try:
        return entry.factory(**params)
    except TypeError as error:
        known = ", ".join(sorted(entry.defaults)) or "(none documented)"
        raise TypeError(
            f"workload {name!r} rejected parameters {sorted(params)}: "
            f"{error}; documented parameters: {known}"
        ) from error


def _coerce(text: str) -> Any:
    """Parse one ``k=v`` value: int, float, bool, then plain string.

    Numeric spellings canonicalize through the parse (``1_0`` and ``10``
    coerce to the same int, ``1e2`` and ``100.0`` to the same float), so
    one workload cannot alias to several sweep-cache entries.  Non-finite
    floats (``nan``/``inf``/``infinity``/``-inf`` and friends) are
    rejected outright: they would poison ``config_hash`` cache keys and
    violate the no-non-finite contract of ``canonical_json``/``JsonlSink``
    downstream.  A factory parameter that genuinely means "unbounded"
    spells it through the factory's default, not through a spec literal.
    """
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        return text
    if math.isnan(value) or math.isinf(value):
        raise ValueError(
            f"non-finite workload parameter value {text!r}; spec values "
            "must be finite (non-finite floats poison config hashes and "
            "cannot be serialized canonically)"
        )
    return value


def parse_workload_spec(spec: str) -> tuple[str, dict[str, Any]]:
    """Split ``NAME[:k=v,...]`` into the name and coerced parameters.

    Malformed specs raise: a bare ``k`` without ``=``, an empty part
    (``base:,,flows=4``), and a dangling colon (``base:``) are all
    rejected rather than silently dropped — a typo'd spec aliasing to the
    defaults would otherwise poison sweep grids quietly.
    """
    name, sep, tail = spec.partition(":")
    name = name.strip()
    if not name:
        raise ValueError(f"empty workload name in spec {spec!r}")
    params: dict[str, Any] = {}
    if sep and not tail.strip():
        raise ValueError(
            f"dangling {':'!r} in workload spec {spec!r}; expected k=v "
            "parameters after it"
        )
    if tail:
        for part in tail.split(","):
            part = part.strip()
            if not part:
                raise ValueError(
                    f"empty parameter in workload spec {spec!r}; "
                    "expected k=v between commas"
                )
            key, eq, value = part.partition("=")
            if not eq or not key.strip():
                raise ValueError(
                    f"malformed parameter {part!r} in workload spec "
                    f"{spec!r}; expected k=v"
                )
            params[key.strip()] = _coerce(value.strip())
    return name, params


def format_workload_spec(name: str, params: Mapping[str, Any]) -> str:
    """Inverse of :func:`parse_workload_spec`, parameters sorted by key."""
    if not params:
        return name
    rendered = ",".join(f"{key}={params[key]}" for key in sorted(params))
    return f"{name}:{rendered}"


def canonical_workload_spec(spec: str) -> str:
    """Normalize a spec string: aliases resolved, parameters key-sorted.

    Two spellings of the same cell (``flows-x4`` vs ``flows:factor=4``,
    or parameters in a different order) normalize to the same string, so
    the sweep cache treats them as the same content.
    """
    name, params = parse_workload_spec(spec)
    seen = set()
    while name in _ALIASES:
        if name in seen:
            raise ValueError(f"alias cycle at workload {name!r}")
        seen.add(name)
        target, implied = _ALIASES[name]
        params = {**implied, **params}
        name = target
    entry_for(name)  # unknown names fail here, with the full listing
    return format_workload_spec(name, params)


def workload_from_spec(spec: str) -> Problem:
    """Build a workload from its one-string spec (``NAME[:k=v,...]``)."""
    name, params = parse_workload_spec(spec)
    return get_workload(name, **params)


def _generated(seed: int = 0, **params: Any) -> Problem:
    """Seeded random workload; extra params map onto GeneratorConfig."""
    return generate_workload(GeneratorConfig(**params), seed=seed)


def _bottleneck(**params: Any) -> Problem:
    """Shared-uplink workload; the historical CLI capacity is the default."""
    return link_bottleneck_workload(**{"link_capacity": 100.0, **params})


def _trade_data(**params: Any) -> Problem:
    return trade_data_scenario(**params).problem


def _latest_price(**params: Any) -> Problem:
    return latest_price_scenario(**params).problem


register_workload(
    "micro",
    micro_workload,
    "2 flows, 1 node, 3 contending classes (exhaustive-search scale)",
    {"capacity": 2000.0, "rate_min": 1.0, "rate_max": 20.0},
)
register_workload(
    "base",
    base_workload,
    "the paper's Table 1 workload (6 flows, 3 nodes, 20 classes)",
    {"shape": "log"},
)
register_workload(
    "flows",
    scale_flows,
    "base workload replicated: 6*factor flows, 3*factor nodes",
    {"factor": 2, "shape": "log"},
)
register_workload(
    "cnodes",
    scale_consumer_nodes,
    "base workload with 3*factor consumer nodes (same 6 flows)",
    {"factor": 2, "shape": "log"},
)
register_workload(
    "tree",
    tree_workload,
    "branching broker tree with overlapping flow subtrees",
    {"depth": 3, "branching": 2, "flows": 4},
)
register_workload(
    "leafspine",
    leaf_spine_workload,
    "two-tier leaf-spine fabric, round-robin spine per flow",
    {"spines": 4, "leaves": 8, "flows": 16, "leaves_per_flow": 2},
)
register_workload(
    "fattree",
    fat_tree_workload,
    "three-tier k-ary fat tree, round-robin core per flow",
    {"k": 4, "flows": 8, "edges_per_flow": 2},
)
register_workload(
    "bottleneck",
    _bottleneck,
    "shared-uplink workload where link pricing binds (eq. 4)",
    {"link_capacity": 100.0, "flows": 3, "consumer_nodes": 2},
)
register_workload(
    "generated",
    _generated,
    "seeded random instance (GeneratorConfig parameters + seed)",
    {"seed": 0, "flows": 6, "consumer_nodes": 3},
)
register_workload(
    "trade-data",
    _trade_data,
    "section 1.1 Trade Data scenario (gold vs public consumers)",
    {"gold_consumers": 50, "public_consumers": 5000},
)
register_workload(
    "latest-price",
    _latest_price,
    "section 1.1 Latest Price scenario (filtered elastic updates)",
    {"consumer_nodes": 2, "consumers_per_class": 2000},
)

# Stable convenience aliases (the scalability-study grid of section 4.3).
register_alias("flows-x2", "flows", {"factor": 2})
register_alias("flows-x4", "flows", {"factor": 4})
register_alias("cnodes-x2", "cnodes", {"factor": 2})
register_alias("cnodes-x4", "cnodes", {"factor": 4})
register_alias("cnodes-x8", "cnodes", {"factor": 8})
