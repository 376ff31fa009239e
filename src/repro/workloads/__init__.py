"""Workload suite: the paper's evaluation inputs plus generators/scenarios.

* :func:`base_workload` — Table 1 (section 4.1).
* :func:`scale_consumer_nodes` / :func:`scale_flows`,
  :data:`TABLE2_WORKLOADS` — the scalability study (section 4.3).
* :mod:`repro.workloads.generator` — seeded random workloads.
* :mod:`repro.workloads.scenarios` — the motivating scenarios of section 1.1.
* :mod:`repro.workloads.dynamics` — workload and capacity churn over time.
"""

from repro.workloads.base import (
    BASE_RATE_MAX,
    BASE_RATE_MIN,
    TABLE1_CLASS_SPECS,
    WorkloadParams,
    base_workload,
    build_workload,
)
from repro.workloads.bottleneck import link_bottleneck_workload
from repro.workloads.datacenter import fat_tree_workload, leaf_spine_workload
from repro.workloads.generator import GeneratorConfig, generate_workload
from repro.workloads.micro import micro_workload
from repro.workloads.scaling import (
    TABLE2_WORKLOADS,
    scale_consumer_nodes,
    scale_flows,
)
from repro.workloads.tree import tree_workload
from repro.workloads.scenarios import (
    Scenario,
    latest_price_scenario,
    trade_data_scenario,
)
from repro.workloads.registry import (
    WorkloadEntry,
    canonical_workload_spec,
    format_workload_spec,
    get_workload,
    list_aliases,
    list_workloads,
    parse_workload_spec,
    register_workload,
    workload_from_spec,
)

__all__ = [
    "WorkloadEntry",
    "canonical_workload_spec",
    "format_workload_spec",
    "get_workload",
    "list_aliases",
    "list_workloads",
    "parse_workload_spec",
    "register_workload",
    "workload_from_spec",
    "GeneratorConfig",
    "Scenario",
    "tree_workload",
    "fat_tree_workload",
    "leaf_spine_workload",
    "generate_workload",
    "latest_price_scenario",
    "link_bottleneck_workload",
    "micro_workload",
    "trade_data_scenario",
    "BASE_RATE_MAX",
    "BASE_RATE_MIN",
    "TABLE1_CLASS_SPECS",
    "TABLE2_WORKLOADS",
    "WorkloadParams",
    "base_workload",
    "build_workload",
    "scale_consumer_nodes",
    "scale_flows",
]
