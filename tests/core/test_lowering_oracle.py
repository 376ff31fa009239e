"""Differential test: :func:`compile_problem` against a loop lowering.

:func:`loop_lowering` is the straightforward per-link / per-class /
per-flow lowering, kept here as the reference oracle: incidence rows
sorted explicitly, one dict lookup per class cell, one ``np.nonzero`` per
flow family and per node.  The array lowering in :mod:`repro.core.compiled`
must produce the same :class:`CompiledProblem` field for field — dtype,
shape, values, the sign of every zero, and the very utility objects — on
generated problems in every utility shape, flows that mix shapes or
disagree on a log offset or power exponent, ``ScaledUtility``-wrapped
classes, flows without classes, missing cost entries, small leaf-spine and
fat-tree fabrics with finite links, and ``without_flow`` variants of all
of these.  The oracle derives its node and link vocabularies from the
entities, so the check also pins the ``consumer_nodes()`` and
``bottleneck_links()`` tuples that ``build_problem`` caches.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiled import (
    FAMILY_GENERIC,
    FAMILY_LOG,
    FAMILY_POW,
    CompiledProblem,
    _classify,
    compile_problem,
)
from repro.model.costs import CostModel
from repro.model.problem import Problem, build_problem
from repro.utility.base import UtilityFunction
from repro.utility.functions import (
    ExponentialSaturationUtility,
    LogUtility,
    PowerUtility,
    ScaledUtility,
)
from repro.workloads.generator import GeneratorConfig, generate_workload
from repro.workloads.micro import micro_workload
from repro.workloads.registry import workload_from_spec


def loop_lowering(problem: Problem) -> CompiledProblem:
    """The reference lowering: one Python step per incidence pair, class
    and flow, on vocabularies derived here rather than read from the
    problem's cached ``consumer_nodes()`` / ``bottleneck_links()``."""
    flow_ids = tuple(sorted(problem.flows))
    node_ids = tuple(sorted({cls.node for cls in problem.classes.values()}))
    link_ids = tuple(
        sorted(lid for lid, link in problem.links.items() if not math.isinf(link.capacity))
    )
    class_ids = tuple(sorted(problem.classes))
    flow_pos = {fid: i for i, fid in enumerate(flow_ids)}
    node_pos = {nid: b for b, nid in enumerate(node_ids)}

    n_classes = len(class_ids)

    rate_min = np.array([problem.flows[f].rate_min for f in flow_ids], dtype=np.float64)
    rate_max = np.array([problem.flows[f].rate_max for f in flow_ids], dtype=np.float64)
    node_capacity = np.array(
        [problem.nodes[n].capacity for n in node_ids], dtype=np.float64
    )
    link_capacity = np.array(
        [problem.links[l].capacity for l in link_ids], dtype=np.float64
    )

    ln_link_list: list[int] = []
    ln_flow_list: list[int] = []
    ln_cost_list: list[float] = []
    for l, lid in enumerate(link_ids):
        for i in sorted(flow_pos[fid] for fid in problem.flows_on_link(lid)):
            ln_link_list.append(l)
            ln_flow_list.append(i)
            ln_cost_list.append(problem.costs.link(lid, flow_ids[i]))
    fn_node_list: list[int] = []
    fn_flow_list: list[int] = []
    fn_cost_list: list[float] = []
    cell_index: dict[tuple[int, int], int] = {}
    for b, nid in enumerate(node_ids):
        for i in sorted(flow_pos[fid] for fid in problem.flows_at_node(nid)):
            cell_index[(b, i)] = len(fn_node_list)
            fn_node_list.append(b)
            fn_flow_list.append(i)
            fn_cost_list.append(problem.costs.flow_node(nid, flow_ids[i]))

    class_flow = np.empty(n_classes, dtype=np.int64)
    class_node = np.empty(n_classes, dtype=np.int64)
    class_fn_index = np.empty(n_classes, dtype=np.int64)
    max_consumers = np.empty(n_classes, dtype=np.int64)
    consumer_cost = np.empty(n_classes, dtype=np.float64)
    class_family = np.empty(n_classes, dtype=np.int64)
    class_scale = np.zeros(n_classes, dtype=np.float64)
    class_offset = np.zeros(n_classes, dtype=np.float64)
    class_exponent = np.zeros(n_classes, dtype=np.float64)
    utilities: list[UtilityFunction] = []
    for j, cid in enumerate(class_ids):
        cls = problem.classes[cid]
        class_flow[j] = flow_pos[cls.flow_id]
        class_node[j] = node_pos[cls.node]
        class_fn_index[j] = cell_index[(int(class_node[j]), int(class_flow[j]))]
        max_consumers[j] = cls.max_consumers
        consumer_cost[j] = problem.costs.consumer(cls.node, cid)
        family, scale, offset, exponent = _classify(cls.utility)
        class_family[j] = family
        class_scale[j] = scale
        class_offset[j] = offset
        class_exponent[j] = exponent
        utilities.append(cls.utility)

    n_flows = len(flow_ids)
    flow_family = np.full(n_flows, FAMILY_GENERIC, dtype=np.int64)
    flow_offset = np.zeros(n_flows, dtype=np.float64)
    flow_exponent = np.zeros(n_flows, dtype=np.float64)
    for i in range(n_flows):
        members = np.nonzero(class_flow == i)[0]
        if members.size == 0:
            flow_family[i] = FAMILY_LOG
            continue
        families = class_family[members]
        if np.all(families == FAMILY_LOG):
            offsets = class_offset[members]
            if np.all(offsets == offsets[0]):
                flow_family[i] = FAMILY_LOG
                flow_offset[i] = offsets[0]
        elif np.all(families == FAMILY_POW):
            exponents = class_exponent[members]
            if np.all(exponents == exponents[0]):
                flow_family[i] = FAMILY_POW
                flow_exponent[i] = exponents[0]

    node_class_positions = tuple(
        np.nonzero(class_node == b)[0].astype(np.int64)
        for b in range(len(node_ids))
    )

    return CompiledProblem(
        problem=problem,
        flow_ids=flow_ids,
        node_ids=node_ids,
        link_ids=link_ids,
        class_ids=class_ids,
        rate_min=rate_min,
        rate_max=rate_max,
        node_capacity=node_capacity,
        link_capacity=link_capacity,
        ln_link=np.array(ln_link_list, dtype=np.int64),
        ln_flow=np.array(ln_flow_list, dtype=np.int64),
        ln_cost=np.array(ln_cost_list, dtype=np.float64),
        fn_node=np.array(fn_node_list, dtype=np.int64),
        fn_flow=np.array(fn_flow_list, dtype=np.int64),
        fn_cost=np.array(fn_cost_list, dtype=np.float64),
        consumer_cost=consumer_cost,
        class_flow=class_flow,
        class_node=class_node,
        class_fn_index=class_fn_index,
        max_consumers=max_consumers,
        utilities=tuple(utilities),
        class_family=class_family,
        class_scale=class_scale,
        class_offset=class_offset,
        class_exponent=class_exponent,
        flow_family=flow_family,
        flow_offset=flow_offset,
        flow_exponent=flow_exponent,
        node_class_positions=node_class_positions,
        log_class_positions=np.nonzero(class_family == FAMILY_LOG)[0].astype(np.int64),
        pow_class_positions=np.nonzero(class_family == FAMILY_POW)[0].astype(np.int64),
        generic_class_positions=np.nonzero(class_family == FAMILY_GENERIC)[0].astype(
            np.int64
        ),
    )


def assert_same_array(actual: np.ndarray, expected: np.ndarray, name: str) -> None:
    assert actual.dtype == expected.dtype, name
    assert actual.shape == expected.shape, name
    assert np.array_equal(actual, expected), name
    if expected.dtype.kind == "f":
        assert np.array_equal(np.signbit(actual), np.signbit(expected)), name


def assert_same_lowering(actual: CompiledProblem, expected: CompiledProblem) -> None:
    for field in dataclasses.fields(CompiledProblem):
        name = field.name
        got, want = getattr(actual, name), getattr(expected, name)
        if name == "problem":
            assert got is want
        elif name == "utilities":
            assert len(got) == len(want)
            assert all(a is b for a, b in zip(got, want)), name
        elif name == "node_class_positions":
            assert len(got) == len(want), name
            for b, (a, e) in enumerate(zip(got, want)):
                assert_same_array(a, e, f"{name}[{b}]")
        elif isinstance(want, np.ndarray):
            assert_same_array(got, want, name)
        else:
            assert got == want, name


#: Utility makers a mixed-shape factory cycles through: two log offsets
#: and two power exponents (same family, no shared closed form), scaled
#: wrappers of both families, and a shape with no closed form at all.
UTILITY_MAKERS = {
    "log": lambda rank: LogUtility(scale=rank),
    "log-offset": lambda rank: LogUtility(scale=rank, offset=2.5),
    "pow50": lambda rank: PowerUtility(scale=rank, exponent=0.5),
    "pow25": lambda rank: PowerUtility(scale=rank, exponent=0.25),
    "scaled-log": lambda rank: ScaledUtility(LogUtility(scale=rank), factor=1.5),
    "scaled-pow": lambda rank: ScaledUtility(
        ScaledUtility(PowerUtility(scale=rank, exponent=0.5), factor=2.0), factor=0.5
    ),
    "saturating": lambda rank: ExponentialSaturationUtility(scale=rank, knee=50.0),
}


@st.composite
def shapes(draw):
    """A named shape, or a factory cycling through drawn utility makers so
    that flows mix shapes whenever more than one maker is drawn."""
    named = st.sampled_from(("log", "pow25", "pow50", "pow75"))
    picks = st.lists(st.sampled_from(sorted(UTILITY_MAKERS)), min_size=1, max_size=6)
    choice = draw(st.one_of(named, picks))
    if isinstance(choice, str):
        return choice
    makers = [UTILITY_MAKERS[name] for name in choice]
    counter = itertools.count()
    return lambda rank: makers[next(counter) % len(makers)](rank)


@st.composite
def generated_problems(draw):
    config = GeneratorConfig(
        flows=draw(st.integers(1, 8)),
        consumer_nodes=draw(st.integers(1, 4)),
        nodes_per_flow=draw(st.integers(1, 3)),
        classes_per_flow_node=draw(st.integers(1, 3)),
        shape=draw(shapes()),
        link_capacity=draw(st.sampled_from((math.inf, 500.0))),
    )
    return generate_workload(config, seed=draw(st.integers(0, 10_000)))


@st.composite
def fabrics(draw):
    if draw(st.booleans()):
        spec = (
            f"leafspine:spines={draw(st.integers(1, 3))},"
            f"leaves={draw(st.integers(1, 5))},flows={draw(st.integers(1, 8))},"
            f"leaves_per_flow={draw(st.integers(1, 3))},"
            f"classes_per_leaf={draw(st.integers(1, 2))},link_capacity=300"
        )
    else:
        spec = (
            f"fattree:k={draw(st.sampled_from((2, 4)))},"
            f"flows={draw(st.integers(1, 6))},"
            f"edges_per_flow={draw(st.integers(1, 3))},link_capacity=300"
        )
    return workload_from_spec(spec)


def without_classes_of(problem: Problem, flow_ids: set[str]) -> Problem:
    """``problem`` with the classes of ``flow_ids`` gone but the flows kept."""
    kept = [c for c in problem.classes.values() if c.flow_id not in flow_ids]
    kept_ids = {c.class_id for c in kept}
    costs = problem.costs
    return build_problem(
        nodes=problem.nodes.values(),
        links=problem.links.values(),
        flows=problem.flows.values(),
        classes=kept,
        routes=problem.routes,
        costs=CostModel(
            link_cost=dict(costs.link_cost),
            flow_node_cost=dict(costs.flow_node_cost),
            consumer_cost={
                key: value
                for key, value in costs.consumer_cost.items()
                if key[1] in kept_ids
            },
        ),
    )


def with_costs_dropped(problem: Problem, keep: st.DataObject) -> Problem:
    """``problem`` with a drawn subset of its cost entries missing (so
    their pairs lower to cost 0.0 but stay in the incidence pattern)."""
    costs = problem.costs

    def subset(entries):
        return {
            key: value
            for key, value in sorted(entries.items())
            if keep.draw(st.booleans(), label=f"keep {key}")
        }

    return problem.with_costs(
        CostModel(
            link_cost=subset(costs.link_cost),
            flow_node_cost=subset(costs.flow_node_cost),
            consumer_cost=subset(costs.consumer_cost),
        )
    )


@settings(max_examples=60, deadline=None)
@given(
    problem=st.one_of(generated_problems(), fabrics()),
    variant=st.sampled_from(("as-is", "without-flow", "classless-flows", "costs")),
    data=st.data(),
)
def test_lowering_matches_loop_oracle(problem, variant, data):
    flow_ids = sorted(problem.flows)
    if variant == "without-flow":
        problem = problem.without_flow(data.draw(st.sampled_from(flow_ids)))
    elif variant == "classless-flows":
        dropped = data.draw(st.sets(st.sampled_from(flow_ids), min_size=1))
        problem = without_classes_of(problem, dropped)
    elif variant == "costs":
        problem = with_costs_dropped(problem, data)
    assert_same_lowering(compile_problem(problem), loop_lowering(problem))


def test_missing_class_cell_raises():
    """A hand-built problem whose class sits off its flow's route has no
    (node, flow) cell to scatter into."""
    problem = micro_workload()
    off_route = dataclasses.replace(problem, _flows_at_node={})
    with pytest.raises(ValueError, match="does not reach"):
        compile_problem(off_route)
