"""Unit tests for the problem-lowering layer (:mod:`repro.core.compiled`)."""

import dataclasses

import numpy as np
import pytest

from repro.core.compiled import (
    FAMILY_GENERIC,
    FAMILY_LOG,
    FAMILY_POW,
    compile_problem,
)
from repro.model.allocation import (
    Allocation,
    link_usage,
    node_usage,
    total_utility,
)
from repro.model.problem import Problem, build_problem
from repro.utility.functions import LogUtility, PowerUtility, UtilityFunction
from repro.workloads.base import base_workload
from repro.workloads.micro import micro_workload


def replace_class_utility(
    problem: Problem, class_id: str, utility: UtilityFunction
) -> Problem:
    """Rebuild ``problem`` with one class's utility swapped out."""
    classes = [
        dataclasses.replace(cls, utility=utility) if cid == class_id else cls
        for cid, cls in problem.classes.items()
    ]
    return build_problem(
        nodes=problem.nodes.values(),
        links=problem.links.values(),
        flows=problem.flows.values(),
        classes=classes,
        routes={fid: problem.route(fid) for fid in problem.flows},
        costs=problem.costs,
    )


@pytest.fixture(scope="module")
def compiled_base():
    return compile_problem(base_workload())


class TestVocabularies:
    def test_ids_sorted_and_scoped(self, compiled_base):
        problem = compiled_base.problem
        assert compiled_base.flow_ids == tuple(sorted(problem.flows))
        assert compiled_base.class_ids == tuple(sorted(problem.classes))
        assert compiled_base.node_ids == problem.consumer_nodes()
        assert compiled_base.link_ids == problem.bottleneck_links()

    def test_array_shapes(self, compiled_base):
        c = compiled_base
        for array in (c.ln_link, c.ln_flow, c.ln_cost):
            assert array.shape == (c.nnz_link,)
        for array in (c.fn_node, c.fn_flow, c.fn_cost):
            assert array.shape == (c.nnz_node,)
        for array in (c.rate_min, c.rate_max, c.flow_family):
            assert array.shape == (c.n_flows,)
        for array in (
            c.consumer_cost,
            c.class_flow,
            c.class_node,
            c.class_fn_index,
            c.max_consumers,
            c.class_family,
        ):
            assert array.shape == (c.n_classes,)

    def test_family_positions_partition_classes(self, compiled_base):
        c = compiled_base
        merged = np.concatenate(
            (
                c.log_class_positions,
                c.pow_class_positions,
                c.generic_class_positions,
            )
        )
        assert sorted(merged.tolist()) == list(range(c.n_classes))

    def test_incidence_matches_cost_model(self, compiled_base):
        c = compiled_base
        problem = c.problem
        # Every incidence pair stored exactly once, in row-major order,
        # with the cost model's cost.
        expected_links = [
            (l, i, problem.costs.link(lid, c.flow_ids[i]))
            for l, lid in enumerate(c.link_ids)
            for i in sorted(c.flow_ids.index(fid) for fid in problem.flows_on_link(lid))
        ]
        assert list(zip(c.ln_link.tolist(), c.ln_flow.tolist(), c.ln_cost.tolist())) == (
            expected_links
        )
        expected_nodes = [
            (b, i, problem.costs.flow_node(nid, c.flow_ids[i]))
            for b, nid in enumerate(c.node_ids)
            for i in sorted(c.flow_ids.index(fid) for fid in problem.flows_at_node(nid))
        ]
        assert list(zip(c.fn_node.tolist(), c.fn_flow.tolist(), c.fn_cost.tolist())) == (
            expected_nodes
        )
        for j, cid in enumerate(c.class_ids):
            cls = problem.classes[cid]
            assert c.consumer_cost[j] == problem.costs.consumer(cls.node, cid)
            assert c.flow_ids[c.class_flow[j]] == cls.flow_id
            assert c.node_ids[c.class_node[j]] == cls.node
            assert c.max_consumers[j] == cls.max_consumers
            cell = c.class_fn_index[j]
            assert (c.fn_node[cell], c.fn_flow[cell]) == (c.class_node[j], c.class_flow[j])


class TestConverters:
    def test_rates_round_trip(self, compiled_base):
        c = compiled_base
        rates = {fid: 10.0 + i for i, fid in enumerate(c.flow_ids)}
        assert c.rates_dict(c.rates_vector(rates)) == rates

    def test_rates_default_to_minimum(self, compiled_base):
        c = compiled_base
        assert np.array_equal(c.rates_vector(), c.rate_min)
        assert np.array_equal(c.rates_vector({}), c.rate_min)

    def test_populations_round_trip(self, compiled_base):
        c = compiled_base
        populations = {cid: j % 5 for j, cid in enumerate(c.class_ids)}
        assert c.populations_dict(c.populations_vector(populations)) == (
            populations
        )

    def test_price_vectors_follow_vocabulary_order(self, compiled_base):
        c = compiled_base
        prices = {nid: float(b) for b, nid in enumerate(c.node_ids)}
        assert c.node_prices_vector(prices).tolist() == [
            float(b) for b in range(c.n_nodes)
        ]
        assert c.link_prices_vector({}).tolist() == [0.0] * c.n_links


class TestFamilyClassification:
    def test_base_workload_is_all_log(self, compiled_base):
        c = compiled_base
        assert np.all(c.class_family == FAMILY_LOG)
        assert np.all(c.flow_family == FAMILY_LOG)
        assert c.generic_class_positions.size == 0

    def test_power_workload_is_all_pow(self):
        c = compile_problem(base_workload("pow50"))
        assert np.all(c.class_family == FAMILY_POW)
        assert np.all(c.flow_family == FAMILY_POW)

    def test_mixed_family_flow_falls_back_to_generic(self):
        # Flow "fa" hosts classes ca and cb; turning ca's log utility
        # into a power one leaves fa with mixed member families.
        mixed = replace_class_utility(
            micro_workload(), "ca", PowerUtility(scale=10.0)
        )
        c = compile_problem(mixed)
        assert c.flow_family[c.flow_ids.index("fa")] == FAMILY_GENERIC
        assert c.flow_family[c.flow_ids.index("fb")] == FAMILY_LOG

    def test_log_offset_mismatch_falls_back_to_generic(self):
        # Same family but different offsets: no shared closed form.
        shifted = replace_class_utility(
            micro_workload(), "ca", LogUtility(scale=10.0, offset=7.0)
        )
        c = compile_problem(shifted)
        assert c.flow_family[c.flow_ids.index("fa")] == FAMILY_GENERIC
        assert c.flow_family[c.flow_ids.index("fb")] == FAMILY_LOG


class TestLoweredAccounting:
    def test_usages_and_utility_match_dict_model(self, compiled_base):
        c = compiled_base
        problem = c.problem
        rates = {fid: 0.5 * (c.rate_min[i] + c.rate_max[i])
                 for i, fid in enumerate(c.flow_ids)}
        populations = {cid: int(c.max_consumers[j] // 2)
                       for j, cid in enumerate(c.class_ids)}
        allocation = Allocation(rates=dict(rates), populations=populations)
        r = c.rates_vector(rates)
        n = c.populations_vector(populations)

        link = c.link_usages(r)
        for l, lid in enumerate(c.link_ids):
            assert link[l] == pytest.approx(link_usage(problem, allocation, lid))
        node = c.node_usages(r, n.astype(np.float64))
        for b, nid in enumerate(c.node_ids):
            assert node[b] == pytest.approx(node_usage(problem, allocation, nid))
        assert c.total_utility(r, n) == pytest.approx(
            total_utility(problem, allocation)
        )

    def test_class_values_match_utilities(self, compiled_base):
        c = compiled_base
        r = c.rates_vector(
            {fid: 12.0 + i for i, fid in enumerate(c.flow_ids)}
        )
        values = c.class_values(r)
        for j in range(c.n_classes):
            rate = float(r[c.class_flow[j]])
            assert values[j] == pytest.approx(c.utilities[j].value(rate))
