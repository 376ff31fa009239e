"""Tests that the base workload matches Table 1 exactly."""

import pytest

from repro.model.costs import (
    GRYPHON_CONSUMER_COST,
    GRYPHON_FLOW_NODE_COST,
    GRYPHON_NODE_CAPACITY,
)
from repro.utility.functions import LogUtility, PowerUtility
from repro.workloads.base import (
    TABLE1_CLASS_SPECS,
    WorkloadParams,
    base_workload,
    build_workload,
)
from repro.workloads.registry import workload_from_spec

#: (class pair, flow, nodes, n_max, rank) straight from Table 1.
TABLE1_ROWS = [
    ((0, 1), "f0", ("S0", "S2"), 400, 20.0),
    ((2, 3), "f0", ("S0", "S2"), 800, 5.0),
    ((4, 5), "f0", ("S0", "S2"), 2000, 1.0),
    ((6, 7), "f1", ("S0", "S1"), 1000, 15.0),
    ((8, 9), "f2", ("S1", "S2"), 1500, 10.0),
    ((10, 11), "f3", ("S0", "S2"), 400, 30.0),
    ((12, 13), "f3", ("S0", "S2"), 800, 3.0),
    ((14, 15), "f3", ("S0", "S2"), 2000, 2.0),
    ((16, 17), "f4", ("S0", "S1"), 1000, 40.0),
    ((18, 19), "f5", ("S1", "S2"), 1500, 100.0),
]


class TestTable1Exactness:
    def test_shape(self, base_problem):
        assert len(base_problem.flows) == 6
        assert len(base_problem.classes) == 20
        assert base_problem.consumer_nodes() == ("S0", "S1", "S2")

    @pytest.mark.parametrize("pair,flow,nodes,n_max,rank", TABLE1_ROWS)
    def test_class_rows(self, base_problem, pair, flow, nodes, n_max, rank):
        for index, node in zip(pair, nodes):
            cls = base_problem.classes[f"c{index:02d}"]
            assert cls.flow_id == flow
            assert cls.node == node
            assert cls.max_consumers == n_max
            assert isinstance(cls.utility, LogUtility)
            assert cls.utility.scale == rank

    def test_resource_model(self, base_problem):
        for node_id in base_problem.consumer_nodes():
            assert base_problem.nodes[node_id].capacity == GRYPHON_NODE_CAPACITY
            for flow_id in base_problem.flows_at_node(node_id):
                if node_id == "P":
                    continue
                assert (
                    base_problem.costs.flow_node(node_id, flow_id)
                    == GRYPHON_FLOW_NODE_COST
                )
            for class_id in base_problem.classes_at_node(node_id):
                assert (
                    base_problem.costs.consumer(node_id, class_id)
                    == GRYPHON_CONSUMER_COST
                )

    def test_rate_bounds(self, base_problem):
        for flow in base_problem.flows.values():
            assert flow.rate_min == 10.0
            assert flow.rate_max == 1000.0

    def test_flows_routed_only_where_classes_live(self, base_problem):
        for flow_id in base_problem.flows:
            reached = set(base_problem.route(flow_id).nodes) - {"P"}
            hosting = {
                base_problem.classes[c].node
                for c in base_problem.classes_of_flow(flow_id)
            }
            assert reached == hosting

    def test_no_link_bottlenecks(self, base_problem):
        assert base_problem.bottleneck_links() == ()

    def test_specs_table_consistent(self):
        assert len(TABLE1_CLASS_SPECS) == 10


class TestUtilityShapes:
    def test_power_shape(self):
        problem = base_workload("pow25")
        cls = problem.classes["c00"]
        assert isinstance(cls.utility, PowerUtility)
        assert cls.utility.exponent == 0.25
        assert cls.utility.scale == 20.0

    def test_callable_shape(self):
        problem = base_workload(lambda rank: LogUtility(scale=rank, offset=2.0))
        assert problem.classes["c00"].utility.offset == 2.0

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError, match="unknown utility shape"):
            base_workload("cubic")
        # Every family that takes a shape resolves it the same way.
        for spec in ("base:", "flows:factor=2,", "cnodes:factor=2,", "tree:",
                     "leafspine:", "fattree:", "bottleneck:", "generated:"):
            with pytest.raises(
                ValueError, match=r"unknown utility shape 'cubic'; expected one of"
            ):
                workload_from_spec(spec + "shape=cubic")

    def test_bad_replication_rejected(self):
        with pytest.raises(ValueError):
            build_workload(WorkloadParams(flow_replicas=0))
