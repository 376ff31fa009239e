"""Price updates of the vectorized engine (eq. 12-13) vs the controllers.

The vectorized engine applies eq. 13 as one array expression over the
link axis and eq. 12 as a loop over plain node-state lists.  Both must
keep the reference controllers' contract: the same ``ValueError`` text on
invalid inputs, the same ``price_update`` / ``gamma_step`` telemetry
stream, and accessors that hand out plain Python ``int`` / ``float``
(canonical hashes and ``SolveResult`` depend on it).
"""

import math

import numpy as np
import pytest

from repro.core.compiled import VectorizedEngine
from repro.core.gamma import AdaptiveGamma
from repro.core.lrgp import LRGP, LRGPConfig
from repro.core.prices import LinkPriceController, NodePriceController
from repro.obs.telemetry import Telemetry
from repro.utility.tolerance import ENGINE_EQUIVALENCE_RTOL
from repro.workloads.base import base_workload
from repro.workloads.bottleneck import link_bottleneck_workload
from repro.workloads.datacenter import leaf_spine_workload
from repro.workloads.scaling import scale_flows

EVENT_WORKLOADS = {
    "base": base_workload,
    "flows-x4": lambda: scale_flows(4),
    "link-bottleneck": lambda: link_bottleneck_workload(200000.0),
}


def reference_error(update) -> str:
    with pytest.raises(ValueError) as caught:
        update()
    return str(caught.value)


@pytest.fixture
def fabric_engine():
    """A small fabric: several consumer nodes and finite-capacity links."""
    problem = leaf_spine_workload(spines=2, leaves=4, flows=6)
    engine = VectorizedEngine(problem, LRGPConfig.adaptive())
    engine.step()
    return engine


class TestLinkUsageValidation:
    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf, -0.5e-300])
    def test_same_error_as_link_controller(self, fabric_engine, bad):
        n_links = fabric_engine.compiled.n_links
        assert n_links >= 3
        usage = np.full(n_links, 10.0)
        usage[2] = bad
        expected = reference_error(lambda: LinkPriceController(100.0).update(bad))
        with pytest.raises(ValueError) as caught:
            fabric_engine._update_link_prices(usage)
        assert str(caught.value) == expected

    def test_first_invalid_link_is_reported(self, fabric_engine):
        usage = np.full(fabric_engine.compiled.n_links, 10.0)
        usage[1] = -2.0
        usage[3] = math.nan
        with pytest.raises(ValueError, match=r"got -2\.0$"):
            fabric_engine._update_link_prices(usage)

    def test_prices_untouched_on_error(self, fabric_engine):
        before = fabric_engine.link_prices()
        usage = np.full(fabric_engine.compiled.n_links, math.nan)
        with pytest.raises(ValueError):
            fabric_engine._update_link_prices(usage)
        assert fabric_engine.link_prices() == before


class TestNodeInputValidation:
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_benefit_cost_error_matches_node_controller(self, fabric_engine, bad):
        n_nodes = fabric_engine.compiled.n_nodes
        best = [0.5] * n_nodes
        best[1] = bad
        used = [10.0] * n_nodes
        controller = NodePriceController(100.0, AdaptiveGamma())
        expected = reference_error(
            lambda: controller.update(benefit_cost=bad, used=10.0)
        )
        with pytest.raises(ValueError) as caught:
            fabric_engine._update_node_prices(best, used)
        assert str(caught.value) == expected

    @pytest.mark.parametrize("bad", [-3.0, math.nan, math.inf])
    def test_used_error_matches_node_controller(self, fabric_engine, bad):
        n_nodes = fabric_engine.compiled.n_nodes
        best = [0.5] * n_nodes
        used = [10.0] * n_nodes
        used[0] = bad
        controller = NodePriceController(100.0, AdaptiveGamma())
        expected = reference_error(
            lambda: controller.update(benefit_cost=0.5, used=bad)
        )
        with pytest.raises(ValueError) as caught:
            fabric_engine._update_node_prices(best, used)
        assert str(caught.value) == expected


def price_events(optimizer: LRGP, iterations: int) -> list:
    for _ in range(iterations):
        optimizer.step()
    sink = optimizer.config.telemetry.sink
    return [e for e in sink.events if e.kind in ("price_update", "gamma_step")]


def assert_close(actual: float | None, expected: float | None) -> None:
    if expected is None:
        assert actual is None
        return
    assert actual == pytest.approx(
        expected, rel=ENGINE_EQUIVALENCE_RTOL, abs=ENGINE_EQUIVALENCE_RTOL
    )


@pytest.mark.parametrize("name", sorted(EVENT_WORKLOADS))
def test_price_event_stream_matches_reference(name):
    problem = EVENT_WORKLOADS[name]()
    streams = {}
    for engine in ("reference", "vectorized"):
        config = LRGPConfig.adaptive(telemetry=Telemetry(enabled=True))
        streams[engine] = price_events(LRGP(problem, config, engine=engine), 60)
    reference, vectorized = streams["reference"], streams["vectorized"]
    assert reference, "the workload must exercise the price controllers"
    assert any(e.kind == "gamma_step" for e in reference)
    assert len(vectorized) == len(reference)
    for expected, actual in zip(reference, vectorized):
        assert actual.kind == expected.kind
        assert actual.resource == expected.resource
        if expected.kind == "gamma_step":
            assert actual.fluctuated == expected.fluctuated
            assert_close(actual.old_gamma, expected.old_gamma)
            assert_close(actual.new_gamma, expected.new_gamma)
        else:
            assert actual.resource_kind == expected.resource_kind
            assert actual.branch == expected.branch
            for field in ("old_price", "new_price", "step", "usage", "capacity"):
                assert_close(getattr(actual, field), getattr(expected, field))
                assert type(getattr(actual, field)) is float


class TestAccessorTypes:
    @pytest.mark.parametrize(
        "problem_factory", [base_workload, lambda: leaf_spine_workload(flows=8)]
    )
    def test_accessors_hand_out_python_scalars(self, problem_factory):
        engine = VectorizedEngine(problem_factory(), LRGPConfig.adaptive())
        for _ in range(5):
            engine.step()
        for value in engine.populations().values():
            assert type(value) is int
        for accessor in (
            engine.rates,
            engine.node_prices,
            engine.link_prices,
            engine.node_gammas,
        ):
            values = accessor()
            assert values or not engine.compiled.n_links, accessor
            assert all(type(value) is float for value in values.values()), accessor
