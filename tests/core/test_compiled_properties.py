"""Property tests: lowered accounting round-trips the dict-based model.

For random generated workloads and random interior states, every
quantity the :class:`~repro.core.compiled.CompiledProblem` computes by
scatter-adds over its COO incidence arrays must equal the dict-based
accounting in :mod:`repro.model.allocation` /
:mod:`repro.core.rate_allocation` — the single sources of truth for the
paper's equations.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiled import compile_problem
from repro.core.rate_allocation import aggregate_flow_price
from repro.model.allocation import (
    Allocation,
    link_usage,
    node_usage,
    total_utility,
)
from repro.workloads.generator import GeneratorConfig, generate_workload

SHAPES = ("log", "pow25", "pow50", "pow75")


def _draw_state(data, problem):
    """Random rates (in bounds), populations (in bounds) and prices."""
    rates = {
        fid: data.draw(
            st.floats(
                min_value=flow.rate_min,
                max_value=flow.rate_max,
                allow_nan=False,
            ),
            label=f"rate:{fid}",
        )
        for fid, flow in problem.flows.items()
    }
    populations = {
        cid: data.draw(
            st.integers(min_value=0, max_value=cls.max_consumers),
            label=f"n:{cid}",
        )
        for cid, cls in problem.classes.items()
    }
    node_prices = {
        nid: data.draw(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            label=f"p:{nid}",
        )
        for nid in problem.consumer_nodes()
    }
    link_prices = {
        lid: data.draw(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            label=f"pl:{lid}",
        )
        for lid in problem.bottleneck_links()
    }
    return rates, populations, node_prices, link_prices


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shape=st.sampled_from(SHAPES),
    data=st.data(),
)
def test_lowered_accounting_round_trips(seed, shape, data):
    problem = generate_workload(GeneratorConfig(shape=shape), seed=seed)
    compiled = compile_problem(problem)
    rates, populations, node_prices, link_prices = _draw_state(data, problem)
    allocation = Allocation(rates=dict(rates), populations=dict(populations))

    r = compiled.rates_vector(rates)
    n = compiled.populations_vector(populations)
    nf = n.astype(np.float64)

    # eq. 8-9: per-flow aggregate prices.
    prices = compiled.flow_prices(
        nf,
        compiled.node_prices_vector(node_prices),
        compiled.link_prices_vector(link_prices),
    )
    for i, fid in enumerate(compiled.flow_ids):
        expected = aggregate_flow_price(
            problem, fid, populations, node_prices, link_prices
        )
        assert np.isclose(prices[i], expected, rtol=1e-9, atol=1e-9)

    # eq. 4/5 left-hand sides.
    links = compiled.link_usages(r)
    for l, lid in enumerate(compiled.link_ids):
        assert np.isclose(
            links[l], link_usage(problem, allocation, lid), rtol=1e-9, atol=1e-9
        )
    nodes = compiled.node_usages(r, nf)
    # The consumer-independent part of eq. 5: node usage with no consumers.
    flow_costs = compiled.node_flow_costs(r)
    no_consumers = Allocation(rates=dict(rates), populations={})
    for b, nid in enumerate(compiled.node_ids):
        assert np.isclose(
            nodes[b], node_usage(problem, allocation, nid), rtol=1e-9, atol=1e-9
        )
        assert np.isclose(
            flow_costs[b], node_usage(problem, no_consumers, nid), rtol=1e-9, atol=1e-9
        )

    # eq. 6: the objective.
    assert np.isclose(
        compiled.total_utility(r, n),
        total_utility(problem, allocation),
        rtol=1e-9,
        atol=1e-9,
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_dict_vector_converters_round_trip(seed, data):
    problem = generate_workload(seed=seed)
    compiled = compile_problem(problem)
    rates, populations, _, _ = _draw_state(data, problem)
    assert compiled.rates_dict(compiled.rates_vector(rates)) == rates
    assert (
        compiled.populations_dict(compiled.populations_vector(populations))
        == populations
    )
