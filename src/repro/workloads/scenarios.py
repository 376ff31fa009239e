"""The motivating scenarios of section 1.1, as runnable workloads.

* :func:`trade_data_scenario` — a trade feed with high-priority *gold*
  consumers (paying brokerages, reliable delivery, near-inelastic) and
  numerous *public* consumers whose messages are stripped of gold-only
  fields; admission control sheds public consumers under pressure.
* :func:`latest_price_scenario` — an elastic latest-price feed where
  consumers apply content filters (``price > threshold``); the system can
  shed load by reducing the producer rate or denying consumers, or both.

Each scenario returns the optimization :class:`Problem` plus the per-class
transforms and per-flow payload factories needed to run it on the
:mod:`repro.events` simulator.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.model.costs import (
    GRYPHON_CONSUMER_COST,
    GRYPHON_FLOW_NODE_COST,
    GRYPHON_NODE_CAPACITY,
    CostModelBuilder,
)
from repro.model.entities import ConsumerClass, Flow, Link, Node, Route
from repro.model.problem import Problem, build_problem
from repro.utility.functions import ExponentialSaturationUtility, LogUtility

if TYPE_CHECKING:
    from repro.events.pubsub import PayloadFactory
    from repro.events.transforms import Transform


@dataclass(frozen=True)
class Scenario:
    """A problem plus the simulator dressing that makes it a live system."""

    name: str
    problem: Problem
    transforms: Mapping[str, Transform] = field(default_factory=dict)
    payload_factories: Mapping[str, PayloadFactory] = field(default_factory=dict)


def trade_data_scenario(
    gold_consumers: int = 50,
    public_consumers: int = 5000,
    node_capacity: float = GRYPHON_NODE_CAPACITY,
) -> Scenario:
    """The Trade Data example.

    One flow of trade messages.  Gold consumers (brokerages) are few, pay
    for the data, require reliable delivery — modeled as a high-rank
    near-inelastic (saturating) utility and a higher per-consumer cost (the
    acknowledgement and reliability overhead the paper describes).  Public
    consumers are numerous, low-rank, elastic (log utility), and receive
    messages with the gold-only fields removed.
    """
    from repro.events.transforms import ProjectTransform

    nodes = [
        Node("hub", capacity=math.inf),
        Node("brokerage", capacity=node_capacity),
        Node("internet-pop", capacity=node_capacity),
    ]
    links = [
        Link("hub->brokerage", tail="hub", head="brokerage"),
        Link("hub->internet-pop", tail="hub", head="internet-pop"),
    ]
    flow = Flow("trades", source="hub", rate_min=50.0, rate_max=2000.0)
    classes = [
        ConsumerClass(
            class_id="gold",
            flow_id="trades",
            node="brokerage",
            max_consumers=gold_consumers,
            # Saturates near 500 msg/s: gold consumers want the full feed
            # and gain little from rates beyond it (inelastic beyond knee).
            utility=ExponentialSaturationUtility(scale=5000.0, knee=500.0),
        ),
        ConsumerClass(
            class_id="public",
            flow_id="trades",
            node="internet-pop",
            max_consumers=public_consumers,
            utility=LogUtility(scale=5.0),
        ),
    ]
    routes = {
        "trades": Route(
            nodes=("hub", "brokerage", "internet-pop"),
            links=("hub->brokerage", "hub->internet-pop"),
        )
    }
    costs = (
        CostModelBuilder()
        .set_flow_node("brokerage", "trades", GRYPHON_FLOW_NODE_COST)
        .set_flow_node("internet-pop", "trades", GRYPHON_FLOW_NODE_COST)
        # Reliable delivery (acks, retransmit state) costs extra per gold
        # consumer; public delivery includes the field-stripping work.
        .set_consumer("brokerage", "gold", 3.0 * GRYPHON_CONSUMER_COST)
        .set_consumer("internet-pop", "public", GRYPHON_CONSUMER_COST)
        .set_link("hub->brokerage", "trades", 1.0)
        .set_link("hub->internet-pop", "trades", 1.0)
        .build()
    )
    problem = build_problem(
        nodes=nodes, links=links, flows=[flow], classes=classes, routes=routes,
        costs=costs,
    )

    rng = random.Random(7)

    def trade_payload(sequence: int) -> dict:
        return {
            "symbol": "IBM",
            "price": round(80.0 + rng.gauss(0.0, 5.0), 2),
            "volume": rng.randint(100, 10_000),
            # Gold-only fields, stripped before public delivery:
            "counterparty": f"firm-{rng.randint(1, 20)}",
            "order_book_depth": rng.randint(1, 50),
        }

    return Scenario(
        name="trade-data",
        problem=problem,
        transforms={
            "public": ProjectTransform(["counterparty", "order_book_depth"])
        },
        payload_factories={"trades": trade_payload},
    )


def latest_price_scenario(
    consumer_nodes: int = 2,
    consumers_per_class: int = 2000,
    price_threshold: float = 80.0,
    node_capacity: float = GRYPHON_NODE_CAPACITY,
) -> Scenario:
    """The Latest Price Data example.

    One very elastic flow of latest-price updates.  Consumers specify a
    content filter (``price > threshold``); the system evaluates the filter
    per message per consumer class — which is exactly the per-consumer CPU
    cost ``G`` models.  Rate can be lowered (updates skipped, latency grows)
    or consumers denied, or both.
    """
    from repro.events.transforms import FilterTransform

    if consumer_nodes < 1:
        raise ValueError("need at least one consumer node")
    node_names = [f"pop{index}" for index in range(consumer_nodes)]
    nodes = [Node("hub", capacity=math.inf)] + [
        Node(name, capacity=node_capacity) for name in node_names
    ]
    links = [Link(f"hub->{name}", tail="hub", head=name) for name in node_names]
    flow = Flow("prices", source="hub", rate_min=1.0, rate_max=500.0)
    classes = []
    costs = CostModelBuilder()
    transforms: dict[str, Transform] = {}
    for index, name in enumerate(node_names):
        class_id = f"watchers-{name}"
        classes.append(
            ConsumerClass(
                class_id=class_id,
                flow_id="prices",
                node=name,
                max_consumers=consumers_per_class,
                utility=LogUtility(scale=10.0),
            )
        )
        costs.set_consumer(name, class_id, GRYPHON_CONSUMER_COST)
        costs.set_flow_node(name, "prices", GRYPHON_FLOW_NODE_COST)
        costs.set_link(f"hub->{name}", "prices", 1.0)
        threshold = price_threshold + 2.0 * index
        transforms[class_id] = FilterTransform(
            lambda payload, t=threshold: payload.get("price", 0.0) > t
        )
    routes = {
        "prices": Route(
            nodes=("hub", *node_names),
            links=tuple(f"hub->{name}" for name in node_names),
        )
    }
    problem = build_problem(
        nodes=nodes, links=links, flows=[flow], classes=classes, routes=routes,
        costs=costs.build(),
    )

    rng = random.Random(11)
    price = [80.0]

    def price_payload(sequence: int) -> dict:
        price[0] = max(1.0, price[0] + rng.gauss(0.0, 0.5))
        return {"symbol": "IBM", "price": round(price[0], 2)}

    return Scenario(
        name="latest-price",
        problem=problem,
        transforms=transforms,
        payload_factories={"prices": price_payload},
    )
