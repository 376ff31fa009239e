"""Problem lowering and the vectorized LRGP engine.

The reference engine walks Python dicts per flow/node/link; at Table 2
scale that is thousands of interpreter round trips per iteration.  This
module lowers a frozen :class:`~repro.model.problem.Problem` into numpy
arrays once (:func:`compile_problem`) and then runs every LRGP iteration
as batched array ops (:class:`VectorizedEngine`):

* **Rate allocation** (Algorithm 1, eq. 7-9) — aggregate path prices over
  the link/flow and node/flow incidence structure, then a batched
  closed-form argmax per utility family: all-log flows via
  ``sum(n*scale)/price - offset``, all-power flows via the collapsed
  inverse derivative.  Flows whose classes mix shapes (or use a shape with
  no closed form) fall back to the *fallback column*: the reference rate
  solver (:func:`~repro.utility.calculus.solve_rate`) itself, per flow.
* **Consumer allocation** (Algorithm 2, eq. 10-11) — a *presorted greedy
  fill*: classes that saturate in any order are admitted by one masked
  assignment, the contended rest is ordered by one stable ``lexsort`` per
  step (the reference order), and a scalar loop over plain Python floats
  fills each node's budget in that order until it provably admits nothing
  more.  Admission counts match the reference bit for bit.
* **Price updates** (eq. 12-13) — eq. 13 is one elementwise
  ``max(p + γ(u - c), 0)`` over the link axis (10k+ links on datacenter
  fabrics), bit-identical to the scalar controller.  Eq. 12 and its
  step-size schedule (section 4.2) run the reference engine's own
  :class:`~repro.core.prices.NodePriceController` objects, one per
  consumer node: that axis is short (3 nodes in the base workload, 100 on
  the 1k-flow fabric), so arrays stay on the flow, class and link axes.

The link/flow and node/flow incidence is stored as COO-style index arrays
(``ln_link``/``ln_flow``/``ln_cost`` and ``fn_node``/``fn_flow``/
``fn_cost``); prices and usages are ``np.bincount`` scatter-adds over
them.  Memory and per-iteration cost scale with the number of incidence
*nonzeros* — a flow touches only the links and nodes on its route — so
1k+ flows over 10k+ links stay cheap, and at paper scale the scatter-adds
tie the matrix products a dense layout would use.

The engine is validated against the reference trajectory within
:data:`repro.utility.tolerance.ENGINE_EQUIVALENCE_RTOL` at every iteration
(``tests/core/test_engines.py``); the speedup and the incidence footprint
are tracked in ``benchmarks/test_perf_engines.py``.

Scope notes: the node axis of the lowered arrays covers *consumer* nodes
(the only nodes carrying prices) and the link axis covers *finite-capacity*
links (the only links carrying prices), mirroring which controllers the
reference driver instantiates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from repro.core.consumer_allocation import (
    _FLOOR_SLACK,  # shared admission flooring slack; same constant by design
    allocate_consumers,
)
from repro.core.engines import LRGPEngine, StepOutcome, bind_node_controllers
from repro.core.gamma import FixedGamma
from repro.core.prices import NodePriceController, _validate_price
from repro.model.entities import ClassId, FlowId, LinkId, NodeId
from repro.model.problem import Problem
from repro.obs.events import AdmissionEvent, now_ns
from repro.utility.base import UtilityFunction
from repro.utility.calculus import solve_rate
from repro.utility.functions import LogUtility, PowerUtility, ScaledUtility
from repro.utility.tolerance import close_enough

if TYPE_CHECKING:
    from repro.core.lrgp import LRGPConfig
    from repro.obs.telemetry import PriceProbe

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int64]

#: Utility-family codes used by the batched rate solver.
FAMILY_LOG = 0
FAMILY_POW = 1
FAMILY_GENERIC = 2


def _classify(
    utility: UtilityFunction, factor: float = 1.0
) -> tuple[int, float, float, float]:
    """Map a utility onto ``(family, effective_scale, offset, exponent)``.

    :class:`~repro.utility.functions.ScaledUtility` wrappers are unwrapped
    recursively, folding their factor into the effective scale; anything
    that is not (a rescaling of) the log or power family is generic and
    handled by the fallback column.
    """
    if isinstance(utility, ScaledUtility):
        return _classify(utility.base, factor * utility.factor)
    if isinstance(utility, LogUtility):
        return FAMILY_LOG, factor * utility.scale, utility.offset, 0.0
    if isinstance(utility, PowerUtility):
        return FAMILY_POW, factor * utility.scale, 0.0, utility.exponent
    return FAMILY_GENERIC, 0.0, 0.0, 0.0


@dataclass(frozen=True)
class CompiledProblem:
    """A :class:`Problem` lowered to index and incidence arrays.

    Index vocabularies are sorted tuples of ids; every array is positioned
    on them.  The incidence is stored as parallel COO-style index arrays
    in row-major order: ``(ln_link, ln_flow, ln_cost)`` holds one entry
    per (bottleneck link, flow-on-it) pair — the paper's ``L`` restricted
    to its nonzero pattern — and ``(fn_node, fn_flow, fn_cost)`` one entry
    per (consumer node, flow-at-it) pair (``F``).  ``consumer_cost`` holds
    ``G`` for each class at its hosting node and ``class_fn_index`` points
    each class at its node/flow cell in the ``fn_*`` arrays (the class's
    node is always on its flow's route, so the cell always exists) for
    one-pass scatter-add of the population-dependent eq. 9 coefficients.
    The ``*_class_positions`` arrays pre-split the class axis by utility
    family so the batched evaluators touch only the columns they
    understand.
    """

    problem: Problem
    flow_ids: tuple[FlowId, ...]
    node_ids: tuple[NodeId, ...]
    link_ids: tuple[LinkId, ...]
    class_ids: tuple[ClassId, ...]
    rate_min: FloatArray
    rate_max: FloatArray
    node_capacity: FloatArray
    link_capacity: FloatArray
    ln_link: IntArray
    ln_flow: IntArray
    ln_cost: FloatArray
    fn_node: IntArray
    fn_flow: IntArray
    fn_cost: FloatArray
    consumer_cost: FloatArray
    class_flow: IntArray
    class_node: IntArray
    class_fn_index: IntArray
    max_consumers: IntArray
    utilities: tuple[UtilityFunction, ...]
    class_family: IntArray
    class_scale: FloatArray
    class_offset: FloatArray
    class_exponent: FloatArray
    flow_family: IntArray
    flow_offset: FloatArray
    flow_exponent: FloatArray
    node_class_positions: tuple[IntArray, ...]
    log_class_positions: IntArray
    pow_class_positions: IntArray
    generic_class_positions: IntArray

    @property
    def n_flows(self) -> int:
        return len(self.flow_ids)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_links(self) -> int:
        return len(self.link_ids)

    @property
    def n_classes(self) -> int:
        return len(self.class_ids)

    @property
    def nnz_link(self) -> int:
        """Stored (link, flow) incidence entries."""
        return int(self.ln_cost.size)

    @property
    def nnz_node(self) -> int:
        """Stored (node, flow) incidence entries."""
        return int(self.fn_cost.size)

    def dense_materialized(self) -> bool:
        """Always ``False``; kept for the repository benchmark's memory metric."""
        return False

    def sparse_nbytes(self) -> int:
        """Bytes held by the COO incidence entries (both axes)."""
        return int(
            self.ln_link.nbytes
            + self.ln_flow.nbytes
            + self.ln_cost.nbytes
            + self.fn_node.nbytes
            + self.fn_flow.nbytes
            + self.fn_cost.nbytes
            + self.class_fn_index.nbytes
        )

    def dense_nbytes(self) -> int:
        """Bytes dense incidence matrices would occupy (the perf bench's
        memory-ratio floor compares against it)."""
        return 8 * (self.n_links + self.n_nodes) * self.n_flows

    # -- dict <-> vector converters ---------------------------------------

    def rates_vector(self, rates: dict[FlowId, float] | None = None) -> FloatArray:
        """Per-flow rate vector; missing entries default to ``rate_min``."""
        if rates is None:
            return self.rate_min.copy()
        return np.array(
            [
                float(rates.get(fid, self.problem.flows[fid].rate_min))
                for fid in self.flow_ids
            ],
            dtype=np.float64,
        )

    def populations_vector(
        self, populations: dict[ClassId, int] | None = None
    ) -> IntArray:
        """Per-class population vector; missing entries default to 0."""
        if populations is None:
            return np.zeros(self.n_classes, dtype=np.int64)
        return np.array(
            [int(populations.get(cid, 0)) for cid in self.class_ids], dtype=np.int64
        )

    def node_prices_vector(self, prices: dict[NodeId, float]) -> FloatArray:
        return np.array(
            [float(prices.get(nid, 0.0)) for nid in self.node_ids], dtype=np.float64
        )

    def link_prices_vector(self, prices: dict[LinkId, float]) -> FloatArray:
        return np.array(
            [float(prices.get(lid, 0.0)) for lid in self.link_ids], dtype=np.float64
        )

    def rates_dict(self, rates: FloatArray) -> dict[FlowId, float]:
        return {fid: float(rates[i]) for i, fid in enumerate(self.flow_ids)}

    def populations_dict(self, populations: IntArray) -> dict[ClassId, int]:
        return {cid: int(populations[j]) for j, cid in enumerate(self.class_ids)}

    # -- lowered accounting --------------------------------------------------

    def cell_coefficients(self, populations: FloatArray) -> FloatArray:
        """Eq. 9 coefficients ``F + sum_j G_j n_j`` per *stored* cell.

        One entry per ``fn_*`` incidence pair; every class scatter-adds
        into its own cell via ``class_fn_index``.
        """
        return np.asarray(
            self.fn_cost
            + np.bincount(
                self.class_fn_index,
                weights=self.consumer_cost * populations,
                minlength=self.nnz_node,
            ),
            dtype=np.float64,
        )

    def flow_prices(
        self,
        populations: FloatArray,
        node_prices: FloatArray,
        link_prices: FloatArray,
    ) -> FloatArray:
        """``PL_i + PB_i`` for every flow (eq. 8-9) via scatter-adds."""
        pl = np.bincount(
            self.ln_flow,
            weights=link_prices[self.ln_link] * self.ln_cost,
            minlength=self.n_flows,
        )
        pb = np.bincount(
            self.fn_flow,
            weights=node_prices[self.fn_node] * self.cell_coefficients(populations),
            minlength=self.n_flows,
        )
        return np.asarray(pl + pb, dtype=np.float64)

    def link_usages(self, rates: FloatArray) -> FloatArray:
        """LHS of eq. 4 for every bottleneck link via scatter-adds."""
        return np.asarray(
            np.bincount(
                self.ln_link,
                weights=self.ln_cost * rates[self.ln_flow],
                minlength=self.n_links,
            ),
            dtype=np.float64,
        )

    def node_usages(self, rates: FloatArray, populations: FloatArray) -> FloatArray:
        """LHS of eq. 5 for every consumer node via scatter-adds."""
        return np.asarray(
            np.bincount(
                self.fn_node,
                weights=self.cell_coefficients(populations) * rates[self.fn_flow],
                minlength=self.n_nodes,
            ),
            dtype=np.float64,
        )

    def node_flow_costs(self, rates: FloatArray) -> FloatArray:
        """Per-node consumer-independent flow cost ``sum_i F_{b,i} r_i``."""
        return np.asarray(
            np.bincount(
                self.fn_node,
                weights=self.fn_cost * rates[self.fn_flow],
                minlength=self.n_nodes,
            ),
            dtype=np.float64,
        )

    def class_values(self, rates: FloatArray) -> FloatArray:
        """``U_j(r_{flowMap(j)})`` for every class (batched by family)."""
        class_rate = rates[self.class_flow]
        n = self.n_classes
        if self.log_class_positions.size == n:
            return np.asarray(
                self.class_scale * np.log(self.class_offset + class_rate),
                dtype=np.float64,
            )
        if self.pow_class_positions.size == n:
            return np.asarray(
                self.class_scale * class_rate**self.class_exponent, dtype=np.float64
            )
        out = np.empty(n, dtype=np.float64)
        idx = self.log_class_positions
        if idx.size:
            out[idx] = self.class_scale[idx] * np.log(
                self.class_offset[idx] + class_rate[idx]
            )
        idx = self.pow_class_positions
        if idx.size:
            out[idx] = self.class_scale[idx] * class_rate[idx] ** self.class_exponent[idx]
        for pos in self.generic_class_positions:
            out[pos] = self.utilities[int(pos)].value(float(class_rate[pos]))
        return out

    def total_utility(self, rates: FloatArray, populations: IntArray) -> float:
        """The objective (eq. 6) on lowered state.

        Zero-population classes contribute exactly ``0 * U_j = 0``, so the
        plain dot product equals the reference's skip-if-empty sum.
        """
        values = self.class_values(rates)
        return float(np.dot(populations.astype(np.float64), values))


def compile_problem(problem: Problem) -> CompiledProblem:
    """Lower ``problem`` into a :class:`CompiledProblem`.

    Pure indexing and coefficient gathering — no optimizer state; memory
    here is ``O(nonzeros + classes)``.  The result is immutable and
    reusable across engines bound to the same problem.
    """
    flow_ids = tuple(sorted(problem.flows))
    node_ids = problem.consumer_nodes()
    link_ids = problem.bottleneck_links()
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

    # Sparse incidence entries in row-major (link- / node-major, then flow)
    # order: one entry per pair in the problem's incidence maps, zero-cost
    # pairs included — the *pattern* is what classes scatter into.
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
        # build_problem guarantees the class node is on the flow's route,
        # so the (node, flow) cell exists in the stored pattern.
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
            # No consumers ever: the rate solver only hits boundary cases,
            # so the family is irrelevant; log keeps it off the fallback.
            flow_family[i] = FAMILY_LOG
            continue
        families = class_family[members]
        if np.all(families == FAMILY_LOG):
            offsets = class_offset[members]
            # Exact equality on purpose: it mirrors the reference solver's
            # grouping test (same-offset log terms collapse in closed form).
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


class VectorizedEngine(LRGPEngine):
    """Runs the full LRGP iteration as numpy array ops on lowered state.

    Supports the stock greedy admission only; configs carrying a custom
    admission strategy must use the reference engine (the constructor
    fails loudly rather than silently diverging from the configured
    behavior).  Any :class:`~repro.core.gamma.GammaSchedule` works: eq. 12
    runs the reference :class:`~repro.core.prices.NodePriceController`
    objects.
    """

    name = "vectorized"

    def __init__(self, problem: Problem, config: "LRGPConfig") -> None:
        if config.admission is not allocate_consumers:
            raise ValueError(
                "the vectorized engine implements the paper's greedy admission "
                "only; use engine='reference' for custom admission strategies"
            )
        # Reuse the schedule's validation for the link step size and the
        # controllers' for the initial link price; the node controllers
        # validate the initial node price themselves.
        self._link_gamma = FixedGamma(config.link_gamma).gamma
        _validate_price(config.initial_link_price)
        self._config = config
        self._compiled: CompiledProblem | None = None
        #: One eq. 12 controller per consumer node, in ``node_ids`` order.
        self._node_controllers: dict[NodeId, NodePriceController] = {}
        self._link_probes: list["PriceProbe | None"] = []
        self.bind(problem, preserve_state=False)

    # -- accessors ----------------------------------------------------------

    @property
    def problem(self) -> Problem:
        return self.compiled.problem

    @property
    def compiled(self) -> CompiledProblem:
        """The lowered problem the engine is currently bound to."""
        if self._compiled is None:  # pragma: no cover - bind() runs in __init__
            raise RuntimeError("engine is not bound to a problem")
        return self._compiled

    def rates(self) -> dict[FlowId, float]:
        return self.compiled.rates_dict(self._rates)

    # Populations and link prices live in numpy arrays; ``tolist()`` hands
    # out plain Python ints and floats, which canonical hashes and
    # ``SolveResult`` depend on.

    def populations(self) -> dict[ClassId, int]:
        return dict(zip(self.compiled.class_ids, self._populations.tolist()))

    def node_prices(self) -> dict[NodeId, float]:
        return {nid: c.price for nid, c in self._node_controllers.items()}

    def link_prices(self) -> dict[LinkId, float]:
        return dict(zip(self.compiled.link_ids, self._link_price.tolist()))

    def node_gammas(self) -> dict[NodeId, float]:
        return {nid: c.gamma for nid, c in self._node_controllers.items()}

    # -- binding ------------------------------------------------------------

    def bind(self, problem: Problem, preserve_state: bool) -> None:
        old_rates: dict[FlowId, float] = {}
        old_populations: dict[ClassId, int] = {}
        old_nodes: dict[NodeId, NodePriceController] = {}
        old_links: dict[LinkId, tuple[float, float]] = {}
        if preserve_state and self._compiled is not None:
            previous = self.compiled
            old_rates = self.rates()
            old_populations = self.populations()
            old_nodes = self._node_controllers
            old_links = dict(
                zip(
                    previous.link_ids,
                    zip(previous.link_capacity.tolist(), self._link_price.tolist()),
                )
            )

        # Lowering is the one compile-shaped cost of a (re)bind, so it gets
        # its own profiler phase; the reference engine has no counterpart
        # (its pinned phase tree is untouched).
        with self._config.telemetry.profiler.phase("lower"):
            compiled = compile_problem(problem)
        self._compiled = compiled
        self._rates = compiled.rates_vector(old_rates or None)
        self._populations: IntArray = compiled.populations_vector(
            old_populations or None
        )

        config = self._config
        # The helper builds in consumer_nodes() order, which node_ids
        # follows, so the controllers line up with the node axis; link
        # prices (10k+ at datacenter scale) are an array.
        self._node_controllers = bind_node_controllers(problem, config, old_nodes)
        self._link_price = np.full(compiled.n_links, float(config.initial_link_price))
        if old_links:
            for l, (lid, capacity) in enumerate(
                zip(compiled.link_ids, compiled.link_capacity.tolist())
            ):
                entry = old_links.get(lid)
                if entry is not None and close_enough(entry[0], capacity):
                    self._link_price[l] = entry[1]

        # Static per-bind precomputation: which utility families are present
        # (to skip dead closed-form columns) and the power-family exponent
        # transforms.
        pow_flows = compiled.flow_family == FAMILY_POW
        self._has_log_flows = bool(np.any(compiled.flow_family == FAMILY_LOG))
        self._has_pow_flows = bool(np.any(pow_flows))
        self._log_flow_mask = compiled.flow_family == FAMILY_LOG
        self._pow_safe_exponent = np.where(pow_flows, compiled.flow_exponent, 1.0)
        self._pow_inverse_exponent = np.where(
            pow_flows, 1.0 / (compiled.flow_exponent - 1.0), 0.0
        )
        self._generic_flow_positions = [
            int(i) for i in np.nonzero(compiled.flow_family == FAMILY_GENERIC)[0]
        ]
        # n^max as floats, for the per-node budget that saturates every
        # chargeable class (the rate-dependent unit cost joins per step).
        self._max_consumers_float = compiled.max_consumers.astype(np.float64)

        telemetry = config.telemetry
        if telemetry.enabled:
            self._link_probes = [
                telemetry.probe("link", lid) for lid in compiled.link_ids
            ]
        else:
            self._link_probes = []

    # -- one iteration -------------------------------------------------------

    def step(self) -> StepOutcome:
        compiled = self.compiled
        telemetry = self._config.telemetry
        profiler = telemetry.profiler
        snapshots = self._config.record_snapshots
        slack: dict[str, float] = {}

        with profiler.phase("iteration"):
            # 1. Rate allocation (Algorithm 1): prices from last iteration's
            #    populations, then the batched argmax of eq. 7.
            with profiler.phase("argmax"):
                populations = self._populations.astype(np.float64)
                prices = compiled.flow_prices(
                    populations,
                    np.array(
                        [c.price for c in self._node_controllers.values()],
                        dtype=np.float64,
                    ),
                    self._link_price,
                )
                self._rates = self._solve_rates(prices, populations)

            # 2. Consumer allocation (Algorithm 2) and node prices (eq. 12).
            #    Same phase names as the reference engine, so profiles of
            #    the two engines diff phase-for-phase; γ observation runs
            #    inside each controller's update and folds into price_update.
            with profiler.phase("admission"):
                values = compiled.class_values(self._rates)
                new_populations, used, best = self._admit(values)
                self._populations = new_populations
            with profiler.phase("price_update"):
                self._update_node_prices(best, used)
            if snapshots:
                for b, nid in enumerate(compiled.node_ids):
                    slack[f"node:{nid}"] = self._node_controllers[nid].capacity - used[b]
            if telemetry.enabled:
                admitted = new_populations.tolist()
                for b, nid in enumerate(compiled.node_ids):
                    telemetry.emit(
                        AdmissionEvent(
                            node=nid,
                            admitted={
                                compiled.class_ids[j]: admitted[j]
                                for j in compiled.node_class_positions[b].tolist()
                            },
                            used=used[b],
                            capacity=self._node_controllers[nid].capacity,
                            best_ratio=best[b],
                            t_ns=now_ns(),
                        )
                    )

            # 3. Link prices (eq. 13).
            with profiler.phase("price_update"):
                if compiled.n_links:
                    usage = compiled.link_usages(self._rates)
                    self._update_link_prices(usage)
                    if snapshots:
                        slack.update(
                            zip(
                                [f"link:{lid}" for lid in compiled.link_ids],
                                (compiled.link_capacity - usage).tolist(),
                            )
                        )

            # Zero populations contribute exactly 0, so the dot product
            # equals the reference's skip-if-empty objective sum (eq. 6).
            utility = float(np.dot(new_populations.astype(np.float64), values))

        return StepOutcome(utility=utility, slack=slack)

    # -- rate allocation ------------------------------------------------------

    def _solve_rates(self, prices: FloatArray, populations: FloatArray) -> FloatArray:
        """Batched argmax of eq. 7 for every flow.

        Boundary cases first (no active consumers, non-positive price), then
        the closed forms per family clamped to the rate bounds — equivalent
        to the reference's explicit boundary-derivative checks because the
        objective's derivative is strictly decreasing.  Flows marked generic
        go through the fallback column.
        """
        compiled = self.compiled
        n_flows = len(compiled.flow_ids)
        # Sum of populations per flow: > 0 iff any class is active.
        active = (
            np.bincount(compiled.class_flow, weights=populations, minlength=n_flows)
            > 0.0
        )
        positive = prices > 0.0
        boundary = np.where(positive, compiled.rate_min, compiled.rate_max)
        interior = active & positive

        total_scale = np.bincount(
            compiled.class_flow,
            weights=populations * compiled.class_scale,
            minlength=n_flows,
        )
        # Whole-array closed forms; junk lanes (price 0, inactive, generic)
        # produce inf/nan that the interior mask filters out below.
        closed: FloatArray | None = None
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if self._has_log_flows:
                closed = total_scale / prices - compiled.flow_offset
            if self._has_pow_flows:
                pow_closed = (
                    prices / (total_scale * self._pow_safe_exponent)
                ) ** self._pow_inverse_exponent
                closed = (
                    pow_closed
                    if closed is None
                    else np.where(self._log_flow_mask, closed, pow_closed)
                )
        if closed is not None:
            clamped = np.minimum(
                np.maximum(closed, compiled.rate_min), compiled.rate_max
            )
            rates = np.where(interior, clamped, boundary)
        else:
            rates = boundary

        for i in self._generic_flow_positions:
            if interior[i]:
                rates[i] = self._solve_generic(i, float(prices[i]), populations)
        return np.asarray(rates, dtype=np.float64)

    def _solve_generic(
        self, flow_pos: int, price: float, populations: FloatArray
    ) -> float:
        """The fallback column: the reference rate solver on one flow.

        Triggered for flows whose classes mix utility shapes (or use a shape
        outside the log/power families).
        """
        compiled = self.compiled
        terms = [
            (float(populations[j]), compiled.utilities[j])
            for j in np.nonzero(compiled.class_flow == flow_pos)[0].tolist()
        ]
        return solve_rate(
            terms,
            price,
            float(compiled.rate_min[flow_pos]),
            float(compiled.rate_max[flow_pos]),
        )

    # -- consumer allocation ---------------------------------------------------

    def _admit(
        self, values: FloatArray
    ) -> tuple[IntArray, list[float], list[float]]:
        """Greedy admission (Algorithm 2) for every node at once.

        Everything that does not depend on the fill order is array work:
        the unit costs, the starting budgets ``capacity - flow cost``, and
        each node's *need* — the budget that saturates every chargeable
        class at ``n^max``.  Two kinds of class saturate regardless of
        order and skip the fill:

        * zero-cost classes, which the reference admits in full without
          touching the budget;
        * every class of a *covered* node (need <= budget).

        The remaining *contended* classes get their ratios (eq. 10) and
        are ordered by one stable ``lexsort`` on (node, descending ratio);
        stability breaks ties by class position, i.e. class id — exactly
        the reference's sort key.  The budget fill then walks that order as
        a scalar loop over plain Python floats, with the reference's
        flooring and sequential ``budget -= spent``, so admission counts
        match it bit for bit.  A node's fill stops once its budget is below
        the cheapest contended cost by more than the flooring slack can
        bridge: every later class would admit 0 and spend exactly 0.0,
        which is all the reference's remaining iterations do.

        BC(b,t) (eq. 11) falls out of the same walk: in descending-ratio
        order the first unsatisfied class with a finite ratio has the best
        one, and only contended classes can be unsatisfied.  Returns
        ``(populations, used, best_unsatisfied_ratio)``, the last two as
        per-node lists, the form the node controllers take them in.
        """
        compiled = self.compiled
        class_node = compiled.class_node
        max_consumers = compiled.max_consumers
        n_nodes = compiled.n_nodes
        unit_cost = compiled.consumer_cost * self._rates[compiled.class_flow]
        weights = unit_cost * self._max_consumers_float
        chargeable = unit_cost > 0.0
        free = None
        if np.count_nonzero(chargeable) < compiled.n_classes:
            free = ~chargeable
            weights[free] = 0.0

        flow_cost = compiled.node_flow_costs(self._rates)
        budget = compiled.node_capacity - flow_cost
        need = np.bincount(class_node, weights=weights, minlength=n_nodes)
        saturated = (need <= budget)[class_node]
        if free is not None:
            saturated |= free
        populations = max_consumers * saturated
        # Consumer cost per node: the need, unless the fill below replaces
        # it (0 where no class is chargeable).
        consumer_total = need.tolist()
        best = [0.0] * n_nodes
        contended = (~saturated).nonzero()[0]
        if not contended.size:
            return populations, (flow_cost + need).tolist(), best

        contended_node = class_node[contended]
        costs = unit_cost[contended]
        # Eq. 10; contended classes are chargeable, so costs are > 0.
        # Saturated classes never enter BC(b,t), so they need no ratio.
        ratios = values[contended] / costs
        rank = np.lexsort((-ratios, contended_node))
        order = contended[rank]
        costs = costs[rank]
        # Below (1 - 1e-8) x the cheapest contended cost, budget / cost
        # + 1e-9 floors to 0 for every class left on the node.
        exhausted = float(np.minimum.reduce(costs)) * (1.0 - 1e-8)
        costs_list = costs.tolist()
        caps = max_consumers[order].tolist()
        # Ratios are read only for the few unsatisfied classes BC(b,t)
        # inspects, so they stay in the array.
        ratio_at = ratios[rank].item
        filled: list[int] = []
        counts: list[int] = []
        right = 0
        for b, (size, node_budget) in enumerate(
            zip(np.bincount(contended_node, minlength=n_nodes).tolist(), budget.tolist())
        ):
            if not size:
                continue
            left, right = right, right + size
            total = 0.0
            best_ratio = None
            stop = right
            for i in range(left, right):
                if node_budget < exhausted:
                    stop = i
                    break
                cost = costs_list[i]
                count = int(node_budget / cost + _FLOOR_SLACK)
                cap = caps[i]
                if count >= cap:
                    count = cap
                elif best_ratio is None:
                    ratio = ratio_at(i)
                    if -math.inf < ratio < math.inf:
                        best_ratio = ratio
                if count:
                    # A class admitting 0 spends exactly 0.0: skipping the
                    # subtraction leaves the budget bit-identical.
                    filled.append(i)
                    counts.append(count)
                    spent = count * cost
                    node_budget -= spent
                    total += spent
            if best_ratio is None:
                # Every class from ``stop`` on admits 0 and is unsatisfied
                # unless its n^max is 0.
                for i in range(stop, right):
                    if caps[i]:
                        ratio = ratio_at(i)
                        if -math.inf < ratio < math.inf:
                            best_ratio = ratio
                            break
            consumer_total[b] = total
            if best_ratio is not None:
                best[b] = best_ratio
        populations[order.take(filled)] = counts
        used = [cost + total for cost, total in zip(flow_cost.tolist(), consumer_total)]
        return populations, used, best

    # -- price updates ----------------------------------------------------------

    def _update_node_prices(self, best: list[float], used: list[float]) -> None:
        """Eq. 12 per node, each through its own :class:`NodePriceController`
        (which also runs the node's step-size schedule, section 4.2)."""
        for controller, benefit_cost, used_b in zip(self._node_controllers.values(), best, used):
            controller.update(benefit_cost=benefit_cost, used=used_b)

    def _update_link_prices(self, usage: FloatArray) -> None:
        """Eq. 13 (gradient projection) for every bottleneck link at once,
        mirroring :class:`LinkPriceController` exactly: one elementwise
        ``max(p + γ(u - c), 0)``, with the probes walked only when
        attached."""
        if not (usage.min() >= 0.0 and usage.max() < math.inf):
            valid = (usage >= 0.0) & (usage < math.inf)
            bad = float(usage[int(np.argmin(valid))])
            raise ValueError(f"usage must be finite and non-negative, got {bad}")
        capacity = self.compiled.link_capacity
        gamma = self._link_gamma
        old_price = self._link_price
        new_price = old_price + gamma * (usage - capacity)
        np.maximum(new_price, 0.0, out=new_price)
        self._link_price = new_price
        probes = self._link_probes
        if probes:
            for probe, old, new, usage_l, cap in zip(
                probes,
                old_price.tolist(),
                new_price.tolist(),
                usage.tolist(),
                capacity.tolist(),
            ):
                if probe is not None:
                    probe.price_update(
                        old, new, gamma, "gradient", usage=usage_l, capacity=cap
                    )

