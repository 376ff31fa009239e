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
  assignment, the contended rest is ordered by one stable ``lexsort`` (the
  reference order), kept across steps for as long as it still holds, and a
  scalar loop over plain Python floats fills each node's budget in that
  order until it provably admits nothing more.  Admission counts match
  the reference bit for bit.
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

Lowering builds each column once, as a list gathered from the problem's
accessors and converted to an array in one call.  Incidence rows come out
flow-ascending without a sort: ``build_problem`` stores each link's and
node's flows sorted by id, and flow positions follow id order.  The rest
is array work over those columns: each class finds its node/flow cell by
one ``np.searchsorted`` over the sorted cell keys, flow families come from
one stable argsort of ``class_flow`` plus ``np.logical_and.reduceat``
(exact equality against each flow's first class), and the per-node class
positions from one stable argsort of ``class_node``.  A rebind with
``preserve_state`` carries rates, populations and link prices through
index maps from the old id vocabularies to the new ones (the identity
when a vocabulary is unchanged, as the link axis is under ``without_flow``).
As with a reference :class:`~repro.core.prices.LinkPriceController`, a
link price keeps the capacity it started under, runs eq. 13 against it,
and survives a rebind only while the new capacity is
:func:`~repro.utility.tolerance.close_enough` to it: one array comparison
over all links.

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
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from itertools import chain, repeat
from typing import TYPE_CHECKING, TypeVar

import numpy as np
from numpy.typing import NDArray

from repro.core.consumer_allocation import (
    _FLOOR_SLACK,  # shared admission flooring slack; same constant by design
    allocate_consumers,
)
from repro.core.engines import LRGPEngine, StepOutcome, bind_node_controllers
from repro.core.gamma import FixedGamma
from repro.core.prices import NodePriceController
from repro.model.entities import ClassId, FlowId, LinkId, NodeId
from repro.model.problem import Problem
from repro.obs.events import AdmissionEvent, now_ns
from repro.utility.base import UtilityFunction
from repro.utility.calculus import solve_rate
from repro.utility.functions import LogUtility, PowerUtility, ScaledUtility
from repro.utility.tolerance import close_enough_elementwise

if TYPE_CHECKING:
    from repro.core.lrgp import LRGPConfig
    from repro.obs.telemetry import PriceProbe

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int64]
_ArrayT = TypeVar("_ArrayT", FloatArray, IntArray)

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
    # The closed-form families go first: an exact type match returns from
    # isinstance at once, a miss walks the ABC machinery.
    if isinstance(utility, LogUtility):
        return FAMILY_LOG, factor * utility.scale, utility.offset, 0.0
    if isinstance(utility, PowerUtility):
        return FAMILY_POW, factor * utility.scale, 0.0, utility.exponent
    if isinstance(utility, ScaledUtility):
        return _classify(utility.base, factor * utility.factor)
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


def _incidence(
    row_ids: tuple[str, ...],
    flows_of: Callable[[str], tuple[FlowId, ...]],
    cost_of: Callable[[str, FlowId], float],
    flow_pos: Mapping[FlowId, int],
) -> tuple[IntArray, IntArray, FloatArray]:
    """COO columns ``(row, flow, cost)`` of one incidence axis, row-major.

    ``flows_of`` is the problem's ``flows_on_link`` / ``flows_at_node`` and
    ``cost_of`` the matching :class:`~repro.model.costs.CostModel` accessor:
    :func:`~repro.model.problem.build_problem` stores each row's flows
    sorted by id and flow positions follow id order, so every row comes out
    flow-ascending.  Zero-cost pairs stay in: the *pattern* is what classes
    scatter into.
    """
    rows = [flows_of(row_id) for row_id in row_ids]
    row = np.repeat(np.arange(len(rows), dtype=np.int64), [len(flows) for flows in rows])
    flow = np.array([flow_pos[f] for flows in rows for f in flows], dtype=np.int64)
    cost = np.array(
        [cost_of(row_id, f) for row_id, flows in zip(row_ids, rows) for f in flows],
        dtype=np.float64,
    )
    return row, flow, cost


def _flow_families(
    n_flows: int,
    class_flow: IntArray,
    class_family: IntArray,
    class_offset: FloatArray,
    class_exponent: FloatArray,
) -> tuple[IntArray, FloatArray, FloatArray]:
    """Per-flow ``(family, offset, exponent)`` of the batched rate solver.

    One stable argsort of ``class_flow`` lays each flow's classes out as a
    contiguous run led by its lowest class position.  A flow keeps its
    leader's closed form when every member equals the leader exactly in
    family, log offset and power exponent (the reference solver's grouping
    test: same-offset log terms and same-exponent power terms collapse);
    any other mix is generic.  A flow with no classes is marked log: its
    rate solver only ever hits boundary cases, and log keeps it off the
    fallback column.
    """
    flow_family = np.full(n_flows, FAMILY_LOG, dtype=np.int64)
    flow_offset = np.zeros(n_flows, dtype=np.float64)
    flow_exponent = np.zeros(n_flows, dtype=np.float64)
    if not class_flow.size:
        return flow_family, flow_offset, flow_exponent
    by_flow = np.argsort(class_flow, kind="stable")
    members = np.bincount(class_flow, minlength=n_flows)
    present = np.flatnonzero(members)
    starts = (np.cumsum(members) - members)[present]
    leader = by_flow[starts]
    led_by = np.repeat(leader, members[present])
    uniform = np.logical_and.reduceat(
        (class_family[by_flow] == class_family[led_by])
        & (class_offset[by_flow] == class_offset[led_by])
        & (class_exponent[by_flow] == class_exponent[led_by]),
        starts,
    )
    family = np.where(uniform, class_family[leader], FAMILY_GENERIC)
    flow_family[present] = family
    flow_offset[present] = np.where(family == FAMILY_LOG, class_offset[leader], 0.0)
    flow_exponent[present] = np.where(
        family == FAMILY_POW, class_exponent[leader], 0.0
    )
    return flow_family, flow_offset, flow_exponent


def compile_problem(problem: Problem) -> CompiledProblem:
    """Lower ``problem`` into a :class:`CompiledProblem`.

    Pure indexing and coefficient gathering — no optimizer state; memory
    here is ``O(nonzeros + classes)``.  The result is immutable and
    reusable across engines bound to the same problem.  Every column is
    gathered once from the problem's accessors and converted to an array
    once; the class cells, flow families and node positions are array
    work over those columns.
    """
    costs = problem.costs
    flow_ids = tuple(sorted(problem.flows))
    node_ids = problem.consumer_nodes()
    link_ids = problem.bottleneck_links()
    class_ids = tuple(sorted(problem.classes))
    flow_pos = {fid: i for i, fid in enumerate(flow_ids)}
    node_pos = {nid: b for b, nid in enumerate(node_ids)}
    n_flows = len(flow_ids)

    flows = [problem.flows[fid] for fid in flow_ids]
    rate_min = np.array([flow.rate_min for flow in flows], dtype=np.float64)
    rate_max = np.array([flow.rate_max for flow in flows], dtype=np.float64)
    node_capacity = np.array(
        [problem.nodes[nid].capacity for nid in node_ids], dtype=np.float64
    )
    link_capacity = np.array(
        [problem.links[lid].capacity for lid in link_ids], dtype=np.float64
    )
    ln_link, ln_flow, ln_cost = _incidence(
        link_ids, problem.flows_on_link, costs.link, flow_pos
    )
    fn_node, fn_flow, fn_cost = _incidence(
        node_ids, problem.flows_at_node, costs.flow_node, flow_pos
    )

    classes = [problem.classes[cid] for cid in class_ids]
    class_flow = np.array([flow_pos[cls.flow_id] for cls in classes], dtype=np.int64)
    class_node = np.array([node_pos[cls.node] for cls in classes], dtype=np.int64)
    max_consumers = np.array([cls.max_consumers for cls in classes], dtype=np.int64)
    consumer_cost = np.array(
        [costs.consumer(cls.node, cid) for cid, cls in zip(class_ids, classes)],
        dtype=np.float64,
    )
    utilities = tuple(cls.utility for cls in classes)
    # (family, scale, offset, exponent) per class, one row each, streamed
    # into one flat array (no list of tuples held at once).
    classified = np.fromiter(
        chain.from_iterable(map(_classify, utilities)),
        dtype=np.float64,
        count=4 * len(utilities),
    ).reshape(-1, 4)
    class_family = classified[:, 0].astype(np.int64)
    class_scale = np.ascontiguousarray(classified[:, 1])
    class_offset = np.ascontiguousarray(classified[:, 2])
    class_exponent = np.ascontiguousarray(classified[:, 3])

    # Each class's (node, flow) cell: the fn_* rows are node-major and
    # flow-ascending, so their keys node * n_flows + flow are sorted and
    # one binary search places every class.  build_problem guarantees the
    # cell (the class node is on its flow's route); a hand-built problem
    # may not, hence the check.
    cell_keys = fn_node * n_flows + fn_flow
    class_keys = class_node * n_flows + class_flow
    class_fn_index = np.searchsorted(cell_keys, class_keys).astype(np.int64)
    found = np.append(cell_keys, -1)[class_fn_index]
    if not np.array_equal(found, class_keys):
        j = int(np.argmax(found != class_keys))
        raise ValueError(
            f"class {class_ids[j]!r} attaches to node {classes[j].node!r}, which "
            f"the route of flow {classes[j].flow_id!r} does not reach"
        )

    flow_family, flow_offset, flow_exponent = _flow_families(
        n_flows, class_flow, class_family, class_offset, class_exponent
    )

    # Classes per consumer node, in class order: one stable argsort of
    # class_node, split at the per-node counts.
    by_node = np.argsort(class_node, kind="stable").astype(np.int64)
    bounds = np.cumsum(np.bincount(class_node, minlength=len(node_ids))).tolist()
    node_class_positions = tuple(
        by_node[start:stop] for start, stop in zip([0, *bounds], bounds)
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
        ln_link=ln_link,
        ln_flow=ln_flow,
        ln_cost=ln_cost,
        fn_node=fn_node,
        fn_flow=fn_flow,
        fn_cost=fn_cost,
        consumer_cost=consumer_cost,
        class_flow=class_flow,
        class_node=class_node,
        class_fn_index=class_fn_index,
        max_consumers=max_consumers,
        utilities=utilities,
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


def _index_map(old_ids: tuple[str, ...], new_ids: tuple[str, ...]) -> IntArray:
    """Position of every id of ``new_ids`` in ``old_ids``, ``-1`` if absent.

    The identity when the vocabulary is unchanged (the link axis under
    ``without_flow``): one tuple comparison instead of a dict over every
    old id, about 2 ms of a rebind at 10,100 links.  Otherwise one dict
    over the old ids, queried at C speed.
    """
    if old_ids == new_ids:
        return np.arange(len(new_ids), dtype=np.int64)
    position = dict(zip(old_ids, range(len(old_ids))))
    return np.fromiter(
        map(position.get, new_ids, repeat(-1)), dtype=np.int64, count=len(new_ids)
    )


def _carry(old: _ArrayT, index: IntArray, fresh: _ArrayT) -> _ArrayT:
    """``fresh`` with every entry whose id persists (``index >= 0``) taken
    from ``old`` at that id's old position."""
    kept = index >= 0
    fresh[kept] = old[index[kept]]
    return fresh


class _FillOrder:
    """The contended fill order of admission's last sort, kept across steps.

    ``mask`` holds the bytes of the saturation mask the order was sorted
    under, ``order`` the contended class positions in fill order, ``sizes``
    the contended classes per node and ``caps`` their ``n^max`` in fill
    order.  The pair masks :meth:`holds` reads are built at the order's
    first reuse, so an order that is never reused costs nothing beyond its
    sort.
    """

    __slots__ = ("mask", "order", "sizes", "caps", "pairs")

    def __init__(
        self, mask: bytes, order: IntArray, sizes: list[int], caps: list[int]
    ) -> None:
        self.mask = mask
        self.order = order
        self.sizes = sizes
        self.caps = caps
        self.pairs: tuple[NDArray[np.bool_], NDArray[np.bool_]] | None = None

    def holds(self, ratios: FloatArray, class_node: IntArray) -> bool:
        """Whether ``np.lexsort((-ratio, node))`` would still give this order.

        ``ratios`` are this step's, in the kept order.  Within a node each
        adjacent pair must descend in ratio, or tie at ascending class
        positions; a pair across a node boundary always passes.  A NaN
        fails, so the sort that puts it last runs again.
        """
        if self.pairs is None:
            order = self.order
            node = class_node[order]
            self.pairs = (order[:-1] < order[1:], node[:-1] != node[1:])
        ascending, boundary = self.pairs
        head = ratios[:-1]
        tail = ratios[1:]
        ok = head > tail
        ok |= (head == tail) & ascending
        ok |= boundary
        return np.count_nonzero(ok) == ok.size


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
        # Reuse the schedule's validation for the link step size.
        self._link_gamma = FixedGamma(config.link_gamma).gamma
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

    # Rates, populations and link prices live in numpy arrays; ``tolist()``
    # hands out plain Python floats and ints, which canonical hashes and
    # ``SolveResult`` depend on.

    def rates(self) -> dict[FlowId, float]:
        return dict(zip(self.compiled.flow_ids, self._rates.tolist()))

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
        config = self._config
        previous = self._compiled if preserve_state else None
        # A kept fill order belongs to the old problem, even one with the
        # same class count.
        self._fill_order: _FillOrder | None = None
        # Lowering is the one compile-shaped cost of a (re)bind, so it gets
        # its own profiler phase; the reference engine has no counterpart
        # (its pinned phase tree is untouched).
        with config.telemetry.profiler.phase("lower"):
            compiled = compile_problem(problem)
        self._compiled = compiled
        rates = compiled.rate_min.copy()
        populations = np.zeros(compiled.n_classes, dtype=np.int64)
        link_price = np.zeros(compiled.n_links, dtype=np.float64)
        link_capacity = compiled.link_capacity.copy()
        old_nodes: dict[NodeId, NodePriceController] = {}
        if previous is not None:
            # State follows each id from the old vocabulary to the new one.
            # Like a reference LinkPriceController, a link's price keeps the
            # capacity it started under and survives a rebind only while
            # the new capacity is close enough to that one (figure 3).
            rates = _carry(
                self._rates, _index_map(previous.flow_ids, compiled.flow_ids), rates
            )
            populations = _carry(
                self._populations,
                _index_map(previous.class_ids, compiled.class_ids),
                populations,
            )
            links = _index_map(previous.link_ids, compiled.link_ids)
            kept = links >= 0
            kept[kept] = close_enough_elementwise(
                self._link_capacity[links[kept]], link_capacity[kept]
            )
            links[~kept] = -1
            link_price = _carry(self._link_price, links, link_price)
            link_capacity = _carry(self._link_capacity, links, link_capacity)
            old_nodes = self._node_controllers
        self._rates = rates
        self._populations: IntArray = populations
        self._link_price = link_price
        #: The capacity each link price started under: eq. 13 runs against
        #: it, as each reference controller runs against its own.
        self._link_capacity = link_capacity
        # The helper builds in consumer_nodes() order, which node_ids
        # follows, so the controllers line up with the node axis.
        self._node_controllers = bind_node_controllers(problem, config, old_nodes)

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
                                (self._link_capacity - usage).tolist(),
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
        the reference's sort key.  Prices converge, so the order soon stops
        changing: the engine keeps the last sort's order and reuses it
        while the contended set is unchanged and :meth:`_FillOrder.holds`
        finds it is still exactly what the ``lexsort`` would give, and
        sorts again otherwise.  The budget fill then walks that order as
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
        # Eq. 10; contended classes are chargeable, so costs are > 0.
        # Saturated classes never enter BC(b,t), so they need no ratio.
        # The kept order applies only to the contended set it was sorted
        # for.  The mask's bytes compare in one memcmp; np.array_equal costs
        # a few microseconds even on a 20-class problem.
        mask = saturated.tobytes()
        kept = self._fill_order
        if kept is not None and mask == kept.mask:
            costs = unit_cost[kept.order]
            ratios = values[kept.order] / costs
            if not kept.holds(ratios, class_node):
                kept = None
        else:
            kept = None
        if kept is None:
            contended = (~saturated).nonzero()[0]
            if not contended.size:
                return populations, (flow_cost + need).tolist(), best
            contended_node = class_node[contended]
            costs = unit_cost[contended]
            ratios = values[contended] / costs
            rank = np.lexsort((-ratios, contended_node))
            order = contended[rank]
            costs = costs[rank]
            ratios = ratios[rank]
            kept = self._fill_order = _FillOrder(
                mask,
                order,
                np.bincount(contended_node, minlength=n_nodes).tolist(),
                max_consumers[order].tolist(),
            )
        caps = kept.caps
        # Below (1 - 1e-8) x the cheapest contended cost, budget / cost
        # + 1e-9 floors to 0 for every class left on the node.
        exhausted = float(np.minimum.reduce(costs)) * (1.0 - 1e-8)
        # The walk visits a fraction of the contended classes, so it reads
        # costs and ratios one by one (a memoryview index gives the same
        # Python float as tolist()) rather than converting them whole.
        cost_at = memoryview(costs)
        ratio_at = memoryview(ratios)
        filled: list[int] = []
        counts: list[int] = []
        right = 0
        for b, (size, node_budget) in enumerate(zip(kept.sizes, budget.tolist())):
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
                cost = cost_at[i]
                count = int(node_budget / cost + _FLOOR_SLACK)
                cap = caps[i]
                if count >= cap:
                    count = cap
                elif best_ratio is None:
                    ratio = ratio_at[i]
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
                        ratio = ratio_at[i]
                        if -math.inf < ratio < math.inf:
                            best_ratio = ratio
                            break
            consumer_total[b] = total
            if best_ratio is not None:
                best[b] = best_ratio
        populations[kept.order.take(filled)] = counts
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
        capacity = self._link_capacity
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

