"""``repro.obs.profile`` — deterministic hierarchical phase profiling.

This is the repository's one wall-clock instrument: it answers both
"how long does one iteration take" and "where inside the iteration the
time goes".  A :class:`PhaseProfiler` maintains a stack of nested *phase
spans* — the solver opens ``solve -> iteration -> argmax / admission /
price_update``, the runtimes ``runtime -> activation / delivery /
retransmit / checkpoint`` — and accumulates per-phase wall time
(``time.perf_counter_ns``), CPU time (``time.process_time_ns``), call
counts and, optionally, allocation deltas (``tracemalloc``).  The tree
is keyed purely by phase names in call order, so two runs of the same
workload produce the same tree shape — reports are diffable.

Design constraints mirror :mod:`repro.obs.registry`:

1. **The disabled path is allocation-free.**  :data:`NULL_PROFILER` (the
   default on every :class:`~repro.obs.telemetry.Telemetry`) hands out
   one shared no-op span, so an uninstrumented hot loop pays a couple of
   attribute lookups per phase and nothing else — the <5% no-op guard in
   ``benchmarks/test_perf_observability.py`` covers these operations.
2. **Pure stdlib, no locks.**  The instrumented paths are single
   threaded; so is the profiler.
3. **Self time is exact by construction.**  Child spans are disjoint
   subintervals of their parent's span on a monotonic clock, so
   ``self = total - sum(children)`` is never negative.

One deliberate folding: the adaptive γ observation (section 4.2) runs
inside the price controllers' ``update()`` and is therefore accounted to
the ``price_update`` phase rather than a separate ``gamma_step`` span —
threading the profiler into the controllers would break their
"controllers never learn about registries" isolation for a sub-phase
that is a handful of float ops.

Reports export three ways: :func:`to_collapsed` (Brendan Gregg's
collapsed-stack format, one ``a;b;c <self_wall_ns>`` line per phase, fed
straight to ``flamegraph.pl``), :func:`to_speedscope` (a speedscope.app
"evented" profile laid out depth-first on a synthetic nanosecond
timeline), and :func:`register_phase_metrics` (gauges/counters into a
:class:`~repro.obs.registry.MetricsRegistry` so phase timings flow
through the existing Prometheus/JSON exporters unchanged).
"""

from __future__ import annotations

import json
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any

from repro.obs.registry import MetricsRegistry

__all__ = [
    "NULL_PROFILER",
    "NullProfiler",
    "PhaseProfiler",
    "PhaseStat",
    "ProfileReport",
    "merge_reports",
    "register_phase_metrics",
    "render_report",
    "report_from_dict",
    "to_collapsed",
    "to_collapsed_diff",
    "to_speedscope",
]


class _PhaseNode:
    """One node of the phase tree: accumulated cost of a phase *path*.

    Children keep insertion order (first-entered first), which is
    deterministic for a deterministic program — the report inherits it.
    """

    __slots__ = ("name", "children", "calls", "wall_ns", "cpu_ns", "alloc_bytes")

    def __init__(self, name: str) -> None:
        self.name = name
        self.children: dict[str, _PhaseNode] = {}
        self.calls = 0
        self.wall_ns = 0
        self.cpu_ns = 0
        self.alloc_bytes = 0


class _Span:
    """Context manager for one phase entry (enabled profiler only)."""

    __slots__ = ("_profiler", "_name", "_node", "_wall0", "_cpu0", "_alloc0")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_Span":
        profiler = self._profiler
        parent = profiler._stack[-1]
        node = parent.children.get(self._name)
        if node is None:
            node = parent.children[self._name] = _PhaseNode(self._name)
        profiler._stack.append(node)
        self._node = node
        if profiler._track_allocations:
            self._alloc0 = tracemalloc.get_traced_memory()[0]
        # Clocks start last so child bookkeeping stays inside the parent's
        # window, never inside this span's own.
        self._cpu0 = time.process_time_ns()
        self._wall0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        wall_ns = time.perf_counter_ns() - self._wall0
        cpu_ns = time.process_time_ns() - self._cpu0
        node = self._node
        node.wall_ns += wall_ns
        node.cpu_ns += cpu_ns
        node.calls += 1
        profiler = self._profiler
        if profiler._track_allocations:
            grown = tracemalloc.get_traced_memory()[0] - self._alloc0
            if grown > 0:
                node.alloc_bytes += grown
        profiler._stack.pop()


class _NullSpan:
    """The shared no-op span :data:`NULL_PROFILER` hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


@dataclass(frozen=True)
class PhaseStat:
    """Aggregated cost of one phase path (``("solve", "iteration", ...)``).

    ``self_*`` is total minus the children's totals — the time spent in
    the phase itself, the quantity flame graphs stack and regression
    blame ranks.
    """

    path: tuple[str, ...]
    calls: int
    wall_ns: int
    cpu_ns: int
    self_wall_ns: int
    self_cpu_ns: int
    alloc_bytes: int

    @property
    def name(self) -> str:
        return self.path[-1]

    @property
    def depth(self) -> int:
        return len(self.path) - 1

    @property
    def dotted(self) -> str:
        """The path as a registry-style dotted name."""
        return ".".join(self.path)


def _tree_stats(root: _PhaseNode) -> tuple[PhaseStat, ...]:
    """The tree under ``root`` as stats in depth-first pre-order, each
    with its self cost (total minus its children's totals)."""
    stats: list[PhaseStat] = []

    def walk(node: _PhaseNode, path: tuple[str, ...]) -> None:
        for child in node.children.values():
            child_path = path + (child.name,)
            nested_wall = sum(g.wall_ns for g in child.children.values())
            nested_cpu = sum(g.cpu_ns for g in child.children.values())
            stats.append(
                PhaseStat(
                    path=child_path,
                    calls=child.calls,
                    wall_ns=child.wall_ns,
                    cpu_ns=child.cpu_ns,
                    self_wall_ns=child.wall_ns - nested_wall,
                    self_cpu_ns=child.cpu_ns - nested_cpu,
                    alloc_bytes=child.alloc_bytes,
                )
            )
            walk(child, child_path)

    walk(root, ())
    return tuple(stats)


@dataclass(frozen=True)
class ProfileReport:
    """Immutable snapshot of a profiler's phase tree.

    ``stats`` is in depth-first pre-order (parents before children,
    siblings in first-entered order), so a simple indent-by-depth walk
    renders the tree.
    """

    stats: tuple[PhaseStat, ...]
    track_allocations: bool = False

    @property
    def empty(self) -> bool:
        return not self.stats

    @property
    def total_wall_ns(self) -> int:
        """Wall time across the root phases (disjoint by construction)."""
        return sum(stat.wall_ns for stat in self.stats if stat.depth == 0)

    @property
    def total_self_wall_ns(self) -> int:
        """Sum of self times — equals :attr:`total_wall_ns` exactly."""
        return sum(stat.self_wall_ns for stat in self.stats)

    def find(self, dotted: str) -> PhaseStat | None:
        """The stat at a dotted path (``"solve.iteration.argmax"``)."""
        for stat in self.stats:
            if stat.dotted == dotted:
                return stat
        return None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (stable schema, version-tagged)."""
        return {
            "version": 1,
            "track_allocations": self.track_allocations,
            "total_wall_ns": self.total_wall_ns,
            "phases": {
                stat.dotted: {
                    "calls": stat.calls,
                    "wall_ns": stat.wall_ns,
                    "cpu_ns": stat.cpu_ns,
                    "self_wall_ns": stat.self_wall_ns,
                    "self_cpu_ns": stat.self_cpu_ns,
                    "alloc_bytes": stat.alloc_bytes,
                }
                for stat in self.stats
            },
        }


class PhaseProfiler:
    """Hierarchical phase profiler with an explicit span stack.

    ``with profiler.phase("iteration"):`` opens a span nested under
    whatever span is currently innermost; cost accumulates per *path*,
    so ``admission`` under ``iteration`` is a different bucket from an
    ``admission`` phase at top level.  Phases may be entered repeatedly
    (the per-node loops do); calls and durations accumulate.

    ``track_allocations=True`` additionally records net allocation growth
    per span via ``tracemalloc`` (started on demand); expect it to slow
    the profiled run — wall times remain comparable only to other
    allocation-tracking runs.
    """

    enabled = True

    def __init__(self, track_allocations: bool = False) -> None:
        self._track_allocations = track_allocations
        if track_allocations and not tracemalloc.is_tracing():
            tracemalloc.start()
        self._root = _PhaseNode("")
        self._stack: list[_PhaseNode] = [self._root]

    def phase(self, name: str) -> Any:
        """A context manager timing one entry of phase ``name``."""
        return _Span(self, name)

    @property
    def depth(self) -> int:
        """Open spans right now (0 = at top level)."""
        return len(self._stack) - 1

    def reset(self) -> None:
        """Drop all accumulated phases (open spans must be closed)."""
        if len(self._stack) != 1:
            raise RuntimeError(
                f"cannot reset with {len(self._stack) - 1} span(s) open"
            )
        self._root = _PhaseNode("")
        self._stack = [self._root]

    def report(self) -> ProfileReport:
        """Aggregate the tree (closed spans only) into a report."""
        return ProfileReport(
            stats=_tree_stats(self._root),
            track_allocations=self._track_allocations,
        )


class NullProfiler(PhaseProfiler):
    """The disabled default: ``phase()`` returns one shared no-op span."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(track_allocations=False)

    def phase(self, name: str) -> Any:
        return _NULL_SPAN


NULL_PROFILER: PhaseProfiler = NullProfiler()


# -- aggregation -------------------------------------------------------------


def merge_reports(*reports: ProfileReport) -> ProfileReport:
    """Merge phase trees keyed by name path (farm-wide aggregation).

    Calls, wall, CPU and allocation totals sum per path; sibling order is
    first-seen across the reports in argument order, so merging a report
    with itself (or with same-shaped peers — the sweep-farm case) keeps
    the original tree shape.  Because every child of a merged node was a
    child in some input, ``self = total - sum(children)`` distributes
    over the sum: the merged self time of a path is exactly the sum of
    its per-report self times, and ``total_self_wall_ns`` still equals
    ``total_wall_ns`` to the nanosecond.
    """
    merged = _PhaseNode("")
    for report in reports:
        for stat in report.stats:
            node = merged
            for name in stat.path:
                child = node.children.get(name)
                if child is None:
                    child = node.children[name] = _PhaseNode(name)
                node = child
            node.calls += stat.calls
            node.wall_ns += stat.wall_ns
            node.cpu_ns += stat.cpu_ns
            node.alloc_bytes += stat.alloc_bytes

    return ProfileReport(
        stats=_tree_stats(merged),
        track_allocations=any(r.track_allocations for r in reports),
    )


def report_from_dict(payload: Any) -> ProfileReport:
    """Rebuild a :class:`ProfileReport` from :meth:`ProfileReport.to_dict`
    output (an archived ``repro profile --json`` / sweep-telemetry
    artifact).

    Dotted keys split on ``.`` (phase names never contain dots); entries
    are ordered by path so parents precede children — a valid pre-order,
    with siblings lexicographic after a canonical-JSON round trip.
    """
    if not isinstance(payload, dict) or not isinstance(
        payload.get("phases"), dict
    ):
        raise ValueError("profile payload must be an object with 'phases'")
    stats = []
    for dotted, entry in sorted(
        payload["phases"].items(), key=lambda item: item[0].split(".")
    ):
        if not isinstance(entry, dict):
            raise ValueError(f"profile phase {dotted!r} is malformed")
        stats.append(
            PhaseStat(
                path=tuple(dotted.split(".")),
                calls=int(entry.get("calls", 0)),
                wall_ns=int(entry.get("wall_ns", 0)),
                cpu_ns=int(entry.get("cpu_ns", 0)),
                self_wall_ns=int(entry.get("self_wall_ns", 0)),
                self_cpu_ns=int(entry.get("self_cpu_ns", 0)),
                alloc_bytes=int(entry.get("alloc_bytes", 0)),
            )
        )
    return ProfileReport(
        stats=tuple(stats),
        track_allocations=bool(payload.get("track_allocations", False)),
    )


# -- exports -----------------------------------------------------------------


def to_collapsed(report: ProfileReport) -> str:
    """Collapsed-stack flamegraph lines (``solve;iteration;argmax 1234``).

    One line per phase path with positive *self* wall time, in report
    order; values are nanoseconds, the stack separator is ``;`` — the
    exact input ``flamegraph.pl`` and speedscope's importer expect.
    """
    lines = [
        f"{';'.join(stat.path)} {stat.self_wall_ns}"
        for stat in report.stats
        if stat.self_wall_ns > 0
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def to_collapsed_diff(base: ProfileReport, other: ProfileReport) -> str:
    """Differential folded stacks: ``a;b;c <base_self> <other_self>``.

    The two-column folded format ``flamegraph.pl --diff`` (and
    ``difffolded.pl``) consumes: one line per phase path present in
    either report, base self-wall first, other second, missing side 0.
    Paths keep ``base``'s order with ``other``-only paths appended in
    ``other``'s order, so the diff of a report against itself is its own
    collapsed output with a duplicated column.
    """
    base_self = {stat.path: stat.self_wall_ns for stat in base.stats}
    other_self = {stat.path: stat.self_wall_ns for stat in other.stats}
    paths = [stat.path for stat in base.stats]
    paths.extend(
        stat.path for stat in other.stats if stat.path not in base_self
    )
    lines = []
    for path in paths:
        before = base_self.get(path, 0)
        after = other_self.get(path, 0)
        if before > 0 or after > 0:
            lines.append(f"{';'.join(path)} {before} {after}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_speedscope(report: ProfileReport, name: str = "repro profile") -> str:
    """The report as a speedscope.app "evented" profile (JSON text).

    Aggregated phases have no real timeline, so one is synthesized: the
    tree is laid out depth-first on a nanosecond axis, every node
    occupying a contiguous ``wall_ns`` window with its children packed
    left-to-right inside it (self time is the remainder on the right).
    Frame identity is the phase *name*, so recurring phases merge in
    speedscope's left-heavy and sandwich views.
    """
    frames: list[dict[str, str]] = []
    frame_index: dict[str, int] = {}

    def frame_of(phase: str) -> int:
        index = frame_index.get(phase)
        if index is None:
            index = frame_index[phase] = len(frames)
            frames.append({"name": phase})
        return index

    children: dict[tuple[str, ...], list[PhaseStat]] = {}
    for stat in report.stats:
        children.setdefault(stat.path[:-1], []).append(stat)

    events: list[dict[str, Any]] = []

    def emit(stat: PhaseStat, start: int) -> int:
        events.append({"type": "O", "frame": frame_of(stat.name), "at": start})
        cursor = start
        for child in children.get(stat.path, ()):
            cursor = emit(child, cursor)
        end = start + stat.wall_ns
        events.append({"type": "C", "frame": frame_of(stat.name), "at": end})
        return end

    cursor = 0
    for root in children.get((), ()):
        cursor = emit(root, cursor)

    payload = {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "evented",
                "name": name,
                "unit": "nanoseconds",
                "startValue": 0,
                "endValue": cursor,
                "events": events,
            }
        ],
        "exporter": "repro.obs.profile",
    }
    return json.dumps(payload, indent=2, sort_keys=True)


#: Registry prefix for phase metrics (see docs/observability.md).
PHASE_METRIC_PREFIX = "profile.phase"


def register_phase_metrics(
    report: ProfileReport,
    registry: MetricsRegistry,
    prefix: str = PHASE_METRIC_PREFIX,
) -> int:
    """Mirror a report into a registry; returns the phase count.

    Per phase path three metrics are registered — ``<prefix>.<path>.calls``
    (counter), ``.self_seconds`` and ``.total_seconds`` (gauges) — so
    phase timings ride the existing Prometheus/JSON exporters.  The
    ``*_seconds`` leaves are deliberately outside the bench watchdog's
    direction vocabulary: raw phase timings shift with machine load, and
    only the *blame* ranking (:func:`repro.obs.bench.compare_snapshots`)
    should interpret their movement, not the generic regression scan.
    """
    for stat in report.stats:
        base = f"{prefix}.{stat.dotted}"
        counter = registry.counter(f"{base}.calls")
        counter.inc(stat.calls - counter.value)  # idempotent re-register
        registry.gauge(f"{base}.self_seconds").set(stat.self_wall_ns / 1e9)
        registry.gauge(f"{base}.total_seconds").set(stat.wall_ns / 1e9)
    return len(report.stats)


def render_report(report: ProfileReport) -> str:
    """Human-readable phase table (the ``repro profile`` stdout body)."""
    if report.empty:
        return "profile: (no phases recorded)"
    header = f"{'phase':<40} {'calls':>8} {'total':>10} {'self':>10} {'cpu':>10}"
    if report.track_allocations:
        header += f" {'alloc':>10}"
    lines = [header]
    for stat in report.stats:
        label = "  " * stat.depth + stat.name
        row = (
            f"{label:<40} {stat.calls:>8} "
            f"{stat.wall_ns / 1e6:>8.2f}ms {stat.self_wall_ns / 1e6:>8.2f}ms "
            f"{stat.cpu_ns / 1e6:>8.2f}ms"
        )
        if report.track_allocations:
            row += f" {stat.alloc_bytes / 1024:>8.1f}kB"
        lines.append(row)
    lines.append(
        f"total {report.total_wall_ns / 1e6:.2f}ms across "
        f"{len(report.stats)} phase(s)"
    )
    return "\n".join(lines)
