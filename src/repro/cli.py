"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``optimize``  — run an optimizer (``repro.solve``) on a workload
  (built-in name or a problem JSON file), print the allocation summary —
  or the full SolveResult as JSON — and optionally write the allocation
  and/or a full iteration trace.  ``--method`` picks the algorithm
  family, ``--engine`` the LRGP execution strategy.
* ``workload``  — materialize a built-in workload as problem JSON.
* ``figure``    — regenerate one of the paper's figures (1-4) as an ASCII
  chart plus data rows.
* ``table``     — regenerate one of the paper's tables (1-3).
* ``extension`` — run one of the extension experiments (E1-E3).
* ``stats``     — run a workload with full telemetry and print the metrics
  snapshot (human/Prometheus/JSON, phase timings as ``profile.phase.*``)
  plus convergence diagnostics.
* ``profile``   — run a workload under the hierarchical phase profiler
  (spans only: no probes, events or metrics) and print the phase tree
  (wall/CPU/self time per phase), with flamegraph collapsed-stack,
  speedscope-JSON and report-JSON export.
* ``trace run`` — capture the structured event stream of a run as JSONL
  (lossless, ``event_from_dict`` round-trips it; ``--gzip`` compresses)
  or flat CSV.
* ``trace show``   — pretty-print a capture with ``--type``/``--since``
  filters, ``--follow`` tailing and a ``--dashboard`` live summary.
* ``trace causal`` — reconstruct the causal graph of a capture: critical
  path to convergence plus per-resource blame attribution.
* ``replay``    — deterministically re-materialize the deployed state
  (rates/populations/prices) at any event index of a capture.
* ``bench``     — consolidate ``BENCH_*.json`` artifacts into a trajectory
  snapshot (``bench snapshot``) and diff two snapshots flagging >10%
  regressions (``bench compare``).
* ``chaos``     — run the asynchronous deployment under a seeded fault plan
  (crashes + checkpoint restarts, partitions, delay storms) and report
  recovery times and utility retention: converged utility over that of
  the same deployment, acknowledged delivery included, with no plan
  (``repro.runtime.run_chaos`` runs both).
* ``sweep``     — declarative experiment grids (``repro.sweep``): expand
  workload x method x engine x gamma x fault-plan x iterations x seed
  axes into cells, execute them over a process-pool farm with a
  content-addressed result cache (``sweep run``, with ``--capture``
  per-cell telemetry, ``--live``/``--events`` progress streaming and
  ``--flame``/``--speedscope`` farm-wide merged profiles), inspect the
  cache (``sweep show``), empty it (``sweep clean``), audit past
  invocations (``sweep ledger``) and diff two cells' phase trees as a
  differential flamegraph (``sweep diff-flame``).
* ``lint``      — run the domain-aware static analyzer (docs/analysis.md)
  over source trees, with JSON output, baselines and strict exit codes.

Workloads are addressed everywhere by *registry spec* —
``NAME[:k=v,...]`` (``base``, ``tree:depth=4``, ``flows:factor=4``) or a
problem JSON path — either positionally or via ``--workload``; see
``repro workload --list``.

Examples::

    python -m repro optimize base --iterations 250
    python -m repro optimize flows-x4 --engine vectorized --json
    python -m repro optimize base --method two_stage
    python -m repro optimize path/to/problem.json --trace trace.csv
    python -m repro workload base -o base.json
    python -m repro figure 1
    python -m repro table 2 --sa-steps 200000
    python -m repro extension e2
    python -m repro stats micro --iterations 100
    python -m repro stats base --format prometheus -o metrics.prom
    python -m repro stats --from-json archived_metrics.json
    python -m repro profile flows-x4 --engine vectorized --flame flame.txt
    python -m repro profile base --speedscope profile.speedscope.json
    python -m repro trace run micro --format jsonl -o trace.jsonl
    python -m repro trace run base --engine async --gzip -o run.jsonl.gz
    python -m repro trace show run.jsonl.gz --type message --since 50
    python -m repro trace causal run.jsonl.gz
    python -m repro replay run.jsonl.gz --at 500
    python -m repro bench snapshot
    python -m repro bench compare old.json new.json --strict
    python -m repro chaos base --horizon 400 --crash-rate 0.02
    python -m repro chaos micro --no-checkpoint --json
    python -m repro optimize --workload tree:depth=4,branching=3
    python -m repro workload --list
    python -m repro sweep run --workload micro --workload base \
        --engine none --engine vectorized --jobs 4 --dry-run
    python -m repro sweep run --workload base --method lrgp \
        --gamma adaptive --gamma fixed:0.05 --bench BENCH_sweep.json
    python -m repro sweep run --workload base --seed 0 --seed 1 \
        --jobs 4 --capture --live --events events.jsonl --flame farm.folded
    python -m repro sweep show
    python -m repro sweep ledger --limit 5
    python -m repro sweep diff-flame base/lrgp/s0 base/lrgp/s1 -o diff.folded
    python -m repro sweep clean
    python -m repro lint --strict src
    python -m repro lint --format json --rules R2,R5 src
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from typing import Callable, Iterator

    from repro.obs import ProfileReport, Telemetry, TraceEvent
    from repro.sweep import ResultCache, SweepSpec

from repro.core.engines import DEFAULT_ENGINE, available_engines
from repro.core.gamma import AdaptiveGamma, FixedGamma
from repro.core.lrgp import LRGP, LRGPConfig
from repro.experiments.extensions import (
    extension_capacity_churn,
    extension_communication,
    extension_coordinate,
    extension_fault_recovery,
    extension_link_pricing,
    extension_multirate,
    extension_queueing_latency,
    extension_two_stage,
)
from repro.experiments.figures import (
    figure1_damping,
    figure2_adaptive_gamma,
    figure3_recovery,
    figure4_power_utility,
)
from repro.experiments.reporting import (
    render_ascii_chart,
    render_series_rows,
    render_table,
)
from repro.experiments.tables import (
    table1_workload,
    table2_scalability,
    table3_utility_shapes,
)
from repro.model.allocation import is_feasible
from repro.model.problem import Problem
from repro.model.serialization import (
    allocation_to_json,
    problem_from_json,
    problem_to_json,
)
from repro.solve import SolveResult, available_methods, solve
from repro.workloads.registry import (
    list_aliases,
    list_workloads,
    workload_from_spec,
)

def load_problem(spec: str) -> Problem:
    """Resolve a workload spec: ``NAME[:k=v,...]`` (registry name or
    alias, with factory parameters) or a problem JSON path."""
    try:
        return workload_from_spec(spec)
    except KeyError:
        pass  # not a registered name: fall through to the path form
    except (TypeError, ValueError) as error:
        raise SystemExit(str(error)) from error
    path = Path(spec)
    if path.exists():
        return problem_from_json(path.read_text())
    raise SystemExit(
        f"unknown workload {spec!r}: not a registered workload "
        f"({', '.join(list_workloads())}), not an alias "
        f"({', '.join(sorted(list_aliases()))}), and no such file"
    )


def _print_multirate_summary(problem: Problem, result: SolveResult) -> None:
    allocation = result.allocation
    print(f"workload:   {problem.describe()} (multirate)")
    print(f"iterations: {result.iterations} (stable by {result.converged_at})")
    print(f"utility:    {result.utility:,.2f}")
    print("source rate caps:")
    for flow_id in sorted(allocation.source_rates):
        print(f"  {flow_id}: {allocation.source_rates[flow_id]:.2f}")
    print("local delivery rates (node, flow):")
    for (node_id, flow_id), rate in sorted(allocation.local_rates.items()):
        cap = allocation.source_rates[flow_id]
        marker = "  (thinned)" if rate < cap - 1e-9 else ""
        print(f"  {node_id} <- {flow_id}: {rate:.2f}{marker}")


def _print_summary(
    problem: Problem, result: SolveResult, verbose: bool
) -> None:
    allocation = result.allocation
    method_tag = "" if result.method == "lrgp" else f" ({result.method})"
    print(f"workload:   {problem.describe()}{method_tag}")
    print(f"iterations: {result.iterations} (stable by {result.converged_at})")
    print(f"utility:    {result.utility:,.2f}")
    print(f"feasible:   {is_feasible(problem, allocation)}")
    print("rates:")
    for flow_id in sorted(allocation.rates):
        print(f"  {flow_id}: {allocation.rates[flow_id]:.2f}")
    print("populations (admitted/connected):")
    for class_id in sorted(allocation.populations):
        admitted = allocation.populations[class_id]
        connected = problem.classes[class_id].max_consumers
        if admitted or verbose:
            print(f"  {class_id}: {admitted}/{connected}")
    node_prices = result.metadata.get("node_prices")
    link_prices = result.metadata.get("link_prices")
    if node_prices is not None or link_prices is not None:
        print("node prices:")
        for node_id, price in sorted((node_prices or {}).items()):
            print(f"  {node_id}: {price:.6f}")
        for link_id, price in sorted((link_prices or {}).items()):
            print(f"  link {link_id}: {price:.6f}")


def cmd_optimize(args: argparse.Namespace) -> int:
    problem = load_problem(args.workload)
    method = "multirate" if args.multirate else args.method
    if args.trace is not None and method != "lrgp":
        raise SystemExit(
            "--trace needs per-iteration records; only --method lrgp has them"
        )
    options: dict[str, object] = {}
    try:
        if method in ("lrgp", "two_stage"):
            options["config"] = LRGPConfig(
                node_gamma=(
                    FixedGamma(args.gamma) if args.gamma is not None else AdaptiveGamma()
                ),
                link_gamma=args.link_gamma,
                record_snapshots=args.trace is not None,
            )
        result = solve(
            problem,
            method,
            engine=args.engine,
            iterations=args.iterations,
            **options,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from error

    if args.json:
        import json as _json

        print(_json.dumps(result.to_dict(), indent=2, sort_keys=True))
    elif method == "multirate":
        _print_multirate_summary(problem, result)
    else:
        _print_summary(problem, result, args.verbose)

    if args.output is not None:
        if method == "multirate":
            raise SystemExit(
                "--output writes single-rate allocation JSON; "
                "not supported with --method multirate"
            )
        Path(args.output).write_text(allocation_to_json(result.allocation))
        print(f"allocation written to {args.output}")
    if args.trace is not None:
        from repro.core.trace import trace_to_csv

        Path(args.trace).write_text(trace_to_csv(result.metadata["records"]))
        print(f"trace written to {args.trace}")
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    if args.list_workloads:
        from repro.workloads.registry import entry_for

        print("workloads:")
        for name in list_workloads():
            entry = entry_for(name)
            print(f"  {name:<14} {entry.summary}")
        aliases = list_aliases()
        if aliases:
            print("aliases:")
            for alias in sorted(aliases):
                print(f"  {alias:<14} -> {aliases[alias]}")
        return 0
    if args.name is None:
        raise SystemExit("a workload name is required (or --list)")
    problem = load_problem(args.name)
    text = problem_to_json(problem)
    if args.output is not None:
        Path(args.output).write_text(text)
        print(f"{problem.describe()} written to {args.output}")
    else:
        print(text)
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    figures = {
        "1": figure1_damping,
        "2": figure2_adaptive_gamma,
        "3": figure3_recovery,
        "4": figure4_power_utility,
    }
    figure = figures[args.number]()
    print(render_ascii_chart(figure))
    print()
    print(render_series_rows(figure, every=args.every))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.number == "1":
        print(render_table(table1_workload()))
    elif args.number == "2":
        print(render_table(table2_scalability(sa_steps=args.sa_steps)))
    else:
        print(render_table(table3_utility_shapes(sa_steps=args.sa_steps)))
    return 0


def cmd_extension(args: argparse.Namespace) -> int:
    tables = {
        "e1": extension_link_pricing,
        "e2": extension_multirate,
        "e3": extension_two_stage,
        "e4": extension_queueing_latency,
        "e6": extension_coordinate,
        "e7": extension_communication,
        "e8": extension_fault_recovery,
    }
    if args.name == "e5":
        figure = extension_capacity_churn()
        print(render_ascii_chart(figure))
        print()
        print(render_series_rows(figure, every=10))
    else:
        print(render_table(tables[args.name]()))
    return 0


def _telemetry_run(
    args: argparse.Namespace,
    problem: Problem,
    telemetry: "Telemetry | None" = None,
) -> "Telemetry":
    """Run the selected engine with an in-memory telemetry capture."""
    from repro.obs import Telemetry

    if telemetry is None:
        telemetry = Telemetry()
    if args.engine == "sync":
        from repro.runtime.synchronous import SynchronousRuntime

        SynchronousRuntime(
            problem, telemetry=telemetry, trace_id=f"sync-{args.workload}"
        ).run(args.iterations)
    elif args.engine == "async":
        from repro.runtime.asynchronous import AsynchronousRuntime

        AsynchronousRuntime(
            problem, telemetry=telemetry, trace_id=f"async-{args.workload}"
        ).run_until(float(args.iterations))
    else:
        config = LRGPConfig(record_snapshots=args.snapshots, telemetry=telemetry)
        LRGP(problem, config, engine=args.engine).run(args.iterations)
    return telemetry


def _stats_from_json(args: argparse.Namespace) -> int:
    """``repro stats --from-json``: re-render an archived snapshot.

    Accepts any artifact carrying a ``snapshot_to_dict`` payload — a raw
    snapshot object, the ``repro stats --format json`` wrapper (snapshot
    under ``"metrics"``), or a sweep cell's shipped telemetry section —
    and pushes it through the same renderers as a live run.
    """
    import json as _json

    from repro.obs import (
        MetricsError,
        render_metrics,
        snapshot_from_dict,
        to_json,
        to_prometheus_text,
    )

    try:
        payload = _json.loads(Path(args.from_json).read_text(encoding="utf-8"))
    except OSError as error:
        raise SystemExit(f"cannot read {args.from_json}: {error}") from error
    except ValueError as error:
        raise SystemExit(
            f"{args.from_json} is not valid JSON: {error}"
        ) from error
    if isinstance(payload, dict) and isinstance(payload.get("metrics"), dict):
        # `repro stats --format json` wrapper or a sweep telemetry section.
        payload = payload["metrics"]
    if isinstance(payload, dict) and not any(
        key in payload for key in ("counters", "gauges", "histograms")
    ):
        raise SystemExit(
            f"{args.from_json} does not contain a metrics snapshot "
            "(no counters/gauges/histograms sections)"
        )
    try:
        snapshot = snapshot_from_dict(payload)
    except MetricsError as error:
        raise SystemExit(
            f"{args.from_json} does not contain a metrics snapshot: {error}"
        ) from error

    if args.format == "json":
        rendered = to_json(snapshot)
    elif args.format == "prometheus":
        rendered = to_prometheus_text(snapshot).rstrip("\n")
    else:
        rendered = f"source:     {args.from_json}\n" + render_metrics(snapshot)
    print(rendered)
    if args.output is not None:
        payload_text = (
            to_json(snapshot) if args.format == "human" else rendered + "\n"
        )
        Path(args.output).write_text(payload_text)
        print(f"metrics snapshot written to {args.output}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    if args.from_json is not None:
        if args.workload is not None:
            raise SystemExit(
                "--from-json renders an archived snapshot; combining it "
                "with a workload is ambiguous"
            )
        return _stats_from_json(args)
    from repro.baselines.bounds import utility_upper_bound
    from repro.obs import (
        ConvergenceDiagnostics,
        MemorySink,
        PhaseProfiler,
        Telemetry,
        diagnostics_to_dict,
        register_phase_metrics,
        render_diagnostics,
        render_metrics,
        snapshot_to_dict,
        to_json,
        to_prometheus_text,
    )

    problem = load_problem(args.workload)
    args.snapshots = False  # stats never needs per-iteration state
    profiler = PhaseProfiler()
    telemetry = _telemetry_run(
        args, problem, telemetry=Telemetry(profiler=profiler)
    )
    # Timings come from the phase profiler, as profile.phase.* metrics.
    register_phase_metrics(profiler.report(), telemetry.registry)
    snapshot = telemetry.registry.snapshot()
    sink = telemetry.sink
    assert isinstance(sink, MemorySink)
    report = ConvergenceDiagnostics(
        utility_bound=utility_upper_bound(problem)
    ).analyze(sink.events)

    if args.format == "json":
        import json as _json

        rendered = _json.dumps(
            {
                "workload": args.workload,
                "description": problem.describe(),
                "engine": args.engine,
                "metrics": snapshot_to_dict(snapshot),
                "diagnostics": diagnostics_to_dict(report),
            },
            indent=2,
            sort_keys=True,
        )
    elif args.format == "prometheus":
        rendered = to_prometheus_text(snapshot).rstrip("\n")
    else:
        rendered = (
            f"workload:   {problem.describe()}\n"
            f"engine:     {args.engine}\n"
            + render_metrics(snapshot)
            + "\n"
            + render_diagnostics(report)
        )
    print(rendered)
    if args.output is not None:
        # json / prometheus files mirror stdout; human runs get the JSON
        # snapshot so there is always a machine-readable artifact.
        if args.format == "human":
            payload = to_json(snapshot)
        else:
            payload = rendered + "\n"
        Path(args.output).write_text(payload)
        print(f"metrics snapshot written to {args.output}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import (
        NULL_REGISTRY,
        NULL_SINK,
        PhaseProfiler,
        Telemetry,
        render_report,
        to_collapsed,
        to_speedscope,
    )

    problem = load_problem(args.workload)
    profiler = PhaseProfiler(track_allocations=args.allocations)
    args.snapshots = False  # profiling never needs per-iteration state
    # Spans only: price probes and trace events would be timed inside the
    # phases they instrument and skew the very split being measured.
    telemetry = Telemetry(
        registry=NULL_REGISTRY, sink=NULL_SINK, enabled=False, profiler=profiler
    )
    _telemetry_run(args, problem, telemetry=telemetry)
    report = profiler.report()

    print(f"workload:   {problem.describe()}")
    print(f"engine:     {args.engine}")
    print(render_report(report))
    if args.flame is not None:
        Path(args.flame).write_text(to_collapsed(report))
        print(f"collapsed stacks written to {args.flame}")
    if args.speedscope is not None:
        Path(args.speedscope).write_text(
            to_speedscope(report, name=f"repro profile {args.workload}")
        )
        print(f"speedscope profile written to {args.speedscope}")
    if args.json is not None:
        import json as _json

        Path(args.json).write_text(
            _json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"profile JSON written to {args.json}")
    return 0


def _parse_kinds(spec: str | None) -> set[str] | None:
    """Validate a comma-separated event-kind filter against EVENT_TYPES."""
    if spec is None:
        return None
    from repro.obs import EVENT_TYPES

    kinds = {part.strip() for part in spec.split(",") if part.strip()}
    unknown = kinds - set(EVENT_TYPES)
    if unknown:
        raise SystemExit(
            f"unknown event kind(s) {', '.join(sorted(unknown))}; "
            f"choose from {', '.join(sorted(EVENT_TYPES))}"
        )
    return kinds


def cmd_trace_run(args: argparse.Namespace) -> int:
    from repro.obs import CsvSink, JsonlSink, MemorySink

    kinds = _parse_kinds(args.events)
    if args.gzip and args.output is None:
        raise SystemExit("--gzip writes binary output; it requires -o FILE")
    if args.gzip and args.format != "jsonl":
        raise SystemExit("--gzip applies to JSONL captures only")

    problem = load_problem(args.workload)
    telemetry = _telemetry_run(args, problem)
    sink = telemetry.sink
    assert isinstance(sink, MemorySink)
    events = [
        event
        for event in sink.events
        if kinds is None or event.kind in kinds
    ]

    if args.gzip:
        import gzip as _gzip

        with _gzip.open(args.output, "wt", encoding="utf-8") as stream:
            out = JsonlSink(stream)
            for event in events:
                out.emit(event)
            out.close()
    else:
        target = args.output if args.output is not None else sys.stdout
        out = JsonlSink(target) if args.format == "jsonl" else CsvSink(target)
        for event in events:
            out.emit(event)
        out.close()
    if args.output is not None:
        print(f"{len(events)} event(s) written to {args.output}")
    return 0


def _event_time(event: object) -> float | None:
    """Simulated time of an event, if it carries one (v2 captures)."""
    at = getattr(event, "at", None)
    if at is not None:
        return float(at)
    stamp = getattr(event, "stamp", None)
    return float(stamp) if stamp is not None else None


def _render_event_line(event: object) -> str:
    """One compact human line per event (the ``trace show`` format)."""
    kind = getattr(event, "kind", "?")
    at = _event_time(event)
    clock = f"{at:10.3f}" if at is not None else " " * 10
    from repro.obs import (
        AgentExchangeEvent,
        AgentRestartedEvent,
        FaultInjectedEvent,
        IterationEvent,
        MessageEvent,
        PriceUpdateEvent,
    )

    if isinstance(event, IterationEvent):
        detail = f"#{event.iteration} utility={event.utility:,.2f}"
    elif isinstance(event, MessageEvent):
        detail = f"{event.sender} -> {event.recipient} {event.payload}"
        if event.latency is not None:
            detail += f" latency={event.latency:.3f}"
        if event.span_id is not None:
            detail += f" span={event.span_id}"
    elif isinstance(event, AgentExchangeEvent):
        detail = f"{event.agent} sent={event.sent}"
        if event.span_id is not None:
            detail += f" span={event.span_id}"
    elif isinstance(event, PriceUpdateEvent):
        detail = (
            f"{event.resource_kind}:{event.resource} "
            f"{event.old_price:.6f} -> {event.new_price:.6f} [{event.branch}]"
        )
    elif isinstance(event, FaultInjectedEvent):
        detail = f"{event.fault} {event.target}"
    elif isinstance(event, AgentRestartedEvent):
        mode = "checkpoint" if event.from_checkpoint else "cold"
        detail = f"{event.agent} down={event.downtime:.2f} ({mode})"
    else:
        flat = {
            key: value
            for key, value in event.flatten().items()  # type: ignore[attr-defined]
            if key not in ("type", "t_ns")
        }
        detail = " ".join(f"{key}={value}" for key, value in flat.items())
    return f"{clock}  {kind:<15} {detail}"


def _is_gzip_file(path: str) -> bool:
    """True when the file starts with the gzip magic bytes."""
    with open(path, "rb") as stream:
        return stream.read(2) == b"\x1f\x8b"


def _follow_lines(path: str, idle_timeout: float) -> "Iterator[str]":
    """Tail a capture file: yield complete lines as they are appended.

    Stops after ``idle_timeout`` seconds with no new data — a capture
    that stopped growing is finished, and the CLI should exit rather
    than hang forever.
    """
    import time as _time

    from repro.obs import open_trace

    poll = 0.1
    with open_trace(path) as stream:
        buffer = ""
        idle = 0.0
        while True:
            chunk = stream.readline()
            if chunk:
                buffer += chunk
                if buffer.endswith("\n"):
                    yield buffer
                    buffer = ""
                idle = 0.0
                continue
            if idle >= idle_timeout:
                if buffer.strip():
                    yield buffer
                return
            _time.sleep(poll)
            idle += poll


def cmd_trace_show(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs import event_from_dict, open_trace

    kinds = _parse_kinds(args.type)
    if not Path(args.file).is_file():
        raise SystemExit(f"no such capture: {args.file}")
    if args.follow and _is_gzip_file(args.file):
        raise SystemExit(
            f"cannot --follow gzip capture {args.file}: a gzip stream only "
            "decodes once the writer closes it; capture without --gzip, or "
            "decompress first (gunzip) and tail the plain JSONL"
        )

    def matches(event: object) -> bool:
        if kinds is not None and getattr(event, "kind", None) not in kinds:
            return False
        if args.since is not None:
            at = _event_time(event)
            # --since filters on simulated time; untimed events (v1
            # captures, reference driver) carry none and are dropped.
            if at is None or at < args.since:
                return False
        return True

    if args.follow:
        lines: "Iterator[str]" = _follow_lines(args.file, args.idle_timeout)
    else:
        with open_trace(args.file) as stream:
            lines = iter(stream.readlines())

    shown = 0
    dashboard = _DashboardAggregator() if args.dashboard else None
    for line in lines:
        text = line.strip()
        if not text:
            continue
        event = event_from_dict(_json.loads(text))
        if not matches(event):
            continue
        shown += 1
        if dashboard is not None:
            dashboard.add(event)
            if shown % args.refresh_every == 0:
                _render_dashboard_frame(dashboard)
        else:
            print(_render_event_line(event))
    if dashboard is not None:
        _render_dashboard_frame(dashboard, final=True)
    elif shown == 0:
        print("(no matching events)")
    return 0


#: Recent events the dashboard keeps for context; everything older is
#: already folded into the aggregates and can be dropped.
_DASHBOARD_WINDOW = 1000


class _DashboardAggregator:
    """Bounded-memory state behind ``trace show --dashboard``.

    Every event is folded exactly once into a streaming
    :class:`~repro.obs.ReplayEngine` plus per-kind counters; only a
    rolling window of the most recent events is retained.  Memory stays
    constant however long a ``--follow`` stream runs (the previous
    implementation kept the whole event list and re-folded it per
    frame).
    """

    def __init__(self, window: int = _DASHBOARD_WINDOW) -> None:
        from collections import deque

        from repro.obs import ReplayEngine

        self.engine = ReplayEngine()
        self.total = 0
        self.kind_counts: dict[str, int] = {}
        self.recent: "deque[TraceEvent]" = deque(maxlen=window)

    def add(self, event: "TraceEvent") -> None:
        self.engine.ingest(event)
        self.total += 1
        kind = getattr(event, "kind", "?")
        self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
        self.recent.append(event)


def _render_dashboard_frame(
    dashboard: _DashboardAggregator, final: bool = False
) -> None:
    """One frame of the live summary (clears screen on a real TTY)."""
    from repro.obs import render_state

    state = dashboard.engine.state()
    if sys.stdout.isatty():
        print("\x1b[2J\x1b[H", end="")
    header = "final" if final else "live"
    print(f"--- trace dashboard ({header}, {dashboard.total} event(s)) ---")
    print(render_state(state, total_events=dashboard.total))
    if dashboard.kind_counts:
        counts = ", ".join(
            f"{kind}={dashboard.kind_counts[kind]}"
            for kind in sorted(dashboard.kind_counts)
        )
        print(f"by kind:     {counts}")
    sys.stdout.flush()


def cmd_trace_causal(args: argparse.Namespace) -> int:
    from repro.obs import read_jsonl
    from repro.obs.causal import CausalGraph, render_causal_report

    if not Path(args.file).is_file():
        raise SystemExit(f"no such capture: {args.file}")
    graph = CausalGraph(read_jsonl(args.file))
    if args.json:
        import json as _json

        print(_json.dumps(graph.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_causal_report(graph, max_hops=args.max_hops))
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.obs import ReplayEngine, ReplayError, read_jsonl, render_state

    if not Path(args.file).is_file():
        raise SystemExit(f"no such capture: {args.file}")
    engine = ReplayEngine(read_jsonl(args.file))
    try:
        state = engine.final() if args.at is None else engine.seek(args.at)
    except ReplayError as error:
        raise SystemExit(str(error)) from error
    if args.json:
        import json as _json

        print(_json.dumps(state.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_state(state, total_events=len(engine)))
    return 0


def cmd_bench_snapshot(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.bench import consolidate

    directory = Path(args.results_dir)
    if not directory.is_dir():
        raise SystemExit(f"no such results directory: {args.results_dir}")
    snapshot = consolidate(directory)
    output = Path(args.output) if args.output else directory / "BENCH_trajectory.json"
    output.write_text(_json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(
        f"trajectory snapshot: {len(snapshot['metrics'])} metric(s) from "
        f"suite(s) {', '.join(snapshot['suites']) or '(none)'} "
        f"written to {output}"
    )
    if snapshot["skipped"]:
        print(f"skipped unparseable: {', '.join(snapshot['skipped'])}")
    return 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.bench import compare_snapshots, render_comparison

    payloads = []
    for path in (args.old, args.new):
        if not Path(path).is_file():
            raise SystemExit(f"no such snapshot: {path}")
        try:
            payloads.append(_json.loads(Path(path).read_text(encoding="utf-8")))
        except ValueError as error:
            raise SystemExit(f"unparseable snapshot {path}: {error}") from error
    try:
        comparison = compare_snapshots(
            payloads[0], payloads[1], threshold=args.threshold
        )
    except ValueError as error:
        raise SystemExit(str(error)) from error
    if args.json:
        print(_json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_comparison(comparison))
    if args.strict and comparison.regressions:
        return 1
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.runtime.asynchronous import retention, run_chaos
    from repro.runtime.faults import FaultPlan

    problem = load_problem(args.workload)
    checkpoint_interval = None if args.no_checkpoint else args.checkpoint_interval
    try:
        plan = FaultPlan.random(
            problem,
            seed=args.seed,
            horizon=args.horizon,
            crash_rate=args.crash_rate,
            mean_downtime=args.mean_downtime,
            cold_probability=args.cold_probability,
            partition_rate=args.partition_rate,
            storm_rate=args.storm_rate,
            warmup=args.warmup,
            checkpoint_interval=checkpoint_interval,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from error
    runtime = run_chaos(problem, plan, seed=args.seed, horizon=args.horizon)
    baseline = run_chaos(problem, None, seed=args.seed, horizon=args.horizon)
    utility = runtime.converged_utility()
    ratio = retention(runtime, baseline)

    if args.json:
        import json as _json

        payload = {
            "workload": args.workload,
            "horizon": args.horizon,
            "seed": args.seed,
            "plan": plan.summary(),
            "utility": utility,
            "baseline_utility": baseline.converged_utility(),
            "retention": ratio,
            "counters": runtime.message_counters(),
            "recoveries": [
                {
                    "address": record.address,
                    "crashed_at": record.crashed_at,
                    "downtime": record.downtime,
                    "recovery_time": record.recovery_time,
                    "from_checkpoint": record.from_checkpoint,
                }
                for record in runtime.recoveries
            ],
        }
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(f"workload:   {problem.describe()}")
    print(
        f"fault plan: {len(plan.crashes)} crash(es), "
        f"{len(plan.partitions)} partition(s), {len(plan.storms)} storm(s) "
        f"over horizon {args.horizon:g} (seed {args.seed})"
    )
    checkpointing = (
        f"every {plan.checkpoint_interval:g}"
        if plan.checkpoint_interval is not None
        else "disabled (cold restarts)"
    )
    print(f"checkpoints: {checkpointing}")
    print(
        "messages:   "
        f"{runtime.messages_sent} sent, {runtime.messages_lost} lost, "
        f"{runtime.messages_stale} stale-rejected, "
        f"{runtime.messages_to_down} to-down, "
        f"{runtime.messages_partitioned} partitioned, "
        f"{runtime.retransmissions} retransmitted"
    )
    share = "n/a" if ratio is None else f"{ratio:.2%}"
    print(f"utility:    {utility:,.2f} ({share} of fault-free run)")
    if runtime.recoveries:
        print("recoveries:")
        for record in runtime.recoveries:
            kind = "checkpoint" if record.from_checkpoint else "cold"
            print(
                f"  {record.address}: crashed t={record.crashed_at:.1f}, "
                f"down {record.downtime:.1f}, recovered in "
                f"{record.recovery_time:.1f} ({kind})"
            )
    unresolved = runtime.down_agents
    if unresolved:
        print(f"still down: {', '.join(sorted(unresolved))}")
    return 0


def _parse_fault_plan_value(text: str) -> dict[str, float] | None:
    """One ``--fault-plan`` axis value: ``none`` or ``k=v[,k=v...]``."""
    if text.strip().lower() == "none":
        return None
    plan: dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep or not key.strip():
            raise SystemExit(
                f"malformed fault-plan parameter {part!r} in {text!r}; "
                "expected k=v"
            )
        try:
            plan[key.strip()] = float(value)
        except ValueError:
            raise SystemExit(
                f"fault-plan parameter {key.strip()!r} has non-numeric "
                f"value {value!r}"
            ) from None
    if not plan:
        raise SystemExit(f"empty fault plan {text!r}; use 'none' for fault-free")
    return plan


def _sweep_spec_from_args(args: argparse.Namespace) -> "SweepSpec":
    from repro.sweep import SweepSpec, load_spec

    axis_flags = (
        args.workloads or args.methods or args.engines or args.gammas
        or args.fault_plans or args.iterations or args.seeds
        or args.repeats != 1
    )
    if args.spec is not None:
        if axis_flags:
            raise SystemExit(
                "--spec carries the whole grid; combining it with axis "
                "flags (--workload/--method/...) is ambiguous"
            )
        try:
            return load_spec(args.spec)
        except ValueError as error:
            raise SystemExit(str(error)) from error
    try:
        return SweepSpec(
            workloads=tuple(args.workloads or ["base"]),
            methods=tuple(args.methods or ["lrgp"]),
            engines=tuple(
                None if engine == "none" else engine
                for engine in (args.engines or ["none"])
            ),
            gammas=tuple(args.gammas or ["adaptive"]),
            fault_plans=tuple(
                _parse_fault_plan_value(value)
                for value in (args.fault_plans or ["none"])
            ),
            iterations=tuple(args.iterations or [250]),
            seeds=tuple(args.seeds or [0]),
            repeats=args.repeats,
        )
    except ValueError as error:
        raise SystemExit(str(error)) from error


def _sweep_monitor(
    args: argparse.Namespace, stack: "contextlib.ExitStack"
) -> "Callable[[dict[str, object]], None] | None":
    """Compose the ``--live`` stderr renderer and ``--events`` JSONL
    stream into one monitor callable (``None`` when neither is on)."""
    from repro.sweep import JsonlEventWriter, render_live_event

    sinks: list[Callable[[dict[str, object]], None]] = []
    if args.events is not None:
        stream = stack.enter_context(
            open(args.events, "w", encoding="utf-8")
        )
        sinks.append(JsonlEventWriter(stream))
    if args.live:

        def render(event: dict[str, object]) -> None:
            line = render_live_event(event)
            if line is not None:
                print(line, file=sys.stderr, flush=True)

        sinks.append(render)
    if not sinks:
        return None
    if len(sinks) == 1:
        return sinks[0]

    def fanout(event: dict[str, object]) -> None:
        for sink in sinks:
            sink(event)

    return fanout


def _export_farm_telemetry(args: argparse.Namespace, result: object) -> None:
    """Write the aggregated farm flamegraph/speedscope artifacts."""
    from repro.obs import to_collapsed, to_speedscope
    from repro.sweep import aggregate_sweep_telemetry

    farm = aggregate_sweep_telemetry(result)  # type: ignore[arg-type]
    if farm.empty:
        raise SystemExit(
            "--flame/--speedscope need per-cell telemetry and no cell "
            "carries any; run with --capture (cached entries written by "
            "a captured run keep their telemetry)"
        )
    if farm.cells_with_telemetry < farm.cells_total:
        print(
            f"note: {farm.cells_with_telemetry}/{farm.cells_total} cell(s) "
            "carry telemetry; the farm aggregate covers those only"
        )
    if args.flame is not None:
        Path(args.flame).write_text(to_collapsed(farm.phases))
        print(f"farm collapsed stacks written to {args.flame}")
    if args.speedscope is not None:
        Path(args.speedscope).write_text(
            to_speedscope(farm.phases, name="repro sweep farm")
        )
        print(f"farm speedscope profile written to {args.speedscope}")


def cmd_sweep_run(args: argparse.Namespace) -> int:
    from repro.canonical import canonical_json
    from repro.sweep import (
        ResultCache,
        bench_payload,
        plan_sweep,
        render_sweep_plan,
        render_sweep_report,
        run_sweep,
        sweep_to_csv,
        sweep_to_json,
    )

    spec = _sweep_spec_from_args(args)
    try:
        cells = spec.expand()
    except KeyError as error:
        raise SystemExit(str(error.args[0])) from error
    except ValueError as error:
        raise SystemExit(str(error)) from error
    cache = ResultCache(args.cache_dir)
    if args.dry_run:
        print(render_sweep_plan(plan_sweep(cells, cache, force=args.force)))
        return 0
    with contextlib.ExitStack() as stack:
        monitor = _sweep_monitor(args, stack)
        try:
            result = run_sweep(
                cells,
                jobs=args.jobs,
                cache=cache,
                force=args.force,
                capture=args.capture,
                monitor=monitor,
                ledger=args.ledger,
            )
        except ValueError as error:
            raise SystemExit(str(error)) from error
    print(render_sweep_report(result))
    if args.events is not None:
        print(f"event stream written to {args.events}")
    if args.csv is not None:
        Path(args.csv).write_text(sweep_to_csv(result), encoding="utf-8")
        print(f"CSV written to {args.csv}")
    if args.json is not None:
        Path(args.json).write_text(
            canonical_json(sweep_to_json(result)) + "\n", encoding="utf-8"
        )
        print(f"JSON written to {args.json}")
    if args.bench is not None:
        import json as _json

        Path(args.bench).write_text(
            _json.dumps(bench_payload(result), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"bench payload written to {args.bench}")
    if args.flame is not None or args.speedscope is not None:
        _export_farm_telemetry(args, result)
    # --keep-going semantics are built in (failed cells never abort the
    # grid); the exit code still reports that something failed.
    return 1 if result.failed else 0


def cmd_sweep_ledger(args: argparse.Namespace) -> int:
    from repro.sweep import ResultCache, RunLedger, render_ledger

    cache = ResultCache(args.cache_dir)
    ledger = RunLedger(cache.root)
    records = ledger.records()
    if args.json:
        import json as _json

        shown = records if args.limit is None else records[-args.limit:]
        print(_json.dumps(shown, indent=2, sort_keys=True))
    else:
        print(f"ledger: {ledger.path}")
        print(render_ledger(records, limit=args.limit))
    if ledger.corrupt_lines:
        print(
            f"({ledger.corrupt_lines} corrupt line(s) skipped)",
            file=sys.stderr,
        )
    return 0


def _resolve_flame_cell(
    cache: "ResultCache", selector: str
) -> "ProfileReport":
    """Find the one cached cell matching ``selector`` (label or key
    prefix) and return its shipped phase tree."""
    import json as _json

    from repro.obs import report_from_dict
    from repro.sweep import RunConfig

    matches: list[tuple[str, str, dict]] = []
    for path in cache.entry_paths():
        try:
            entry = _json.loads(path.read_text(encoding="utf-8"))
            label = RunConfig.from_dict(entry["config"]).label()
        except (OSError, ValueError, KeyError, TypeError):
            continue
        key = entry.get("key", path.stem)
        if label == selector or key.startswith(selector):
            matches.append((label, key, entry.get("payload", {})))
    if not matches:
        raise SystemExit(
            f"no cached cell matches {selector!r} (label or key prefix); "
            "see repro sweep show"
        )
    if len(matches) > 1:
        listed = ", ".join(f"{label} ({key[:12]})" for label, key, _ in matches)
        raise SystemExit(
            f"{selector!r} is ambiguous: matches {listed}; use a longer "
            "key prefix"
        )
    label, key, payload = matches[0]
    telemetry = payload.get("telemetry")
    if not isinstance(telemetry, dict) or "phases" not in telemetry:
        raise SystemExit(
            f"cell {label} ({key[:12]}) has no telemetry; re-run the "
            "sweep with --capture --force to record its phase tree"
        )
    return report_from_dict(telemetry["phases"])


def cmd_sweep_diff_flame(args: argparse.Namespace) -> int:
    from repro.obs import to_collapsed_diff
    from repro.sweep import ResultCache

    cache = ResultCache(args.cache_dir)
    base = _resolve_flame_cell(cache, args.base)
    other = _resolve_flame_cell(cache, args.other)
    diff = to_collapsed_diff(base, other)
    if args.output is not None:
        Path(args.output).write_text(diff)
        print(f"differential folded stacks written to {args.output}")
    else:
        print(diff, end="")
    return 0


def cmd_sweep_show(args: argparse.Namespace) -> int:
    import json as _json

    from repro.sweep import ResultCache, RunConfig

    cache = ResultCache(args.cache_dir)
    paths = list(cache.entry_paths())
    print(f"cache: {cache.root} ({len(paths)} entr{'y' if len(paths) == 1 else 'ies'})")
    for path in paths:
        try:
            entry = _json.loads(path.read_text(encoding="utf-8"))
            label = RunConfig.from_dict(entry["config"]).label()
        except (OSError, ValueError, KeyError, TypeError):
            label = "<corrupt entry>"
        print(f"  {path.stem[:12]}  {label}")
    return 0


def cmd_sweep_clean(args: argparse.Namespace) -> int:
    from repro.sweep import ResultCache

    cache = ResultCache(args.cache_dir)
    removed = cache.clean()
    print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} from {cache.root}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the analyzer is pure stdlib but irrelevant to the
    # optimization commands, and keeping it out of module import keeps
    # `python -m repro optimize` startup unchanged.
    from repro.analysis import (
        Severity,
        analyze_paths,
        apply_baseline,
        load_baseline,
        render_human,
        render_json,
        rules_for,
        write_baseline,
    )
    from repro.analysis.baseline import stale_entries
    from repro.analysis.fixes import apply_fixes, fixable
    from repro.analysis.sarif import render_sarif

    if args.list_rules:
        for rule in rules_for(None):
            print(f"{rule.rule_id}  {rule.severity}  {rule.title}")
        return 0

    if args.rules:
        requested = [part.strip().upper() for part in args.rules.split(",") if part.strip()]
        if not requested:
            raise SystemExit(f"--rules got no rule ids: {args.rules!r}")
    else:
        requested = None
    try:
        rules = rules_for(requested)
    except KeyError as error:
        raise SystemExit(str(error.args[0])) from error

    paths = args.paths or (["src"] if Path("src").is_dir() else ["."])
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        raise SystemExit(f"no such file or directory: {', '.join(missing)}")
    findings = analyze_paths(paths, rules, project=args.project)

    if args.fix:
        applied = apply_fixes(findings)
        total = sum(applied.values())
        for path, count in sorted(applied.items()):
            print(f"fixed {count} finding(s) in {path}")
        print(f"{total} finding(s) auto-fixed; re-running analysis")
        findings = analyze_paths(paths, rules, project=args.project)

    if args.write_baseline is not None:
        count = write_baseline(findings, Path(args.write_baseline))
        print(f"baseline with {count} finding(s) written to {args.write_baseline}")
        return 0
    if args.baseline is not None:
        baseline_path = Path(args.baseline)
        if not baseline_path.is_file():
            raise SystemExit(f"baseline file not found: {args.baseline}")
        baseline = load_baseline(baseline_path)
        stale = stale_entries(findings, baseline)
        if stale:
            print(
                f"note: {sum(stale.values())} stale baseline entr"
                f"{'y' if sum(stale.values()) == 1 else 'ies'} in "
                f"{args.baseline} (violations since fixed); prune with "
                "repro.analysis.baseline.prune_baseline",
                file=sys.stderr,
            )
        findings = apply_baseline(findings, baseline)

    if args.sarif is not None:
        Path(args.sarif).write_text(
            render_sarif(findings, rules) + "\n", encoding="utf-8"
        )

    if args.format == "json":
        print(render_json(findings))
    elif args.format == "sarif":
        print(render_sarif(findings, rules))
    else:
        print(render_human(findings))

    if args.fix_dry_run:
        outstanding = fixable(findings)
        if outstanding:
            print(
                f"{len(outstanding)} finding(s) are mechanically fixable; "
                "run `repro lint --fix`",
                file=sys.stderr,
            )
            return 1
    if args.strict:
        return 1 if findings else 0
    return 1 if any(f.severity is Severity.ERROR for f in findings) else 0


def _add_workload_arg(parser: argparse.ArgumentParser) -> None:
    """The one workload convention: positional spec (historical) or the
    ``--workload NAME[:k=v,...]`` flag — both reach the registry."""
    parser.add_argument(
        "workload", nargs="?", default=None,
        help="workload spec NAME[:k=v,...] or problem JSON path",
    )
    parser.add_argument(
        "--workload", dest="workload_opt", default=None,
        metavar="NAME[:k=v,...]",
        help="workload spec (flag form of the positional argument)",
    )


def _resolve_workload(args: argparse.Namespace) -> None:
    """Merge the positional and ``--workload`` spellings into
    ``args.workload``; exactly one must be given."""
    if args.workload_opt is not None:
        if args.workload is not None and args.workload != args.workload_opt:
            raise SystemExit(
                f"workload given twice: positionally ({args.workload!r}) "
                f"and via --workload ({args.workload_opt!r}); pick one"
            )
        args.workload = args.workload_opt
    if args.workload is None and getattr(args, "from_json", None) is None:
        raise SystemExit(
            "a workload is required: pass it positionally or via "
            "--workload NAME[:k=v,...]"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LRGP: utility optimization for event-driven "
        "distributed infrastructures (ICDCS 2006)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    optimize = sub.add_parser("optimize", help="run an optimizer on a workload")
    _add_workload_arg(optimize)
    optimize.add_argument("--iterations", type=int, default=250)
    optimize.add_argument(
        "--method", choices=available_methods(), default="lrgp",
        help="optimizer family (default: lrgp); see repro.solve",
    )
    optimize.add_argument(
        "--engine", choices=available_engines(), default=None,
        help="LRGP iteration engine (lrgp/two_stage methods only; "
        f"default: {DEFAULT_ENGINE})",
    )
    optimize.add_argument(
        "--json", action="store_true",
        help="print the SolveResult as JSON instead of the summary",
    )
    optimize.add_argument(
        "--gamma", type=float, default=None,
        help="fixed node-price step size (default: adaptive)",
    )
    optimize.add_argument("--link-gamma", type=float, default=1e-4)
    optimize.add_argument("-o", "--output", help="write allocation JSON here")
    optimize.add_argument("--trace", help="write per-iteration CSV trace here")
    optimize.add_argument(
        "-v", "--verbose", action="store_true",
        help="also list classes with zero admissions",
    )
    optimize.add_argument(
        "--multirate", action="store_true",
        help="alias for --method multirate (per-node flow thinning)",
    )
    optimize.set_defaults(func=cmd_optimize)

    workload = sub.add_parser(
        "workload", help="materialize a registered workload as problem JSON"
    )
    workload.add_argument(
        "name", nargs="?", default=None,
        help="workload spec NAME[:k=v,...] (see --list)",
    )
    workload.add_argument(
        "--list", action="store_true", dest="list_workloads",
        help="list registered workloads and aliases, then exit",
    )
    workload.add_argument("-o", "--output", help="write problem JSON here")
    workload.set_defaults(func=cmd_workload)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", choices=["1", "2", "3", "4"])
    figure.add_argument("--every", type=int, default=10,
                        help="row sampling stride for the data dump")
    figure.set_defaults(func=cmd_figure)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", choices=["1", "2", "3"])
    table.add_argument("--sa-steps", type=int, default=200_000,
                       help="simulated-annealing step budget per run")
    table.set_defaults(func=cmd_table)

    extension = sub.add_parser("extension", help="run an extension experiment")
    extension.add_argument(
        "name", choices=["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8"]
    )
    extension.set_defaults(func=cmd_extension)

    stats = sub.add_parser(
        "stats",
        help="run a workload with telemetry; print metrics + diagnostics",
    )
    _add_workload_arg(stats)
    stats.add_argument("--iterations", type=int, default=250,
                       help="iterations (reference/sync) or time units (async)")
    stats.add_argument(
        "--engine", choices=["reference", "sync", "async"], default="reference",
        help="which engine to instrument (default: reference driver)",
    )
    stats.add_argument(
        "--format", choices=["human", "prometheus", "json"], default="human",
        help="snapshot format (default: human)",
    )
    stats.add_argument(
        "-o", "--output", metavar="FILE",
        help="also write the metrics snapshot here "
        "(Prometheus text, or JSON with --format json)",
    )
    stats.add_argument(
        "--from-json", metavar="FILE", default=None,
        help="render an archived metrics snapshot (stats --format json "
        "output, or any dict with a 'metrics' section) instead of "
        "running a workload",
    )
    stats.set_defaults(func=cmd_stats)

    profile = sub.add_parser(
        "profile",
        help="run a workload under the phase profiler; print the phase "
        "tree and export flamegraph / speedscope artifacts",
    )
    _add_workload_arg(profile)
    profile.add_argument(
        "--iterations", type=int, default=250,
        help="iterations (reference/vectorized/sync) or time units (async)",
    )
    profile.add_argument(
        "--engine",
        choices=["reference", "vectorized", "sync", "async"],
        default="reference",
        help="which engine to profile (default: reference driver)",
    )
    profile.add_argument(
        "--flame", metavar="FILE", default=None,
        help="write collapsed stacks here (flamegraph.pl / speedscope "
        "compatible, one 'a;b;c self_wall_ns' line per phase)",
    )
    profile.add_argument(
        "--speedscope", metavar="FILE", default=None,
        help="write a speedscope JSON profile here (open at "
        "https://www.speedscope.app)",
    )
    profile.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the aggregated phase report as JSON here",
    )
    profile.add_argument(
        "--allocations", action="store_true",
        help="also record per-phase allocation growth via tracemalloc "
        "(slows the run; wall/CPU splits stay exact)",
    )
    profile.set_defaults(func=cmd_profile)

    trace = sub.add_parser(
        "trace",
        help="capture, inspect and causally analyze event streams",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_run = trace_sub.add_parser(
        "run", help="capture the structured event stream of a run"
    )
    _add_workload_arg(trace_run)
    trace_run.add_argument(
        "--iterations", type=int, default=100,
        help="iterations (reference/sync) or time units (async)",
    )
    trace_run.add_argument(
        "--engine", choices=["reference", "sync", "async"], default="reference",
        help="which engine to instrument (default: reference driver)",
    )
    trace_run.add_argument(
        "--format", choices=["jsonl", "csv"], default="jsonl",
        help="jsonl is lossless; csv flattens to columns (default: jsonl)",
    )
    trace_run.add_argument(
        "--events", metavar="KINDS", default=None,
        help="comma-separated event kinds to keep (default: all)",
    )
    trace_run.add_argument(
        "--snapshots", action="store_true",
        help="include full per-iteration state in iteration events "
        "(reference engine only)",
    )
    trace_run.add_argument(
        "--gzip", action="store_true",
        help="gzip-compress the JSONL capture (requires -o; readers "
        "detect compression by content, any filename works)",
    )
    trace_run.add_argument("-o", "--output", metavar="FILE",
                           help="write here instead of stdout")
    trace_run.set_defaults(func=cmd_trace_run)

    trace_show = trace_sub.add_parser(
        "show", help="pretty-print a JSONL capture (plain or gzipped)"
    )
    trace_show.add_argument("file", help="JSONL capture path")
    trace_show.add_argument(
        "--type", metavar="KINDS", default=None,
        help="comma-separated event kinds to show (default: all)",
    )
    trace_show.add_argument(
        "--since", type=float, default=None, metavar="T",
        help="only events with simulated time >= T (untimed events are "
        "dropped when set)",
    )
    trace_show.add_argument(
        "--follow", action="store_true",
        help="keep tailing the file as it grows (exits after "
        "--idle-timeout seconds without new events)",
    )
    trace_show.add_argument(
        "--idle-timeout", type=float, default=2.0, metavar="SECONDS",
        help="--follow exit condition (default: 2.0)",
    )
    trace_show.add_argument(
        "--dashboard", action="store_true",
        help="live-updating replay summary instead of per-event lines",
    )
    trace_show.add_argument(
        "--refresh-every", type=int, default=200, metavar="N",
        help="dashboard refresh interval in events (default: 200)",
    )
    trace_show.set_defaults(func=cmd_trace_show)

    trace_causal = trace_sub.add_parser(
        "causal",
        help="causal graph of a capture: critical path + blame attribution",
    )
    trace_causal.add_argument("file", help="JSONL capture path")
    trace_causal.add_argument(
        "--json", action="store_true",
        help="print the machine-readable causal report",
    )
    trace_causal.add_argument(
        "--max-hops", type=int, default=20, metavar="N",
        help="critical-path hops to print (default: last 20)",
    )
    trace_causal.set_defaults(func=cmd_trace_causal)

    replay = sub.add_parser(
        "replay",
        help="re-materialize the deployed state at any event index "
        "of a capture",
    )
    replay.add_argument("file", help="JSONL capture path (plain or gzipped)")
    replay.add_argument(
        "--at", type=int, default=None, metavar="INDEX",
        help="stop after the first INDEX events (negative counts from "
        "the end; default: apply the whole capture)",
    )
    replay.add_argument(
        "--json", action="store_true",
        help="print the state as JSON",
    )
    replay.set_defaults(func=cmd_replay)

    bench = sub.add_parser(
        "bench", help="benchmark trajectory snapshots and regression diffs"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_snapshot = bench_sub.add_parser(
        "snapshot",
        help="consolidate BENCH_*.json artifacts into one trajectory "
        "snapshot",
    )
    bench_snapshot.add_argument(
        "--results-dir", default="benchmarks/results", metavar="DIR",
        help="directory holding BENCH_*.json (default: benchmarks/results)",
    )
    bench_snapshot.add_argument(
        "-o", "--output", metavar="FILE", default=None,
        help="snapshot path (default: DIR/BENCH_trajectory.json)",
    )
    bench_snapshot.set_defaults(func=cmd_bench_snapshot)

    bench_compare = bench_sub.add_parser(
        "compare", help="diff two snapshots, flagging metric regressions"
    )
    bench_compare.add_argument("old", help="baseline snapshot JSON")
    bench_compare.add_argument("new", help="candidate snapshot JSON")
    bench_compare.add_argument(
        "--threshold", type=float, default=0.10, metavar="FRACTION",
        help="relative movement flagged as a change (default: 0.10)",
    )
    bench_compare.add_argument(
        "--json", action="store_true", help="machine-readable diff"
    )
    bench_compare.add_argument(
        "--strict", action="store_true",
        help="exit 1 when any regression is flagged (CI runs without "
        "this: the watchdog reports, humans decide)",
    )
    bench_compare.set_defaults(func=cmd_bench_compare)

    chaos = sub.add_parser(
        "chaos",
        help="run the async deployment under a seeded fault plan",
    )
    _add_workload_arg(chaos)
    chaos.add_argument("--horizon", type=float, default=400.0,
                       help="simulated time to run (default: 400)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="seed for both the fault plan and the runtime")
    chaos.add_argument("--crash-rate", type=float, default=0.02,
                       help="expected agent crashes per time unit")
    chaos.add_argument("--mean-downtime", type=float, default=5.0,
                       help="mean downtime before restart")
    chaos.add_argument("--cold-probability", type=float, default=0.0,
                       help="fraction of restarts forced cold (no checkpoint)")
    chaos.add_argument("--partition-rate", type=float, default=0.0,
                       help="expected partitions per time unit")
    chaos.add_argument("--storm-rate", type=float, default=0.0,
                       help="expected delay storms per time unit")
    chaos.add_argument("--warmup", type=float, default=60.0,
                       help="fault-free convergence window before injection")
    chaos.add_argument("--checkpoint-interval", type=float, default=5.0,
                       help="agent checkpoint period (default: 5)")
    chaos.add_argument("--no-checkpoint", action="store_true",
                       help="disable checkpointing; every restart is cold")
    chaos.add_argument("--json", action="store_true",
                       help="print a machine-readable report")
    chaos.set_defaults(func=cmd_chaos)

    sweep = sub.add_parser(
        "sweep",
        help="declarative experiment grids over a parallel, cached farm",
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    sweep_run = sweep_sub.add_parser(
        "run", help="expand a grid and execute it, cache-first"
    )
    sweep_run.add_argument(
        "--spec", metavar="FILE", default=None,
        help="JSON SweepSpec file (replaces the axis flags)",
    )
    sweep_run.add_argument(
        "--workload", dest="workloads", action="append",
        metavar="NAME[:k=v,...]",
        help="workload axis value (repeatable; default: base)",
    )
    sweep_run.add_argument(
        "--method", dest="methods", action="append",
        choices=available_methods(),
        help="method axis value (repeatable; default: lrgp)",
    )
    sweep_run.add_argument(
        "--engine", dest="engines", action="append",
        choices=[*available_engines(), "none"],
        help="engine axis value; 'none' = method default (repeatable)",
    )
    sweep_run.add_argument(
        "--gamma", dest="gammas", action="append", metavar="POLICY",
        help="gamma-policy axis value: adaptive | fixed:<step> (repeatable)",
    )
    sweep_run.add_argument(
        "--fault-plan", dest="fault_plans", action="append",
        metavar="k=v[,k=v...]",
        help="fault-plan axis value; 'none' = fault-free (repeatable)",
    )
    sweep_run.add_argument(
        "--iterations", dest="iterations", action="append", type=int,
        metavar="N",
        help="iteration-budget axis value (repeatable; default: 250)",
    )
    sweep_run.add_argument(
        "--seed", dest="seeds", action="append", type=int, metavar="S",
        help="seed axis value (repeatable; default: 0)",
    )
    sweep_run.add_argument(
        "--repeats", type=int, default=1, metavar="K",
        help="replicate every cell K times (distinct cache entries)",
    )
    sweep_run.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for cache misses (1 = run inline)",
    )
    sweep_run.add_argument(
        "--dry-run", action="store_true",
        help="print the grid and its cache hit/miss plan; execute nothing",
    )
    sweep_run.add_argument(
        "--force", action="store_true",
        help="re-execute cached cells, overwriting their entries",
    )
    sweep_run.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache root (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/sweep)",
    )
    sweep_run.add_argument(
        "--csv", metavar="FILE", default=None,
        help="write the per-cell CSV table here",
    )
    sweep_run.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the full sweep JSON export here (canonical JSON)",
    )
    sweep_run.add_argument(
        "--bench", metavar="FILE", default=None,
        help="write the BENCH_sweep payload here (for repro bench snapshot)",
    )
    sweep_run.add_argument(
        "--capture", action="store_true",
        help="run executed cells under a telemetry bundle and ship "
        "metrics/phases/diagnostics back with each result",
    )
    sweep_run.add_argument(
        "--live", action="store_true",
        help="print live per-cell progress (done/total, ETA, stragglers) "
        "to stderr as cells finish",
    )
    sweep_run.add_argument(
        "--events", metavar="FILE", default=None,
        help="write the live progress event stream here as JSONL",
    )
    sweep_run.add_argument(
        "--flame", metavar="FILE", default=None,
        help="write the farm-wide merged collapsed-stack flamegraph here "
        "(needs --capture, or cached telemetry)",
    )
    sweep_run.add_argument(
        "--speedscope", metavar="FILE", default=None,
        help="write the farm-wide merged speedscope profile here "
        "(needs --capture, or cached telemetry)",
    )
    sweep_run.add_argument(
        "--no-ledger", dest="ledger", action="store_false", default=True,
        help="do not append this invocation to the run ledger",
    )
    sweep_run.set_defaults(func=cmd_sweep_run)

    sweep_show = sweep_sub.add_parser(
        "show", help="list cached sweep entries"
    )
    sweep_show.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache root (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/sweep)",
    )
    sweep_show.set_defaults(func=cmd_sweep_show)

    sweep_clean = sweep_sub.add_parser(
        "clean", help="delete every cached sweep entry"
    )
    sweep_clean.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache root (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/sweep)",
    )
    sweep_clean.set_defaults(func=cmd_sweep_clean)

    sweep_ledger = sweep_sub.add_parser(
        "ledger", help="show the append-only run ledger for a cache root"
    )
    sweep_ledger.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache root (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/sweep)",
    )
    sweep_ledger.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="show only the newest N runs",
    )
    sweep_ledger.add_argument(
        "--json", action="store_true",
        help="print the raw ledger records as a JSON array",
    )
    sweep_ledger.set_defaults(func=cmd_sweep_ledger)

    sweep_diff = sweep_sub.add_parser(
        "diff-flame",
        help="differential collapsed-stack flamegraph between two cached "
        "cells' phase trees (flamegraph.pl --diff format)",
    )
    sweep_diff.add_argument(
        "base", metavar="CELL",
        help="baseline cell: a cell label or cache-key prefix",
    )
    sweep_diff.add_argument(
        "other", metavar="CELL",
        help="comparison cell: a cell label or cache-key prefix",
    )
    sweep_diff.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache root (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro/sweep)",
    )
    sweep_diff.add_argument(
        "-o", "--output", metavar="FILE", default=None,
        help="write the two-column folded output here (default: stdout)",
    )
    sweep_diff.set_defaults(func=cmd_sweep_diff_flame)

    lint = sub.add_parser(
        "lint", help="run the domain-aware static analyzer (docs/analysis.md)"
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to analyze (default: src/ if present)",
    )
    lint.add_argument(
        "--format", choices=["human", "json", "sarif"], default="human",
        help="report format (default: human)",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on any finding, warnings included",
    )
    lint.add_argument(
        "--project", dest="project", action="store_true", default=True,
        help="whole-project analysis: call graph + interprocedural rules "
        "R9-R11 (default: on)",
    )
    lint.add_argument(
        "--no-project", dest="project", action="store_false",
        help="per-file analysis only (pre-PR-6 behaviour)",
    )
    lint.add_argument(
        "--sarif", default=None, metavar="FILE",
        help="additionally write a SARIF 2.1.0 report to FILE "
        "(for GitHub code-scanning upload)",
    )
    lint.add_argument(
        "--fix", action="store_true",
        help="apply mechanical fixes (e.g. R11 sorted() wraps), then "
        "re-analyze",
    )
    lint.add_argument(
        "--fix-dry-run", action="store_true",
        help="exit non-zero if mechanically fixable findings are present "
        "(CI gate; applies nothing)",
    )
    lint.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="subtract a findings snapshot; only new findings are reported",
    )
    lint.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="snapshot current findings to FILE and exit 0",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    lint.set_defaults(func=cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    if hasattr(args, "workload_opt"):
        _resolve_workload(args)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
