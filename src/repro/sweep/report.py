"""Sweep result rendering: table, plan, CSV/JSON exports, bench payload.

The farm produces :class:`~repro.sweep.farm.SweepResult`; this module is
every presentation of it — the ``repro sweep run`` table, the
``--dry-run`` plan, machine-readable CSV/JSON, and the
``BENCH_sweep.json`` payload that ``repro bench snapshot`` folds into the
trajectory (``repro bench compare`` diffs two of them).
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from typing import Any

from repro.sweep.farm import SweepCell, SweepResult
from repro.sweep.spec import RunConfig

__all__ = [
    "bench_payload",
    "render_sweep_plan",
    "render_sweep_report",
    "sweep_to_csv",
    "sweep_to_json",
]

#: Columns of the CSV export, in order.
_CSV_FIELDS = (
    "label",
    "workload",
    "method",
    "engine",
    "gamma",
    "fault_plan",
    "iterations",
    "seed",
    "repeat",
    "cached",
    "status",
    "error",
    "key",
    "utility",
    "converged_at",
    "retention",
    "wall_time_seconds",
)


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _cell_row(cell: SweepCell) -> dict[str, Any]:
    metrics = cell.metrics
    timing = cell.payload.get("timing")
    wall = (
        timing.get("wall_time_seconds") if isinstance(timing, dict) else None
    )
    config = cell.config
    return {
        "label": cell.label,
        "workload": config.workload,
        "method": config.method,
        "engine": config.engine,
        "gamma": config.gamma,
        "fault_plan": (
            None
            if config.fault_plan is None
            else ",".join(
                f"{k}={'none' if v is None else format(v, 'g')}"
                for k, v in config.fault_plan
            )
        ),
        "iterations": config.iterations,
        "seed": config.seed,
        "repeat": config.repeat,
        "cached": cell.cached,
        "status": cell.status,
        "error": (
            None
            if cell.error is None
            else f"{cell.error.get('type')}: {cell.error.get('message')}"
        ),
        "key": cell.key,
        "utility": metrics.get("utility"),
        "converged_at": metrics.get("converged_at"),
        "retention": metrics.get("retention"),
        "wall_time_seconds": wall,
    }


def render_sweep_report(result: SweepResult) -> str:
    """The ``repro sweep run`` table: one line per cell plus the farm
    summary (hits/executed/jobs/wall time)."""
    header = ("cell", "utility", "conv", "time", "source", "status")
    rows = [header]
    for cell in result.cells:
        row = _cell_row(cell)
        rows.append(
            (
                cell.label,
                _fmt(row["utility"]),
                _fmt(row["converged_at"]),
                _fmt(row["wall_time_seconds"]) + "s"
                if row["wall_time_seconds"] is not None
                else "-",
                "cache" if cell.cached else "run",
                cell.status,
            )
        )
    widths = [
        max(len(row[column]) for row in rows) for column in range(len(header))
    ]
    lines = [
        "  ".join(value.ljust(width) for value, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    lines.insert(1, "  ".join("-" * width for width in widths))
    summary = (
        f"{len(result.cells)} cell(s): {result.hits} cached, "
        f"{result.executed} executed (jobs={result.jobs}, "
        f"{result.wall_time_seconds:.2f}s)"
    )
    if result.failed:
        summary += f"; {result.failed} cell(s) FAILED"
    if result.corrupt_entries:
        summary += f"; {result.corrupt_entries} corrupt entr(y/ies) repaired"
    lines.append(summary)
    for cell in result.cells:
        if cell.failed and cell.error is not None:
            lines.append(
                f"  failed: {cell.label}: {cell.error.get('type')}: "
                f"{cell.error.get('message')}"
            )
    return "\n".join(lines)


def render_sweep_plan(
    plan: Sequence[tuple[RunConfig, str, str]],
) -> str:
    """The ``--dry-run`` view: per-cell hit/miss status, then totals."""
    lines = []
    counts = {"hit": 0, "miss": 0, "forced": 0}
    for config, key, status in plan:
        counts[status] = counts.get(status, 0) + 1
        lines.append(f"{status:<6} {key[:12]}  {config.label()}")
    will_run = counts["miss"] + counts["forced"]
    lines.append(
        f"{len(plan)} cell(s): {counts['hit']} cached, "
        f"{will_run} to execute"
        + (f" ({counts['forced']} forced)" if counts["forced"] else "")
    )
    return "\n".join(lines)


def sweep_to_csv(result: SweepResult) -> str:
    """CSV export, one row per cell in grid order."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for cell in result.cells:
        row = _cell_row(cell)
        writer.writerow({name: row[name] for name in _CSV_FIELDS})
    return buffer.getvalue()


def sweep_to_json(result: SweepResult) -> dict[str, Any]:
    """Full JSON export: farm bookkeeping plus every cell's payload."""
    return {
        "jobs": result.jobs,
        "wall_time_seconds": result.wall_time_seconds,
        "cells_total": len(result.cells),
        "hits": result.hits,
        "executed": result.executed,
        "failed": result.failed,
        "corrupt_entries": result.corrupt_entries,
        "cells": [
            {
                "config": cell.config.to_dict(),
                "key": cell.key,
                "cached": cell.cached,
                "payload": cell.payload,
            }
            for cell in result.cells
        ],
    }


def bench_payload(result: SweepResult) -> dict[str, Any]:
    """The ``BENCH_sweep.json`` shape: numeric leaves only, named so the
    trajectory's direction inference reads them correctly (``utility`` /
    ``hit_rate`` higher-is-better, ``*_seconds`` lower).

    Cell keys use ``label`` with ``/`` separators, which flatten into
    one path segment under ``collect_metrics`` — each cell stays one
    metric family.
    """
    cells: dict[str, dict[str, float]] = {}
    for cell in result.cells:
        metrics: dict[str, float] = {}
        for name in ("utility", "converged_at", "retention"):
            value = cell.metrics.get(name)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                metrics[name] = float(value)
        cells[cell.label] = metrics
    total = len(result.cells)
    wall = result.wall_time_seconds
    return {
        "farm": {
            "cells_total": total,
            "hits": result.hits,
            "executed": result.executed,
            "failed": result.failed,
            "hit_rate": (result.hits / total) if total else 0.0,
            "jobs": result.jobs,
            "wall_time_seconds": wall,
            "cells_per_second": (total / wall) if wall > 0.0 else 0.0,
        },
        "cells": {label: cells[label] for label in sorted(cells)},
    }

