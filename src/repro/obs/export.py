"""Snapshot exporters: Prometheus text format and JSON.

``repro stats --format prometheus`` emits the standard text exposition
format (counters get a ``_total`` suffix, histograms the cumulative
``_bucket{le=...}`` / ``_sum`` / ``_count`` triple) so a scrape-based
stack ingests the snapshot unchanged.  ``--format json`` emits the same
data as one machine-readable object (stable schema, version-tagged like
the lint report).

Metric names are sanitized to the Prometheus charset and prefixed with
``repro_`` (``profile.phase.solve.iteration.total_seconds`` ->
``repro_profile_phase_solve_iteration_total_seconds``).
"""

from __future__ import annotations

import json
import re
from typing import Any

from repro.obs.registry import HistogramSnapshot, MetricsError, MetricsSnapshot

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_PREFIX = "repro_"


def sanitize_metric_name(name: str) -> str:
    """Map a dotted registry name onto the Prometheus charset."""
    cleaned = _INVALID_CHARS.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return _PREFIX + cleaned


def _format_value(value: float) -> str:
    """Prometheus renders integral floats without the trailing ``.0``."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _histogram_lines(name: str, snapshot: HistogramSnapshot) -> list[str]:
    lines = [f"# TYPE {name} histogram"]
    for bound, cumulative in zip(snapshot.bounds, snapshot.buckets):
        lines.append(f'{name}_bucket{{le="{repr(bound)}"}} {cumulative}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {snapshot.count}')
    lines.append(f"{name}_sum {_format_value(snapshot.total)}")
    lines.append(f"{name}_count {snapshot.count}")
    return lines


def to_prometheus_text(snapshot: MetricsSnapshot) -> str:
    """Render a registry snapshot in the Prometheus text format."""
    lines: list[str] = []
    for raw_name, value in snapshot.counters.items():
        name = sanitize_metric_name(raw_name) + "_total"
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_format_value(value)}")
    for raw_name, value in snapshot.gauges.items():
        name = sanitize_metric_name(raw_name)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(value)}")
    for raw_name, histogram in snapshot.histograms.items():
        lines.extend(_histogram_lines(sanitize_metric_name(raw_name), histogram))
    return "\n".join(lines) + ("\n" if lines else "")


def _histogram_dict(snapshot: HistogramSnapshot) -> dict[str, Any]:
    return {
        "count": snapshot.count,
        "sum": snapshot.total,
        "min": snapshot.low,
        "max": snapshot.high,
        "mean": snapshot.mean,
        "buckets": [
            [bound, cumulative]
            for bound, cumulative in zip(snapshot.bounds, snapshot.buckets)
        ],
    }


def snapshot_to_dict(snapshot: MetricsSnapshot) -> dict[str, Any]:
    """The JSON-ready form of a snapshot (see docs/observability.md)."""
    return {
        "version": 1,
        "counters": dict(snapshot.counters),
        "gauges": dict(snapshot.gauges),
        "histograms": {
            name: _histogram_dict(histogram)
            for name, histogram in snapshot.histograms.items()
        },
    }


def _histogram_from_dict(name: str, payload: Any) -> HistogramSnapshot:
    if not isinstance(payload, dict) or not isinstance(
        payload.get("buckets"), list
    ):
        raise MetricsError(f"{name}: malformed histogram payload")
    bounds: list[float] = []
    buckets: list[int] = []
    for pair in payload["buckets"]:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise MetricsError(f"{name}: malformed histogram bucket {pair!r}")
        bound, cumulative = pair
        bounds.append(float(bound))
        buckets.append(int(cumulative))
    return HistogramSnapshot(
        name=name,
        bounds=tuple(bounds),
        buckets=tuple(buckets),
        count=int(payload.get("count", 0)),
        total=float(payload.get("sum", 0.0)),
        low=None if payload.get("min") is None else float(payload["min"]),
        high=None if payload.get("max") is None else float(payload["max"]),
    )


def snapshot_from_dict(payload: Any) -> MetricsSnapshot:
    """Rebuild a :class:`MetricsSnapshot` from :func:`snapshot_to_dict`
    output (an archived ``repro stats`` / sweep-telemetry artifact).

    The inverse direction exists so farm workers can ship snapshots as
    plain JSON and the parent can merge them; malformed payloads raise
    :class:`~repro.obs.registry.MetricsError` rather than producing a
    half-populated snapshot.
    """
    if not isinstance(payload, dict):
        raise MetricsError(
            f"metrics snapshot payload must be an object, got "
            f"{type(payload).__name__}"
        )
    counters = payload.get("counters", {})
    gauges = payload.get("gauges", {})
    histograms = payload.get("histograms", {})
    if (
        not isinstance(counters, dict)
        or not isinstance(gauges, dict)
        or not isinstance(histograms, dict)
    ):
        raise MetricsError("metrics snapshot payload has malformed sections")
    return MetricsSnapshot(
        counters={
            str(name): float(value) for name, value in sorted(counters.items())
        },
        gauges={
            str(name): float(value) for name, value in sorted(gauges.items())
        },
        histograms={
            str(name): _histogram_from_dict(str(name), value)
            for name, value in sorted(histograms.items())
        },
    )


def to_json(snapshot: MetricsSnapshot) -> str:
    """Render a registry snapshot as pretty-printed JSON."""
    return json.dumps(snapshot_to_dict(snapshot), indent=2, sort_keys=True)


def render_metrics(snapshot: MetricsSnapshot) -> str:
    """Human-readable snapshot block (the ``repro stats`` body)."""
    if snapshot.empty:
        return "metrics: (none recorded)"
    lines = ["metrics:"]
    for name, value in snapshot.counters.items():
        lines.append(f"  {name}: {_format_value(value)}")
    for name, value in snapshot.gauges.items():
        lines.append(f"  {name}: {value:g}")
    for name, histogram in snapshot.histograms.items():
        mean = histogram.mean
        if mean is None or histogram.low is None or histogram.high is None:
            lines.append(f"  {name}: no observations")
            continue
        lines.append(
            f"  {name}: n={histogram.count} mean={mean:.6g} "
            f"min={histogram.low:.6g} max={histogram.high:.6g}"
        )
    return "\n".join(lines)
