"""Live sweep monitoring: progress events, ETA, straggler detection.

:func:`~repro.sweep.farm.run_sweep` used to block inside
``executor.map`` until the whole grid finished; with completion-order
collection it can narrate.  The farm drives a :class:`SweepProgress`,
which turns each completion into one flat JSON-safe *event dict*:

* ``sweep_started`` — cell totals, worker count, upfront cache hits;
* ``cell_finished`` — one per cell (hits included) with running
  ``done``/``total``, hit rate, failure count, an ETA extrapolated from
  the mean executed-cell duration over the remaining pending cells, and
  a ``straggler`` flag for any executed cell slower than the rolling
  p95 of the executed durations seen before it (only once five or more
  samples exist — below that a p95 is noise);
* ``sweep_finished`` — final totals plus throughput
  (``cells_per_second``).

Events go wherever the caller points them: ``repro sweep run --live``
renders them as progress lines on stderr, ``--events FILE`` appends
them as a JSONL stream (:class:`JsonlEventWriter`), and tests consume
them as plain dicts.  Everything here is pure stdlib and wall-clock
free — the farm supplies measured durations, this module only counts.
"""

from __future__ import annotations

import json
from typing import IO, Any, Callable

__all__ = [
    "STRAGGLER_MIN_SAMPLES",
    "JsonlEventWriter",
    "SweepProgress",
    "render_live_event",
]

#: Executed-cell durations needed before the p95 straggler flag arms.
STRAGGLER_MIN_SAMPLES = 5


def _p95(samples: list[float]) -> float:
    """Nearest-rank 95th percentile of a non-empty sample list."""
    ordered = sorted(samples)
    rank = max(0, -(-95 * len(ordered) // 100) - 1)  # ceil(0.95n) - 1
    return ordered[rank]


class SweepProgress:
    """Counts completions and emits the event stream described above.

    The farm owns the facts (which cell, cached or not, how long); this
    class owns the derived quantities (done/total, hit rate, ETA,
    straggler flags) so every consumer — live renderer, JSONL stream,
    tests — sees identical numbers.
    """

    def __init__(
        self,
        total: int,
        jobs: int,
        emit: Callable[[dict[str, Any]], None],
    ) -> None:
        self.total = total
        self.jobs = jobs
        self._emit = emit
        self.done = 0
        self.hits = 0
        self.failed = 0
        self._durations: list[float] = []

    def sweep_started(self, pending: int) -> None:
        self._emit(
            {
                "event": "sweep_started",
                "cells_total": self.total,
                "jobs": self.jobs,
                "pending": pending,
                "hits": self.total - pending,
            }
        )

    def _eta_seconds(self) -> float | None:
        """Remaining wall time, extrapolated from executed-cell means.

        ``None`` until an executed duration exists; cache hits are free
        and excluded.  Remaining cells are assumed pending (hits resolve
        upfront, before any ``cell_finished`` for executed cells).
        """
        remaining = self.total - self.done
        if remaining <= 0:
            return 0.0
        if not self._durations:
            return None
        mean = sum(self._durations) / len(self._durations)
        return remaining * mean / min(self.jobs, remaining)

    def cell_finished(
        self,
        index: int,
        label: str,
        key: str,
        cached: bool,
        failed: bool,
        seconds: float,
    ) -> None:
        straggler = False
        if not cached:
            if (
                len(self._durations) >= STRAGGLER_MIN_SAMPLES
                and seconds > _p95(self._durations)
            ):
                straggler = True
            self._durations.append(seconds)
        self.done += 1
        if cached:
            self.hits += 1
        if failed:
            self.failed += 1
        self._emit(
            {
                "event": "cell_finished",
                "index": index,
                "label": label,
                "key": key,
                "cached": cached,
                "status": "hit" if cached else ("failed" if failed else "ok"),
                "seconds": seconds,
                "done": self.done,
                "total": self.total,
                "hits": self.hits,
                "failed": self.failed,
                "hit_rate": self.hits / self.done,
                "eta_seconds": self._eta_seconds(),
                "straggler": straggler,
            }
        )

    def sweep_finished(self, wall_time_seconds: float) -> None:
        self._emit(
            {
                "event": "sweep_finished",
                "cells_total": self.total,
                "done": self.done,
                "hits": self.hits,
                "executed": self.done - self.hits,
                "failed": self.failed,
                "jobs": self.jobs,
                "wall_time_seconds": wall_time_seconds,
                "cells_per_second": (
                    self.done / wall_time_seconds
                    if wall_time_seconds > 0.0
                    else None
                ),
            }
        )


def render_live_event(event: dict[str, Any]) -> str | None:
    """One ``--live`` progress line per event (``None`` = print nothing)."""
    kind = event.get("event")
    if kind == "sweep_started":
        return (
            f"sweep: {event['cells_total']} cell(s), "
            f"{event['hits']} cached, {event['pending']} to execute "
            f"(jobs={event['jobs']})"
        )
    if kind == "cell_finished":
        eta = event.get("eta_seconds")
        eta_text = "" if eta is None else f" eta {eta:.1f}s"
        flags = " STRAGGLER" if event.get("straggler") else ""
        return (
            f"[{event['done']}/{event['total']}] "
            f"{event['status']:<6} {event['label']} "
            f"({event['seconds']:.2f}s, hit rate "
            f"{event['hit_rate']:.0%}{eta_text}){flags}"
        )
    if kind == "sweep_finished":
        rate = event.get("cells_per_second")
        rate_text = "" if rate is None else f", {rate:.2f} cells/s"
        return (
            f"sweep finished: {event['done']} cell(s) in "
            f"{event['wall_time_seconds']:.2f}s — {event['hits']} cached, "
            f"{event['executed']} executed, {event['failed']} failed"
            f"{rate_text}"
        )
    return None


class JsonlEventWriter:
    """Append each event as one JSON line to an open text stream."""

    def __init__(self, stream: IO[str]) -> None:
        self._stream = stream

    def __call__(self, event: dict[str, Any]) -> None:
        self._stream.write(json.dumps(event, sort_keys=True) + "\n")
        self._stream.flush()
