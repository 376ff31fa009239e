"""Convergence diagnostics computed from a captured event stream.

Answers the questions the paper's evaluation keeps asking of a run:

* **Did it converge, and how fast?**  Iterations (and wall time) until
  the trailing-window utility amplitude drops below the paper's 0.1%
  criterion (section 4.3) — the window test of
  :mod:`repro.utility.stability` that ``repro.core.convergence`` also
  applies, run here over ``iteration`` events so the diagnostics work on
  *any* emitter (reference driver, sync or async runtime) without
  importing the optimizer.
* **Is it oscillating?**  Per-resource price oscillation counts — sign
  reversals between consecutive price deltas, the very signal the
  adaptive γ heuristic damps (section 4.2, figure 2).
* **Is it feasible?**  Final per-constraint residual/slack from the
  ``usage``/``capacity`` operands carried by ``price_update`` events
  (eq. 4/5 left-hand sides vs capacities).
* **How good is it?**  Utility gap to a caller-supplied upper bound
  (e.g. ``repro.baselines.bounds.utility_upper_bound``).

This module deliberately imports nothing from ``repro.core`` — the obs
layer sits below every engine and must not cycle back into them.
Raw float comparisons on price deltas are intentional here (oscillation
detection *is* a sign test on exact iterates) and exempt from lint R2.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Iterable

from repro.obs.events import IterationEvent, PriceUpdateEvent, TraceEvent
from repro.utility.stability import (
    CONVERGENCE_REL_AMPLITUDE,
    CONVERGENCE_WINDOW,
    check_criterion,
    first_stable_index,
    window_amplitude,
)

#: The paper's convergence criterion (section 4.3): amplitude of the
#: utility oscillation over the trailing window below 0.1% of its mean.
#: Shared with the optimizer-side detector via
#: :mod:`repro.utility.stability` so the two can never drift apart.
DEFAULT_WINDOW = CONVERGENCE_WINDOW
DEFAULT_REL_AMPLITUDE = CONVERGENCE_REL_AMPLITUDE


@dataclass(frozen=True)
class ResourceDiagnostics:
    """Price/constraint health of one node or link at end of run."""

    resource: str  # "node:S0" | "link:uplink"
    updates: int
    oscillations: int  # sign reversals in the price delta sequence
    final_price: float
    usage: float | None  # eq. 4/5 LHS at the last update, if carried
    capacity: float | None
    #: max(0, usage - capacity): positive = the constraint is violated.
    residual: float | None
    #: max(0, capacity - usage): headroom left under the constraint.
    slack: float | None


@dataclass(frozen=True)
class DiagnosticsReport:
    """Everything the analyzer extracted from one event stream."""

    iterations: int
    final_utility: float | None
    iterations_to_tolerance: int | None
    time_to_tolerance_ns: int | None
    window: int
    rel_amplitude: float
    #: Peak-to-peak utility amplitude over the trailing window / |mean|.
    trailing_amplitude: float | None
    utility_bound: float | None
    utility_gap: float | None  # bound - final (absolute)
    relative_gap: float | None  # gap / bound
    resources: dict[str, ResourceDiagnostics]

    @property
    def converged(self) -> bool:
        return self.iterations_to_tolerance is not None

    @property
    def total_oscillations(self) -> int:
        return sum(r.oscillations for r in self.resources.values())

    @property
    def violated_resources(self) -> list[str]:
        return [
            name
            for name, r in sorted(self.resources.items())
            if r.residual is not None and r.residual > 0.0
        ]


def count_oscillations(series: Iterable[float]) -> int:
    """Sign reversals between consecutive non-zero deltas of a series.

    This is exactly the fluctuation test of the adaptive γ heuristic
    (section 4.2): the price moved up then down (or vice versa).  Zero
    deltas neither count nor reset the last direction.
    """
    last_delta = 0.0
    previous: float | None = None
    reversals = 0
    for value in series:
        if previous is not None:
            delta = value - previous
            if delta * last_delta < 0.0:
                reversals += 1
            if delta != 0.0:  # exact: prices are projected iterates
                last_delta = delta
        previous = value
    return reversals


class ConvergenceDiagnostics:
    """Analyzer turning an event stream into a :class:`DiagnosticsReport`.

    ``utility_bound`` is optional; when given, the report includes the
    utility-gap-to-bound figures.
    """

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        rel_amplitude: float = DEFAULT_REL_AMPLITUDE,
        utility_bound: float | None = None,
    ) -> None:
        check_criterion(window, rel_amplitude)
        self._window = window
        self._rel_amplitude = rel_amplitude
        self._utility_bound = utility_bound

    def analyze(self, events: Iterable[TraceEvent]) -> DiagnosticsReport:
        utilities: list[float] = []
        stamps: list[int] = []
        price_series: dict[str, list[float]] = {}
        last_update: dict[str, PriceUpdateEvent] = {}

        for event in events:
            if isinstance(event, IterationEvent):
                utilities.append(event.utility)
                stamps.append(event.t_ns)
            elif isinstance(event, PriceUpdateEvent):
                key = f"{event.resource_kind}:{event.resource}"
                series = price_series.setdefault(key, [])
                if not series:
                    series.append(event.old_price)
                series.append(event.new_price)
                last_update[key] = event

        stable_index = first_stable_index(
            utilities, self._window, self._rel_amplitude
        )
        resources = {
            key: self._resource_diagnostics(key, series, last_update[key])
            for key, series in sorted(price_series.items())
        }

        final_utility = utilities[-1] if utilities else None
        gap: float | None = None
        relative_gap: float | None = None
        if self._utility_bound is not None and final_utility is not None:
            gap = self._utility_bound - final_utility
            if abs(self._utility_bound) > 0.0:
                relative_gap = gap / abs(self._utility_bound)

        return DiagnosticsReport(
            iterations=len(utilities),
            final_utility=final_utility,
            iterations_to_tolerance=(
                None if stable_index is None else stable_index + 1
            ),
            time_to_tolerance_ns=(
                None
                if stable_index is None or not stamps
                else stamps[stable_index] - stamps[0]
            ),
            window=self._window,
            rel_amplitude=self._rel_amplitude,
            trailing_amplitude=(
                None
                if len(utilities) < self._window
                else window_amplitude(utilities[-self._window :])
            ),
            utility_bound=self._utility_bound,
            utility_gap=gap,
            relative_gap=relative_gap,
            resources=resources,
        )

    @staticmethod
    def _resource_diagnostics(
        key: str, series: list[float], last: PriceUpdateEvent
    ) -> ResourceDiagnostics:
        usage = last.usage
        capacity = last.capacity
        residual: float | None = None
        slack: float | None = None
        if usage is not None and capacity is not None:
            residual = max(0.0, usage - capacity)
            slack = max(0.0, capacity - usage)
        return ResourceDiagnostics(
            resource=key,
            updates=len(series) - 1,
            oscillations=count_oscillations(series),
            final_price=series[-1],
            usage=usage,
            capacity=capacity,
            residual=residual,
            slack=slack,
        )


def diagnostics_to_dict(report: DiagnosticsReport) -> dict[str, Any]:
    """JSON-ready form of a report (``repro stats --format json``).

    Includes the derived ``converged`` / ``total_oscillations`` /
    ``violated_resources`` fields so downstream tooling does not have to
    re-derive them.
    """
    payload = asdict(report)
    payload["converged"] = report.converged
    payload["total_oscillations"] = report.total_oscillations
    payload["violated_resources"] = report.violated_resources
    return payload


def render_diagnostics(report: DiagnosticsReport) -> str:
    """Human-readable diagnostics block (the ``repro stats`` footer)."""
    lines = ["convergence diagnostics:"]
    lines.append(f"  iterations observed:   {report.iterations}")
    if report.final_utility is not None:
        lines.append(f"  final utility:         {report.final_utility:,.2f}")
    if report.iterations_to_tolerance is not None:
        lines.append(
            f"  stable by iteration:   {report.iterations_to_tolerance} "
            f"(window={report.window}, "
            f"amplitude<={report.rel_amplitude:g})"
        )
        if report.time_to_tolerance_ns is not None:
            lines.append(
                f"  time to tolerance:     "
                f"{report.time_to_tolerance_ns / 1e6:.2f} ms"
            )
    else:
        amplitude = report.trailing_amplitude
        shown = "n/a" if amplitude is None else f"{amplitude:.3%}"
        lines.append(
            f"  NOT converged (trailing amplitude {shown}, "
            f"needs <= {report.rel_amplitude:.3%})"
        )
    if report.utility_bound is not None and report.utility_gap is not None:
        relative = (
            "" if report.relative_gap is None else f" ({report.relative_gap:.3%})"
        )
        lines.append(
            f"  gap to upper bound:    {report.utility_gap:,.2f}{relative}"
        )
    if report.resources:
        lines.append(
            f"  price oscillations:    {report.total_oscillations} total"
        )
        for name, resource in sorted(report.resources.items()):
            slack = (
                "slack n/a"
                if resource.slack is None
                else f"slack {resource.slack:,.1f}"
            )
            violated = (
                ""
                if not resource.residual
                else f"  VIOLATED by {resource.residual:,.1f}"
            )
            lines.append(
                f"    {name}: {resource.oscillations} oscillations over "
                f"{resource.updates} updates, final price "
                f"{resource.final_price:.6f}, {slack}{violated}"
            )
    if report.violated_resources:
        lines.append(
            "  constraint violations: "
            + ", ".join(report.violated_resources)
        )
    return "\n".join(lines)
