"""Convergence detection for LRGP trajectories.

The paper's criterion (section 4.3): convergence has occurred when the
amplitude of the oscillations in utility becomes less than 0.1% of the value
of the utility.  We implement this as a sliding-window test: over the last
``window`` iterations, ``max - min <= rel_amplitude * |mean|``.  The window
test itself lives in :mod:`repro.utility.stability`, shared with the
event-stream diagnostics.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.utility.stability import (
    CONVERGENCE_REL_AMPLITUDE,
    CONVERGENCE_WINDOW,
    check_criterion,
    first_stable_index,
    window_amplitude,
    window_is_stable,
)

#: The paper's 0.1% amplitude threshold, shared with the event-stream
#: diagnostics via :mod:`repro.utility.stability`.
DEFAULT_REL_AMPLITUDE = CONVERGENCE_REL_AMPLITUDE
DEFAULT_WINDOW = CONVERGENCE_WINDOW


@dataclass(frozen=True)
class ConvergenceCriterion:
    """Sliding-window relative-amplitude test."""

    window: int = DEFAULT_WINDOW
    rel_amplitude: float = DEFAULT_REL_AMPLITUDE

    def __post_init__(self) -> None:
        check_criterion(self.window, self.rel_amplitude)

    def window_converged(self, values: Sequence[float]) -> bool:
        """Test the criterion on exactly one window of values."""
        if len(values) < self.window:
            return False
        return window_is_stable(values[-self.window :], self.rel_amplitude)

    def converged_at(self, values: Sequence[float]) -> int | None:
        """First iteration index (0-based) at which the trailing window
        satisfies the criterion, or ``None``.

        This is the paper's "iterations until convergence": the returned
        index is the iteration at which the system is first observed stable.
        """
        return first_stable_index(values, self.window, self.rel_amplitude)


def iterations_until_convergence(
    utilities: Sequence[float],
    window: int = DEFAULT_WINDOW,
    rel_amplitude: float = DEFAULT_REL_AMPLITUDE,
) -> int | None:
    """Convenience wrapper: 1-based iteration count until convergence.

    Returns ``None`` when the trajectory never stabilizes.  The count is the
    number of LRGP iterations executed up to and including the first stable
    observation, matching how Table 2 reports "iterations until
    convergence".
    """
    index = ConvergenceCriterion(window, rel_amplitude).converged_at(utilities)
    return None if index is None else index + 1


def oscillation_amplitude(values: Sequence[float], window: int = DEFAULT_WINDOW) -> float:
    """Peak-to-peak amplitude over the trailing window, as a fraction of the
    window mean (``inf`` for a zero-mean window with any spread).  Used by
    experiments to report stability."""
    if not values:
        raise ValueError("no values")
    return window_amplitude(values[-window:])
