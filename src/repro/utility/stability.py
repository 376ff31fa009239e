"""The paper's stability criterion (section 4.3), in one place.

Convergence is declared when the peak-to-peak amplitude of the utility
over a trailing window drops below 0.1% of the window mean.  Both the
optimizer-side detector (:mod:`repro.core.convergence`) and the
event-stream diagnostics (:mod:`repro.obs.diagnostics`) apply that rule,
so its parameters and its window test live here — in
:mod:`repro.utility`, the one layer both are allowed to import (the obs
layer deliberately never imports ``repro.core``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

#: Trailing-window length (iterations) for the amplitude test.
CONVERGENCE_WINDOW = 10

#: The paper's 0.1% relative-amplitude threshold.
CONVERGENCE_REL_AMPLITUDE = 1e-3


def check_criterion(window: int, rel_amplitude: float) -> None:
    """Reject a window shorter than two or a non-positive threshold."""
    if window < 2:
        raise ValueError(f"window must be at least 2, got {window}")
    if rel_amplitude <= 0.0:
        raise ValueError(f"rel_amplitude must be positive, got {rel_amplitude}")


def window_is_stable(tail: Sequence[float], rel_amplitude: float) -> bool:
    """The criterion on one window: ``max - min <= rel_amplitude * |mean|``."""
    return max(tail) - min(tail) <= rel_amplitude * abs(sum(tail) / len(tail))


def first_stable_index(values: Sequence[float], window: int, rel_amplitude: float) -> int | None:
    """0-based index of the first observation closing a stable window,
    or ``None`` when no trailing window of ``values`` is stable."""
    for end in range(window, len(values) + 1):
        if window_is_stable(values[end - window : end], rel_amplitude):
            return end - 1
    return None


def window_amplitude(tail: Sequence[float]) -> float:
    """Peak-to-peak amplitude of one window relative to ``|mean|``: 0.0
    when flat, ``inf`` when the mean is zero and the window is not flat."""
    mean = sum(tail) / len(tail)
    spread = max(tail) - min(tail)
    if abs(mean) <= 0.0:
        return 0.0 if spread <= 0.0 else math.inf
    return spread / abs(mean)
