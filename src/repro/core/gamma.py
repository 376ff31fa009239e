"""Step-size (gamma) schedules for the node-price update (eq. 12).

Section 4.2 shows that a fixed step size trades convergence speed against
oscillation amplitude, and proposes an adaptive heuristic:

1. start from a fixed gamma;
2. while the price does not fluctuate, grow gamma by ``0.001`` per iteration;
3. when a fluctuation is detected, halve gamma;
4. clamp gamma to ``[0.001, 0.1]``.

A *fluctuation* is a sign reversal between consecutive price deltas: the
price moved up and then down (or vice versa).  Every node carries its own
schedule instance, observing only its own price trajectory: both branches
of eq. 12 step with it and feed it their price deltas.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.utility.tolerance import is_zero

if TYPE_CHECKING:  # telemetry probes are optional; obs never imports core
    from repro.obs.telemetry import PriceProbe

#: Bounds the paper settles on after experimentation (section 4.2).
GAMMA_LOWER_BOUND = 0.001
GAMMA_UPPER_BOUND = 0.1
GAMMA_INCREMENT = 0.001
GAMMA_BACKOFF = 0.5


class GammaSchedule(ABC):
    """Produces the step size for one price controller and observes the
    resulting price movement."""

    #: Optional telemetry probe (set via ``PriceController.attach_probe``);
    #: adaptive schedules report their step-size changes through it.  A
    #: plain class attribute (not a dataclass field): subclasses decorated
    #: with ``@dataclass`` must not grow a ``probe`` constructor argument.
    probe: "PriceProbe | None" = None

    @abstractmethod
    def value(self) -> float:
        """The gamma to use for the next price update."""

    @abstractmethod
    def observe(self, price_delta: float) -> None:
        """Record the price change the last update produced."""

    @abstractmethod
    def clone(self) -> "GammaSchedule":
        """A fresh schedule with the same configuration (not the same
        state), for stamping out one schedule per node."""

    def state_dict(self) -> dict[str, float]:
        """JSON-ready snapshot of the *mutable* state (checkpointing).

        Stateless schedules have nothing to save; adaptive schedules
        override.  Configuration is deliberately excluded — a restore
        target is always built with the same configuration.
        """
        return {}

    def load_state(self, state: dict[str, float]) -> None:
        """Inverse of :meth:`state_dict`; no-op for stateless schedules."""
        del state


@dataclass
class FixedGamma(GammaSchedule):
    """A constant step size (the gamma = 1 / 0.1 / 0.01 runs of figure 1)."""

    gamma: float

    def __post_init__(self) -> None:
        # NaN compares false against everything, so a plain sign check would
        # let a NaN step size through and poison every price update.
        if math.isnan(self.gamma) or math.isinf(self.gamma) or self.gamma < 0.0:
            raise ValueError(
                f"gamma must be finite and non-negative, got {self.gamma}"
            )

    def value(self) -> float:
        return self.gamma

    def observe(self, price_delta: float) -> None:
        del price_delta  # fixed schedules ignore feedback

    def clone(self) -> "FixedGamma":
        return FixedGamma(self.gamma)


class AdaptiveGamma(GammaSchedule):
    """The paper's adaptive heuristic (section 4.2).

    ``initial`` defaults to the upper clamp: the paper starts large for fast
    stabilization and lets fluctuations shrink gamma.
    """

    def __init__(
        self,
        initial: float = GAMMA_UPPER_BOUND,
        increment: float = GAMMA_INCREMENT,
        backoff: float = GAMMA_BACKOFF,
        lower: float = GAMMA_LOWER_BOUND,
        upper: float = GAMMA_UPPER_BOUND,
    ) -> None:
        if math.isnan(lower) or math.isnan(upper) or lower <= 0.0 or upper < lower:
            raise ValueError(f"invalid gamma bounds [{lower}, {upper}]")
        if math.isnan(initial):
            raise ValueError("initial gamma must not be NaN")
        if not 0.0 < backoff < 1.0:
            raise ValueError(f"backoff must be in (0, 1), got {backoff}")
        if not increment >= 0.0:  # NaN fails this too
            raise ValueError(f"increment must be non-negative, got {increment}")
        self._initial = min(max(initial, lower), upper)
        self._gamma = self._initial
        self._increment = increment
        self._backoff = backoff
        self._lower = lower
        self._upper = upper
        self._last_delta: float | None = None

    def value(self) -> float:
        return self._gamma

    def observe(self, price_delta: float) -> None:
        fluctuated = (
            self._last_delta is not None
            and price_delta * self._last_delta < 0.0
        )
        old_gamma = self._gamma
        if fluctuated:
            self._gamma *= self._backoff
        else:
            self._gamma += self._increment
        self._gamma = min(max(self._gamma, self._lower), self._upper)
        if not is_zero(price_delta):
            self._last_delta = price_delta
        if self.probe is not None and not is_zero(self._gamma - old_gamma):
            self.probe.gamma_step(old_gamma, self._gamma, fluctuated)

    def state_dict(self) -> dict[str, float]:
        state = {"gamma": self._gamma}
        if self._last_delta is not None:
            state["last_delta"] = self._last_delta
        return state

    def load_state(self, state: dict[str, float]) -> None:
        gamma = state["gamma"]
        if math.isnan(gamma):
            raise ValueError("checkpointed gamma must not be NaN")
        self._gamma = min(max(gamma, self._lower), self._upper)
        self._last_delta = state.get("last_delta")

    def clone(self) -> "AdaptiveGamma":
        return AdaptiveGamma(
            initial=self._initial,
            increment=self._increment,
            backoff=self._backoff,
            lower=self._lower,
            upper=self._upper,
        )
