"""Node and link price controllers (sections 3.3 and 3.4).

Prices are the Lagrange multipliers of the resource constraints, maintained
by the resource owners and fed back to flow sources:

* **Node price** (eq. 12) — when the node is within capacity the price is
  damped toward the node's best unsatisfied benefit/cost ratio ``BC(b,t)``
  (eq. 11), which encodes the value of relaxing the node constraint by one
  unit; when over capacity the price climbs proportionally to the violation.
* **Link price** (eq. 13) — gradient projection on the dual (Low & Lapsley):
  the price moves with the capacity violation and is projected onto the
  non-negative orthant.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.gamma import FixedGamma, GammaSchedule

if TYPE_CHECKING:  # telemetry probes are optional; obs never imports core
    from repro.obs.telemetry import PriceProbe


def _validate_capacity(capacity: float) -> float:
    """Capacities must be positive and not NaN (``math.inf`` is allowed).

    ``NaN <= 0.0`` is False, so without the explicit ``isnan`` check a NaN
    capacity would slip through the sign guard and silently poison every
    subsequent price update (NaN compares false against everything, so the
    controller would be stuck on the violation branch forever).
    """
    if math.isnan(capacity) or capacity <= 0.0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    return capacity


def _validate_price(price: float) -> float:
    """Prices live in the non-negative orthant (eq. 12-13) and are finite."""
    if math.isnan(price) or math.isinf(price) or price < 0.0:
        raise ValueError(f"price must be finite and non-negative, got {price}")
    return price


class NodePriceController:
    """Maintains ``p_b`` for one node.

    Both branches of eq. 12 — tracking (``used <= c_b``) and violation —
    step with the one ``gamma`` schedule, as the paper sets them (section
    4.2), so the adaptive heuristic sees the whole price trajectory.
    """

    def __init__(
        self,
        capacity: float,
        gamma: GammaSchedule,
        initial_price: float = 0.0,
    ) -> None:
        self.capacity = _validate_capacity(capacity)
        self._gamma = gamma
        self._price = _validate_price(initial_price)
        #: Optional telemetry probe; ``None`` keeps the update allocation-free.
        self.probe: PriceProbe | None = None

    @property
    def price(self) -> float:
        return self._price

    @property
    def gamma(self) -> float:
        """The step size the *next* update would apply."""
        return self._gamma.value()

    def attach_probe(self, probe: "PriceProbe") -> None:
        """Wire a telemetry probe into this controller and its schedule."""
        self.probe = probe
        self._gamma.probe = probe

    def update(self, benefit_cost: float, used: float) -> float:
        """Apply eq. 12 and return the new price.

        ``benefit_cost`` is ``BC(b,t)``: the highest benefit/cost ratio among
        classes that remain below their ``n^max`` after consumer allocation
        (0 when every class is fully admitted — the boundary case in
        section 3.3 where the price only enforces the node constraint and is
        allowed to decay).  ``used`` is ``used_b(t)``, the node resource
        consumed at the end of consumer allocation.
        """
        if not math.isfinite(benefit_cost) or benefit_cost < 0.0:
            raise ValueError(
                f"benefit_cost must be finite and non-negative, got {benefit_cost}"
            )
        if not math.isfinite(used) or used < 0.0:
            raise ValueError(f"used must be finite and non-negative, got {used}")
        old_price = self._price
        gamma = self._gamma.value()
        if used <= self.capacity:
            new_price = old_price + gamma * (benefit_cost - old_price)
            branch = "track"
        else:
            new_price = old_price + gamma * (used - self.capacity)
            branch = "violation"
        new_price = max(new_price, 0.0)
        self._gamma.observe(new_price - old_price)
        self._price = new_price
        if self.probe is not None:
            self.probe.price_update(
                old_price, new_price, gamma, branch,
                usage=used, capacity=self.capacity,
            )
        return new_price

    def reset(self, price: float = 0.0) -> None:
        self._price = _validate_price(price)

    def state_dict(self) -> dict[str, object]:
        """Checkpoint of price + step-size state (for agent recovery).

        The schedule's state sits under ``"gamma_under"``, the key every
        existing checkpoint uses.
        """
        return {"price": self._price, "gamma_under": self._gamma.state_dict()}

    def load_state(self, state: dict[str, object]) -> None:
        """Inverse of :meth:`state_dict` (validates the restored price)."""
        price = state["price"]
        assert isinstance(price, float)
        self._price = _validate_price(price)
        gamma = state["gamma_under"]
        assert isinstance(gamma, dict)
        self._gamma.load_state(gamma)


class LinkPriceController:
    """Maintains ``p_l`` for one link via gradient projection (eq. 13).

    Links with infinite capacity can never constrain the system; their
    controllers report a permanently zero price without updating, which is
    how the paper's no-link-bottleneck workloads behave.
    """

    def __init__(
        self,
        capacity: float,
        gamma: GammaSchedule | float = 1e-4,
        initial_price: float = 0.0,
    ) -> None:
        self.capacity = _validate_capacity(capacity)
        self._gamma = FixedGamma(gamma) if isinstance(gamma, (int, float)) else gamma
        _validate_price(initial_price)
        self._price = 0.0 if math.isinf(capacity) else initial_price
        #: Optional telemetry probe; ``None`` keeps the update allocation-free.
        self.probe: PriceProbe | None = None

    @property
    def price(self) -> float:
        return self._price

    @property
    def gamma(self) -> float:
        """The gradient-projection step size the next update would apply."""
        return self._gamma.value()

    def attach_probe(self, probe: "PriceProbe") -> None:
        """Wire a telemetry probe into this controller and its schedule."""
        self.probe = probe
        self._gamma.probe = probe

    def update(self, usage: float) -> float:
        """Apply eq. 13 and return the new price.

        ``usage`` is the aggregate link load ``sum_i L_{l,i} r_i``.
        """
        if not math.isfinite(usage) or usage < 0.0:
            raise ValueError(f"usage must be finite and non-negative, got {usage}")
        if math.isinf(self.capacity):
            return self._price
        old_price = self._price
        gamma = self._gamma.value()
        new_price = max(old_price + gamma * (usage - self.capacity), 0.0)
        self._gamma.observe(new_price - old_price)
        self._price = new_price
        if self.probe is not None:
            self.probe.price_update(
                old_price, new_price, gamma, "gradient",
                usage=usage, capacity=self.capacity,
            )
        return new_price

    def reset(self, price: float = 0.0) -> None:
        _validate_price(price)
        self._price = 0.0 if math.isinf(self.capacity) else price

    def state_dict(self) -> dict[str, object]:
        """Checkpoint of price + step-size state (for agent recovery)."""
        return {"price": self._price, "gamma": self._gamma.state_dict()}

    def load_state(self, state: dict[str, object]) -> None:
        """Inverse of :meth:`state_dict` (validates the restored price)."""
        price = state["price"]
        assert isinstance(price, float)
        _validate_price(price)
        self._price = 0.0 if math.isinf(self.capacity) else price
        gamma = state["gamma"]
        assert isinstance(gamma, dict)
        self._gamma.load_state(gamma)
