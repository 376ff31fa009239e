"""Unit tests for node (eq. 12) and link (eq. 13) price controllers."""

import math

import pytest

from repro.core.gamma import AdaptiveGamma, FixedGamma
from repro.core.prices import LinkPriceController, NodePriceController


class TestNodePriceController:
    def test_tracks_benefit_cost_when_under_capacity(self):
        controller = NodePriceController(100.0, FixedGamma(0.5), initial_price=0.0)
        price = controller.update(benefit_cost=2.0, used=50.0)
        assert price == pytest.approx(1.0)  # 0 + 0.5 * (2 - 0)
        price = controller.update(benefit_cost=2.0, used=50.0)
        assert price == pytest.approx(1.5)  # 1 + 0.5 * (2 - 1)

    def test_converges_to_benefit_cost(self):
        controller = NodePriceController(100.0, FixedGamma(0.3))
        for _ in range(100):
            controller.update(benefit_cost=7.0, used=10.0)
        assert controller.price == pytest.approx(7.0, rel=1e-6)

    def test_violation_branch_raises_price(self):
        controller = NodePriceController(100.0, FixedGamma(0.1), initial_price=1.0)
        price = controller.update(benefit_cost=0.0, used=150.0)
        assert price == pytest.approx(1.0 + 0.1 * 50.0)

    def test_gamma_one_jumps_straight_to_bc(self):
        controller = NodePriceController(100.0, FixedGamma(1.0), initial_price=9.0)
        assert controller.update(benefit_cost=2.5, used=10.0) == pytest.approx(2.5)

    def test_price_never_negative(self):
        controller = NodePriceController(100.0, FixedGamma(2.0), initial_price=0.5)
        # Overshooting toward a lower BC with gamma > 1 would go negative.
        price = controller.update(benefit_cost=0.0, used=10.0)
        assert price >= 0.0

    def test_zero_bc_decays_price(self):
        """The boundary case of section 3.3: all classes fully admitted."""
        controller = NodePriceController(100.0, FixedGamma(0.5), initial_price=4.0)
        controller.update(benefit_cost=0.0, used=10.0)
        assert controller.price == pytest.approx(2.0)

    def test_violation_branch_steps_the_one_schedule(self):
        gamma = AdaptiveGamma(initial=0.05)
        controller = NodePriceController(100.0, gamma)
        # Violation: 0 + 0.05 * (200 - 100); a first, quiet step grows gamma.
        assert controller.update(benefit_cost=0.0, used=200.0) == pytest.approx(5.0)
        assert gamma.state_dict() == pytest.approx(
            {"gamma": 0.051, "last_delta": 5.0}
        )
        assert controller.gamma == gamma.value()
        # Tracking moves the price back down: the schedule saw the
        # violation's rise, so it detects the reversal and halves.
        controller.update(benefit_cost=0.0, used=10.0)
        assert gamma.value() == pytest.approx(0.0255)

    def test_adaptive_gamma_observes_deltas(self):
        gamma = AdaptiveGamma(initial=0.05)
        controller = NodePriceController(100.0, gamma)
        controller.update(benefit_cost=1.0, used=10.0)  # price up
        controller.update(benefit_cost=0.0, used=10.0)  # price down -> halve
        assert gamma.value() < 0.05

    def test_rejects_invalid_inputs(self):
        controller = NodePriceController(100.0, FixedGamma(0.1))
        with pytest.raises(ValueError):
            controller.update(benefit_cost=-1.0, used=10.0)
        with pytest.raises(ValueError):
            controller.update(benefit_cost=1.0, used=-10.0)
        with pytest.raises(ValueError):
            controller.update(benefit_cost=float("nan"), used=10.0)

    def test_rejects_invalid_construction(self):
        with pytest.raises(ValueError):
            NodePriceController(0.0, FixedGamma(0.1))
        with pytest.raises(ValueError):
            NodePriceController(10.0, FixedGamma(0.1), initial_price=-1.0)

    def test_reset(self):
        controller = NodePriceController(100.0, FixedGamma(0.1), initial_price=5.0)
        controller.reset()
        assert controller.price == 0.0
        with pytest.raises(ValueError):
            controller.reset(-1.0)


class TestLinkPriceController:
    def test_gradient_projection_up_and_down(self):
        controller = LinkPriceController(100.0, gamma=0.01, initial_price=1.0)
        assert controller.update(usage=150.0) == pytest.approx(1.5)
        assert controller.update(usage=50.0) == pytest.approx(1.0)

    def test_projection_onto_nonnegative(self):
        controller = LinkPriceController(100.0, gamma=0.01, initial_price=0.1)
        assert controller.update(usage=0.0) == 0.0

    def test_price_zero_at_equilibrium_when_uncongested(self):
        controller = LinkPriceController(100.0, gamma=0.05)
        for _ in range(20):
            controller.update(usage=60.0)
        assert controller.price == 0.0

    def test_price_grows_while_congested(self):
        controller = LinkPriceController(100.0, gamma=0.05)
        previous = controller.price
        for _ in range(5):
            current = controller.update(usage=130.0)
            assert current > previous
            previous = current

    def test_infinite_capacity_is_always_free(self):
        controller = LinkPriceController(math.inf, gamma=0.05, initial_price=3.0)
        assert controller.price == 0.0
        assert controller.update(usage=1e12) == 0.0

    def test_accepts_schedule_or_float(self):
        assert LinkPriceController(10.0, gamma=0.5).update(12.0) == pytest.approx(1.0)
        assert LinkPriceController(10.0, gamma=FixedGamma(0.5)).update(
            12.0
        ) == pytest.approx(1.0)

    def test_rejects_invalid_inputs(self):
        controller = LinkPriceController(10.0)
        with pytest.raises(ValueError):
            controller.update(-1.0)
        with pytest.raises(ValueError):
            LinkPriceController(0.0)
        with pytest.raises(ValueError):
            LinkPriceController(10.0, initial_price=-0.5)


class TestNonFiniteInputHardening:
    """NaN compares false against everything, so it slips past plain sign
    guards (``nan < 0`` is False); these inputs must raise instead of
    silently poisoning the price trajectory."""

    def test_nan_capacity_rejected(self):
        with pytest.raises(ValueError):
            NodePriceController(math.nan, FixedGamma(0.1))
        with pytest.raises(ValueError):
            LinkPriceController(math.nan)

    def test_nan_and_inf_initial_price_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                NodePriceController(100.0, FixedGamma(0.1), initial_price=bad)
            with pytest.raises(ValueError):
                LinkPriceController(100.0, initial_price=bad)

    def test_infinite_capacity_link_still_validates_initial_price(self):
        # Even though the stored price is forced to zero, a bogus initial
        # price is a caller error and must not be masked by inf capacity.
        with pytest.raises(ValueError):
            LinkPriceController(math.inf, initial_price=-0.5)
        with pytest.raises(ValueError):
            LinkPriceController(math.inf, initial_price=math.nan)

    def test_node_update_rejects_nonfinite_inputs(self):
        controller = NodePriceController(100.0, FixedGamma(0.1))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                controller.update(benefit_cost=bad, used=10.0)
            with pytest.raises(ValueError):
                controller.update(benefit_cost=1.0, used=bad)
        assert controller.price == 0.0  # rejected inputs leave state intact

    def test_link_update_rejects_nonfinite_usage(self):
        controller = LinkPriceController(100.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                controller.update(bad)
        assert controller.price == 0.0

    def test_reset_validates_price(self):
        node = NodePriceController(100.0, FixedGamma(0.1))
        link = LinkPriceController(100.0)
        for controller in (node, link):
            with pytest.raises(ValueError):
                controller.reset(math.nan)
            with pytest.raises(ValueError):
                controller.reset(-1.0)
