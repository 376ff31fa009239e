"""Unit tests for gamma schedules (section 4.2 heuristic)."""

import math

import pytest

from repro.core.gamma import (
    GAMMA_LOWER_BOUND,
    GAMMA_UPPER_BOUND,
    AdaptiveGamma,
    FixedGamma,
)


class TestFixedGamma:
    def test_constant(self):
        schedule = FixedGamma(0.05)
        assert schedule.value() == 0.05
        schedule.observe(1.0)
        schedule.observe(-1.0)
        assert schedule.value() == 0.05

    def test_clone_is_independent(self):
        schedule = FixedGamma(0.05)
        assert schedule.clone() is not schedule
        assert schedule.clone().value() == 0.05

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedGamma(-0.1)


class TestAdaptiveGamma:
    def test_starts_at_upper_clamp_by_default(self):
        assert AdaptiveGamma().value() == GAMMA_UPPER_BOUND

    def test_initial_is_clamped(self):
        assert AdaptiveGamma(initial=5.0).value() == GAMMA_UPPER_BOUND
        assert AdaptiveGamma(initial=1e-9).value() == GAMMA_LOWER_BOUND

    def test_grows_while_quiet(self):
        schedule = AdaptiveGamma(initial=0.01)
        schedule.observe(1.0)
        schedule.observe(0.5)  # same direction: no fluctuation
        assert schedule.value() == pytest.approx(0.012)

    def test_halves_on_fluctuation(self):
        schedule = AdaptiveGamma(initial=0.08)
        schedule.observe(1.0)
        schedule.observe(-1.0)  # reversal
        assert schedule.value() == pytest.approx((0.08 + 0.001) * 0.5)

    def test_repeated_fluctuations_hit_lower_bound(self):
        schedule = AdaptiveGamma(initial=0.1)
        sign = 1.0
        for _ in range(30):
            schedule.observe(sign)
            sign = -sign
        assert schedule.value() == GAMMA_LOWER_BOUND

    def test_growth_capped_at_upper_bound(self):
        schedule = AdaptiveGamma(initial=0.0995)
        for _ in range(20):
            schedule.observe(1.0)
        assert schedule.value() == GAMMA_UPPER_BOUND

    def test_zero_delta_does_not_register_direction(self):
        schedule = AdaptiveGamma(initial=0.01)
        schedule.observe(1.0)
        schedule.observe(0.0)   # no movement: not a fluctuation
        schedule.observe(-1.0)  # reversal vs the last nonzero delta
        assert schedule.value() < 0.012  # the halving happened

    def test_clone_resets_state(self):
        schedule = AdaptiveGamma(initial=0.05)
        schedule.observe(1.0)
        schedule.observe(-1.0)
        clone = schedule.clone()
        assert clone.value() == 0.05

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            AdaptiveGamma(lower=0.0)
        with pytest.raises(ValueError):
            AdaptiveGamma(lower=0.5, upper=0.1)
        with pytest.raises(ValueError):
            AdaptiveGamma(backoff=1.5)
        with pytest.raises(ValueError):
            AdaptiveGamma(increment=-0.1)

    def test_paper_bounds_are_defaults(self):
        assert GAMMA_LOWER_BOUND == 0.001
        assert GAMMA_UPPER_BOUND == 0.1


class TestNonFiniteGammaHardening:
    """A NaN step size slips past plain sign checks (``nan < 0`` is False)
    and would poison every subsequent price update."""

    def test_fixed_gamma_rejects_nan_and_inf(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                FixedGamma(bad)

    def test_fixed_gamma_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedGamma(-0.01)

    def test_adaptive_gamma_rejects_nan_initial(self):
        with pytest.raises(ValueError):
            AdaptiveGamma(initial=math.nan)

    def test_adaptive_gamma_rejects_nan_increment(self):
        with pytest.raises(ValueError, match="increment"):
            AdaptiveGamma(increment=math.nan)

    def test_adaptive_gamma_rejects_nan_bounds(self):
        with pytest.raises(ValueError):
            AdaptiveGamma(lower=math.nan)
        with pytest.raises(ValueError):
            AdaptiveGamma(upper=math.nan)

    def test_infinite_initial_clamps_to_upper_bound(self):
        # inf is not NaN: min/max clamping handles it deterministically.
        assert AdaptiveGamma(initial=math.inf).value() == GAMMA_UPPER_BOUND
