"""Unit tests for the convergence criterion (section 4.3)."""

import math

import pytest

from repro.core.convergence import (
    ConvergenceCriterion,
    iterations_until_convergence,
    oscillation_amplitude,
)


class TestWindowConverged:
    def test_flat_series_converges(self):
        criterion = ConvergenceCriterion(window=5)
        assert criterion.window_converged([100.0] * 5)

    def test_short_series_never_converges(self):
        criterion = ConvergenceCriterion(window=5)
        assert not criterion.window_converged([100.0] * 4)

    def test_small_relative_amplitude_converges(self):
        criterion = ConvergenceCriterion(window=4, rel_amplitude=1e-3)
        values = [1000.0, 1000.5, 999.9, 1000.2]
        assert criterion.window_converged(values)

    def test_large_amplitude_does_not(self):
        criterion = ConvergenceCriterion(window=4, rel_amplitude=1e-3)
        values = [1000.0, 1100.0, 900.0, 1000.0]
        assert not criterion.window_converged(values)

    def test_only_trailing_window_matters(self):
        criterion = ConvergenceCriterion(window=3)
        values = [0.0, 5000.0, 100.0, 100.0, 100.0]
        assert criterion.window_converged(values)

    def test_zero_mean_edge_case(self):
        criterion = ConvergenceCriterion(window=3)
        assert criterion.window_converged([0.0, 0.0, 0.0])
        assert not criterion.window_converged([-1.0, 0.0, 1.0])


class TestConvergedAt:
    def test_finds_first_stable_window(self):
        criterion = ConvergenceCriterion(window=3, rel_amplitude=0.01)
        values = [0.0, 100.0, 50.0, 100.0, 100.0, 100.0, 100.0]
        # First window [100, 100, 100] ends at index 5.
        assert criterion.converged_at(values) == 5

    def test_never_converges_returns_none(self):
        criterion = ConvergenceCriterion(window=3, rel_amplitude=1e-6)
        values = [float(i % 7) * 100.0 + 1.0 for i in range(30)]
        assert criterion.converged_at(values) is None

    def test_iterations_until_convergence_is_one_based(self):
        values = [0.0, 100.0, 100.0, 100.0]
        assert iterations_until_convergence(values, window=3) == 4

    def test_empty_series(self):
        assert iterations_until_convergence([], window=3) is None


class TestValidation:
    def test_window_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            ConvergenceCriterion(window=1)

    def test_amplitude_must_be_positive(self):
        with pytest.raises(ValueError):
            ConvergenceCriterion(rel_amplitude=0.0)


class TestOscillationAmplitude:
    def test_flat_is_zero(self):
        assert oscillation_amplitude([5.0, 5.0, 5.0]) == 0.0

    def test_relative_to_mean(self):
        assert oscillation_amplitude([90.0, 110.0], window=2) == pytest.approx(0.2)

    def test_zero_mean_window_with_spread_is_infinite(self):
        assert oscillation_amplitude([-1.0, 1.0] * 5) == math.inf

    def test_requires_values(self):
        with pytest.raises(ValueError):
            oscillation_amplitude([])
