"""Tests for repro.core.max_degree (Algorithm 2, `Max`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.max_degree import MaxDegreeEstimator
from repro.crypto.protocol import TwoServerRuntime
from repro.exceptions import PrivacyError


class TestMaxDegreeEstimator:
    def test_noisy_degrees_one_per_user(self):
        estimator = MaxDegreeEstimator(epsilon1=1.0)
        result = estimator.run([3, 5, 2, 8], rng=0)
        assert len(result.noisy_degrees) == 4
        assert result.epsilon1 == 1.0

    def test_noisy_max_close_to_true_max_at_high_epsilon(self):
        estimator = MaxDegreeEstimator(epsilon1=50.0)
        degrees = [10] * 120 + [20, 30, 100]
        result = estimator.run(degrees, rng=1)
        assert result.noisy_max_degree == pytest.approx(100, abs=1.0)

    def test_noise_actually_added(self):
        estimator = MaxDegreeEstimator(epsilon1=0.5)
        result = estimator.run([10] * 20, rng=2)
        assert any(abs(d - 10) > 1e-9 for d in result.noisy_degrees)

    def test_clamped_to_num_users(self):
        estimator = MaxDegreeEstimator(epsilon1=0.01)
        result = estimator.run([5] * 10, rng=3)
        assert result.noisy_max_degree <= 9

    def test_clamp_orders_agree_for_every_n(self):
        """Clamping to n - 1 then flooring at 1 equals the reverse order."""
        from repro.core.max_degree import clamp_max_degree

        for n in range(1, 12):
            for top in (-5.0, 0.3, 1.0, n - 1.5, n - 1.0, n + 0.5, 1e9):
                noisy = [top] + [0.0] * (n - 1)
                min_first = max(min(top, float(n - 1) if n > 1 else 1.0), 1.0)
                max_first = min(max(top, 1.0), float(max(n - 1, 1)))
                assert clamp_max_degree(noisy) == min_first == max_first

    def test_floor_at_one(self):
        estimator = MaxDegreeEstimator(epsilon1=0.5)
        result = estimator.run([0, 0, 0], rng=5)
        assert result.noisy_max_degree >= 1.0

    def test_empty_degree_set(self):
        result = MaxDegreeEstimator(epsilon1=1.0).run([], rng=6)
        assert result.noisy_degrees == []
        assert result.noisy_max_degree == 1.0

    def test_deterministic_given_seed(self):
        estimator = MaxDegreeEstimator(epsilon1=1.0)
        assert (
            estimator.run([1, 2, 3], rng=7).noisy_max_degree
            == estimator.run([1, 2, 3], rng=7).noisy_max_degree
        )

    def test_invalid_epsilon(self):
        with pytest.raises(PrivacyError):
            MaxDegreeEstimator(epsilon1=0)

    def test_expected_error(self):
        estimator = MaxDegreeEstimator(epsilon1=2.0)
        assert estimator.expected_error(100) == pytest.approx(0.5)
        with pytest.raises(PrivacyError):
            estimator.expected_error(0)

    def test_accuracy_improves_with_epsilon(self):
        """Empirical counterpart of Table V: higher budget -> smaller deviation."""
        degrees = list(np.random.default_rng(0).integers(1, 60, size=200))
        true_max = max(degrees)
        deviations = {}
        for epsilon in (0.05, 5.0):
            estimator = MaxDegreeEstimator(epsilon1=epsilon)
            trials = [
                abs(estimator.run(degrees, rng=seed).noisy_max_degree - true_max)
                for seed in range(20)
            ]
            deviations[epsilon] = np.mean(trials)
        assert deviations[5.0] < deviations[0.05]

    def test_communication_recorded(self):
        runtime = TwoServerRuntime(3)
        MaxDegreeEstimator(epsilon1=1.0).run([1, 2, 3], rng=8, runtime=runtime)
        # 3 noisy degrees to S1 plus a 3-user broadcast of d'_max.
        assert runtime.ledger.total_messages == 6
