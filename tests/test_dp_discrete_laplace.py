"""Tests for repro.dp.discrete_laplace — Pólya differences summing to discrete Laplace."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.dp.discrete_laplace import DistributedDiscreteLaplace
from repro.exceptions import PrivacyError

#: The χ² critical value at 14 degrees of freedom and p = 0.001.
CHI2_14_P001 = 36.123


def _sums(noise: DistributedDiscreteLaplace, trials: int, seed: int) -> np.ndarray:
    generator = np.random.default_rng(seed)
    return np.array([noise.sample_partial_noises(generator).sum() for _ in range(trials)])


def _chi2_against_the_law(noise: DistributedDiscreteLaplace, trials: int, seed: int) -> float:
    """χ² of the summed noise against the exact discrete Laplace pmf, 15 cells."""
    draws = _sums(noise, trials, seed=seed)
    alpha = noise.alpha
    pmf = {k: (1 - alpha) / (1 + alpha) * alpha ** abs(k) for k in range(-6, 7)}
    tail = alpha**7 / (1 + alpha)  # P(N ≥ 7) = P(N ≤ −7)
    observed = [np.count_nonzero(draws == k) for k in pmf]
    observed += [np.count_nonzero(draws >= 7), np.count_nonzero(draws <= -7)]
    expected = [trials * p for p in pmf.values()] + [trials * tail] * 2
    assert sum(pmf.values()) + 2 * tail == pytest.approx(1.0)
    return sum((o - e) ** 2 / e for o, e in zip(observed, expected))


class TestOneUser:
    def test_plane_is_an_exact_two_sided_geometric(self):
        """At n = 1 the one partial noise is the whole law: a χ² goodness-of-fit test."""
        noise = DistributedDiscreteLaplace(epsilon=1.0, sensitivity=2.0, num_users=1)
        assert _chi2_against_the_law(noise, trials=20_000, seed=0) < CHI2_14_P001


class TestAggregate:
    @pytest.mark.parametrize("num_users, trials", [(50, 4000), (10_000, 1000)])
    def test_sum_has_mean_zero_and_the_discrete_laplace_variance(self, num_users, trials):
        noise = DistributedDiscreteLaplace(epsilon=1.0, sensitivity=10.0, num_users=num_users)
        sums = _sums(noise, trials, seed=num_users).astype(np.float64)
        variance = float(sums.var())
        centred = sums - sums.mean()
        variance_se = math.sqrt((float(np.mean(centred**4)) - variance**2) / trials)
        assert abs(float(sums.mean())) < 4 * math.sqrt(variance / trials)
        assert abs(variance - noise.aggregate_variance) < 4 * variance_se
        alpha = noise.alpha
        assert noise.aggregate_variance == pytest.approx(2 * alpha / (1 - alpha) ** 2)

    @pytest.mark.parametrize("num_users", [2, 50, 1000])
    def test_sum_is_an_exact_two_sided_geometric(self, num_users):
        """Infinite divisibility: n users' Pólya differences sum to the n = 1 law."""
        noise = DistributedDiscreteLaplace(epsilon=1.0, sensitivity=2.0, num_users=num_users)
        assert _chi2_against_the_law(noise, trials=10_000, seed=num_users) < CHI2_14_P001

    def test_sum_has_a_heavier_tail_than_a_gaussian(self):
        """The sum's kurtosis is near Laplace's 6, where a Gaussian's is 3."""
        noise = DistributedDiscreteLaplace(epsilon=1.0, sensitivity=10.0, num_users=100)
        sums = _sums(noise, trials=4000, seed=3).astype(np.float64)
        standardized = (sums - sums.mean()) / sums.std()
        assert float(np.mean(standardized**4)) > 4.0

    def test_partial_noise_is_tiny_next_to_the_aggregate(self):
        noise = DistributedDiscreteLaplace(epsilon=1.0, sensitivity=10.0, num_users=1000)
        partials = noise.sample_partial_noises(1)
        assert partials.shape == (1000,) and partials.dtype == np.int64
        assert float(np.mean(np.abs(partials))) < noise.scale

    def test_success_probability_stays_exact_near_alpha_one(self):
        noise = DistributedDiscreteLaplace(epsilon=1e-12, sensitivity=1.0, num_users=3)
        assert noise.success_probability == pytest.approx(1e-12, rel=1e-9)
        assert noise.alpha == pytest.approx(1.0)

    def test_scale_and_variance(self):
        noise = DistributedDiscreteLaplace(epsilon=2.0, sensitivity=100.0, num_users=50)
        assert noise.scale == pytest.approx(50.0)
        assert noise.alpha == pytest.approx(math.exp(-1 / 50))
        # 2α/(1 − α)² falls short of the continuous 2λ² by about 1/6.
        assert noise.aggregate_variance == pytest.approx(5000.0 - 1 / 6, rel=1e-6)

    def test_deterministic_with_seed(self):
        noise = DistributedDiscreteLaplace(epsilon=1.0, sensitivity=2.0, num_users=7)
        assert np.array_equal(noise.sample_partial_noises(5), noise.sample_partial_noises(5))


    def test_different_seeds_draw_different_noise(self):
        noise = DistributedDiscreteLaplace(epsilon=1.0, sensitivity=10.0, num_users=50)
        assert not np.array_equal(noise.sample_partial_noises(5), noise.sample_partial_noises(6))

class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epsilon=0, sensitivity=1, num_users=1),
            dict(epsilon=-1, sensitivity=1, num_users=1),
            dict(epsilon=float("nan"), sensitivity=1, num_users=1),
            dict(epsilon=1, sensitivity=0, num_users=1),
            dict(epsilon=1, sensitivity=-2, num_users=1),
            dict(epsilon=1, sensitivity=1, num_users=0),
            dict(epsilon=1, sensitivity=1, num_users=-3),
        ],
    )
    def test_invalid_parameters_raise(self, kwargs):
        with pytest.raises(PrivacyError):
            DistributedDiscreteLaplace(**kwargs)
