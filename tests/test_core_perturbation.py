"""Tests for repro.core.perturbation (Algorithm 5, `Perturb`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backends import CountResult
from repro.core.perturbation import DistributedPerturbation
from repro.crypto.protocol import TwoServerRuntime
from repro.crypto.sharing import share_scalar
from repro.exceptions import PrivacyError


def make_count_result(count: int, seed: int = 0) -> CountResult:
    """Secret-share a plaintext count so Perturb can be tested in isolation."""
    pair = share_scalar(count, rng=seed)
    return CountResult(share1=pair.share1, share2=pair.share2, num_triples_processed=0, opening_rounds=0)


class TestDistributedPerturbation:
    def test_output_is_count_plus_noise(self):
        perturbation = DistributedPerturbation(epsilon2=1.0, sensitivity=10.0, num_users=50)
        result = perturbation.run(make_count_result(1000), rng=0)
        assert result.noisy_count == pytest.approx(1000 + result.aggregate_noise, abs=1e-2)

    def test_noise_is_not_zero(self):
        perturbation = DistributedPerturbation(epsilon2=0.5, sensitivity=20.0, num_users=30)
        result = perturbation.run(make_count_result(500), rng=1)
        assert result.aggregate_noise != 0.0

    def test_deterministic_given_seed(self):
        perturbation = DistributedPerturbation(epsilon2=1.0, sensitivity=5.0, num_users=10)
        first = perturbation.run(make_count_result(100), rng=7)
        second = perturbation.run(make_count_result(100), rng=7)
        assert first.noisy_count == second.noisy_count

    def test_shares_hide_noisy_count(self):
        perturbation = DistributedPerturbation(epsilon2=1.0, sensitivity=5.0, num_users=10)
        result = perturbation.run(make_count_result(100), rng=2)
        assert result.noisy_share1 != int(result.noisy_count)

    def test_zero_count(self):
        perturbation = DistributedPerturbation(epsilon2=2.0, sensitivity=1.0, num_users=5)
        result = perturbation.run(make_count_result(0), rng=3)
        assert result.noisy_count == pytest.approx(result.aggregate_noise, abs=1e-3)

    def test_empirical_noise_variance_matches_laplace(self):
        """Aggregated distributed noise has the Laplace variance 2 (Δ/ε2)²."""
        epsilon2, sensitivity, num_users = 1.0, 10.0, 40
        perturbation = DistributedPerturbation(
            epsilon2=epsilon2, sensitivity=sensitivity, num_users=num_users
        )
        noises = [
            perturbation.run(make_count_result(0, seed=seed), rng=seed).noisy_count
            for seed in range(800)
        ]
        expected_variance = 2 * (sensitivity / epsilon2) ** 2
        assert np.var(noises) == pytest.approx(expected_variance, rel=0.25)
        assert abs(np.mean(noises)) < 3 * np.sqrt(expected_variance / len(noises)) + 1.0

    def test_higher_epsilon_less_noise(self):
        count = make_count_result(10_000)
        sizes = {}
        for epsilon2 in (0.1, 10.0):
            perturbation = DistributedPerturbation(epsilon2=epsilon2, sensitivity=50.0, num_users=20)
            deviations = [
                abs(perturbation.run(count, rng=seed).noisy_count - 10_000) for seed in range(30)
            ]
            sizes[epsilon2] = np.mean(deviations)
        assert sizes[10.0] < sizes[0.1]

    def test_communication_recorded(self):
        runtime = TwoServerRuntime(4)
        perturbation = DistributedPerturbation(epsilon2=1.0, sensitivity=2.0, num_users=4)
        perturbation.run(make_count_result(10), rng=4, runtime=runtime)
        # Two noise shares per user plus the final cross-server exchange.
        assert runtime.ledger.total_messages == 4 * 2 + 2

    def test_invalid_num_users(self):
        with pytest.raises(PrivacyError):
            DistributedPerturbation(epsilon2=1.0, sensitivity=1.0, num_users=0)


class TestPerUserFallbackPath:
    """REPRO_FORCE_PER_USER_NOISE=1 exercises the SciPy-less sampler."""

    def test_fallback_is_deterministic_and_consistent(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_PER_USER_NOISE", "1")
        perturbation = DistributedPerturbation(epsilon2=1.0, sensitivity=5.0, num_users=10)
        first = perturbation.run(make_count_result(100), rng=7)
        second = perturbation.run(make_count_result(100), rng=7)
        assert first.noisy_count == second.noisy_count
        assert first.noisy_count == pytest.approx(100 + first.aggregate_noise, abs=1e-2)

    def test_fallback_communication_recorded(self, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_PER_USER_NOISE", "1")
        runtime = TwoServerRuntime(4)
        perturbation = DistributedPerturbation(epsilon2=1.0, sensitivity=2.0, num_users=4)
        perturbation.run(make_count_result(10), rng=4, runtime=runtime)
        assert runtime.ledger.total_messages == 4 * 2 + 2
