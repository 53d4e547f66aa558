"""Tests for repro.dp.auditing — empirical privacy audits of the mechanisms.

These tests audit the *implemented* mechanisms (Laplace degree release,
randomized response, CARGO's aggregated distributed noise) on neighbouring
inputs and check that the observed privacy loss stays within the claimed ε,
and — just as importantly — that the auditor detects a deliberately broken
mechanism.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dp.auditing import (
    AuditResult,
    audit_mechanism,
    audit_randomized_response,
    epsilon_lower_bound_from_samples,
)
from repro.dp.discrete_laplace import DistributedDiscreteLaplace
from repro.dp.mechanisms import LaplaceMechanism, RandomizedResponse
from repro.exceptions import ConfigurationError


class TestAuditMechanism:
    def test_laplace_degree_release_passes(self):
        """Algorithm 2's per-user degree release satisfies its epsilon empirically."""
        epsilon = 1.0
        mechanism = LaplaceMechanism(epsilon=epsilon, sensitivity=1.0)
        result = audit_mechanism(
            lambda value, generator: value + mechanism.sample_noise(generator),
            input_a=10.0,
            input_b=11.0,  # neighbouring degree sets differ by one edge
            claimed_epsilon=epsilon,
            num_trials=20_000,
            rng=0,
        )
        assert result.passes
        assert result.epsilon_lower_bound <= 1.6

    def test_distributed_noise_passes_for_triangle_release(self):
        """The aggregated Pólya-difference noise protects a sensitivity-Δ change."""
        epsilon = 1.0
        sensitivity = 5.0
        noise = DistributedDiscreteLaplace(epsilon=epsilon, sensitivity=sensitivity, num_users=50)

        def mechanism(value, generator):
            return value + float(noise.sample_partial_noises(generator).sum())

        result = audit_mechanism(
            mechanism,
            input_a=100.0,
            input_b=100.0 + sensitivity,
            claimed_epsilon=epsilon,
            num_trials=20_000,
            rng=1,
        )
        assert result.passes

    def test_detects_broken_mechanism(self):
        """Halving the Laplace scale doubles the privacy loss and fails the audit."""
        epsilon = 0.5
        broken = LaplaceMechanism(epsilon=epsilon * 6, sensitivity=1.0)  # far too little noise
        result = audit_mechanism(
            lambda value, generator: value + broken.sample_noise(generator),
            input_a=10.0,
            input_b=11.0,
            claimed_epsilon=epsilon,
            num_trials=20_000,
            rng=2,
        )
        assert not result.passes
        assert result.epsilon_lower_bound > epsilon

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            audit_mechanism(lambda v, g: v, 0, 1, claimed_epsilon=1.0, num_trials=0)
        with pytest.raises(ConfigurationError):
            audit_mechanism(lambda v, g: v, 0, 1, claimed_epsilon=1.0, num_bins=1)
        with pytest.raises(ConfigurationError):
            audit_mechanism(lambda v, g: v, 0, 1, claimed_epsilon=0)

    def test_result_dataclass_fields(self):
        result = AuditResult(epsilon_lower_bound=0.5, claimed_epsilon=1.0, num_trials=100, num_bins=10)
        assert result.passes

    def test_half_scale_laplace_is_flagged(self):
        """The canonical planted bug: Laplace noise at half the scale.

        Half the scale means double the realized epsilon, so an audit
        against the claimed (unhalved) epsilon must fail.
        """
        epsilon = 1.0
        half_scale = LaplaceMechanism(epsilon=epsilon * 2, sensitivity=1.0)
        result = audit_mechanism(
            lambda value, generator: value + half_scale.sample_noise(generator),
            input_a=10.0,
            input_b=11.0,
            claimed_epsilon=epsilon,
            num_trials=20_000,
            rng=5,
        )
        assert not result.passes
        assert result.epsilon_lower_bound > epsilon * 1.05 + 0.05
        # ... and the same mechanism audited against its true epsilon passes.
        honest = audit_mechanism(
            lambda value, generator: value + half_scale.sample_noise(generator),
            input_a=10.0,
            input_b=11.0,
            claimed_epsilon=epsilon * 2,
            num_trials=20_000,
            rng=5,
        )
        assert honest.passes


class TestEpsilonLowerBoundFromSamples:
    def test_zero_variance_samples_bound_zero(self):
        """Identical degenerate distributions carry no distinguishing power."""
        assert epsilon_lower_bound_from_samples([0.0] * 200, [0.0] * 200) == 0.0

    def test_identical_samples_bound_zero(self):
        samples = list(np.random.default_rng(0).normal(size=500))
        assert epsilon_lower_bound_from_samples(samples, samples) == 0.0

    def test_shifted_samples_bound_positive(self):
        rng = np.random.default_rng(1)
        low = rng.normal(loc=0.0, scale=1.0, size=5000)
        high = rng.normal(loc=2.0, scale=1.0, size=5000)
        assert epsilon_lower_bound_from_samples(low, high) > 1.0

    def test_disjoint_samples_stay_conservative(self):
        """Bins populated on only one side are skipped, not treated as ∞.

        The estimator reports a *lower* bound; with fully disjoint supports
        every bin fails the minimum-mass requirement on one side, so the
        bound degrades to 0 rather than fabricating an unbounded loss from
        noise-starved bins.
        """
        rng = np.random.default_rng(1)
        low = rng.normal(loc=0.0, scale=0.1, size=2000)
        high = rng.normal(loc=10.0, scale=0.1, size=2000)
        assert epsilon_lower_bound_from_samples(low, high) == 0.0

    def test_minimum_bins_accepted_single_bin_rejected(self):
        samples = list(np.random.default_rng(2).normal(size=200))
        shifted = [value + 0.5 for value in samples]
        # Two bins is the smallest meaningful histogram and must work.
        bound = epsilon_lower_bound_from_samples(samples, shifted, num_bins=2)
        assert bound >= 0.0
        with pytest.raises(ConfigurationError):
            epsilon_lower_bound_from_samples(samples, shifted, num_bins=1)

    def test_empty_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            epsilon_lower_bound_from_samples([], [1.0])
        with pytest.raises(ConfigurationError):
            epsilon_lower_bound_from_samples([1.0], [])

    def test_unequal_lengths_truncate_to_shorter(self):
        rng = np.random.default_rng(3)
        samples_a = list(rng.normal(size=1000))
        samples_b = list(rng.normal(size=400))
        bound = epsilon_lower_bound_from_samples(samples_a, samples_b)
        assert bound >= 0.0

    def test_matches_audit_mechanism_delegation(self):
        """audit_mechanism's bound is exactly the shared estimator's bound."""
        epsilon = 1.0
        mechanism = LaplaceMechanism(epsilon=epsilon, sensitivity=1.0)
        rng = np.random.default_rng(7)
        samples_a = [10.0 + mechanism.sample_noise(rng) for _ in range(5000)]
        samples_b = [11.0 + mechanism.sample_noise(rng) for _ in range(5000)]
        direct = epsilon_lower_bound_from_samples(samples_a, samples_b)
        assert direct <= epsilon * 1.05 + 0.05


class TestAuditRandomizedResponse:
    def test_implemented_rr_matches_its_epsilon(self):
        epsilon = 1.0
        response = RandomizedResponse(epsilon=epsilon)
        result = audit_randomized_response(
            response.keep_probability, claimed_epsilon=epsilon, num_trials=100_000, rng=3
        )
        # The exact loss of RR is exactly epsilon; the empirical estimate is close.
        assert result.epsilon_lower_bound == pytest.approx(epsilon, abs=0.1)
        assert result.passes

    def test_detects_overconfident_claim(self):
        response = RandomizedResponse(epsilon=3.0)  # weak privacy
        result = audit_randomized_response(
            response.keep_probability, claimed_epsilon=0.5, num_trials=100_000, rng=4
        )
        assert not result.passes

    def test_invalid_keep_probability(self):
        with pytest.raises(ConfigurationError):
            audit_randomized_response(1.0, claimed_epsilon=1.0)
