"""Tests for repro.core.perturbation (Algorithm 5, `Perturb`)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import Cargo, CargoConfig
from repro.core.backends import CountResult
from repro.core.perturbation import DistributedPerturbation
from repro.crypto.protocol import TwoServerRuntime
from repro.crypto.ring import DEFAULT_RING, Ring
from repro.crypto.sharing import share_scalar
from repro.exceptions import PrivacyError, ProtocolError
from repro.graph import load_dataset


def make_count_result(count: int, seed: int = 0, ring: Ring = DEFAULT_RING) -> CountResult:
    """Secret-share a plaintext count so Perturb can be tested in isolation."""
    pair = share_scalar(count, ring=ring, rng=seed)
    return CountResult(
        share1=pair.share1, share2=pair.share2, num_triples_processed=0, opening_rounds=0, ring=ring
    )


class TestDistributedPerturbation:
    def test_output_is_count_plus_noise(self):
        perturbation = DistributedPerturbation(epsilon2=1.0, sensitivity=10.0, num_users=50)
        result = perturbation.run(make_count_result(1000), rng=0)
        assert result.noisy_count == 1000 + result.aggregate_noise
        assert result.aggregate_noise == int(result.aggregate_noise)

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
        assert result.noisy_count == result.aggregate_noise

    def test_empirical_noise_variance_matches_discrete_laplace(self):
        """Aggregated distributed noise has the discrete Laplace variance 2α/(1 − α)²."""
        epsilon2, sensitivity, num_users = 1.0, 10.0, 40
        perturbation = DistributedPerturbation(
            epsilon2=epsilon2, sensitivity=sensitivity, num_users=num_users
        )
        noises = [
            perturbation.run(make_count_result(0, seed=seed), rng=seed).noisy_count
            for seed in range(800)
        ]
        expected_variance = perturbation.noise_config.aggregate_variance
        assert expected_variance == pytest.approx(2 * (sensitivity / epsilon2) ** 2, rel=0.01)
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

    def test_noise_does_not_depend_on_the_ring_width(self):
        results = [
            DistributedPerturbation(
                epsilon2=1.0, sensitivity=5.0, num_users=10, ring=Ring(bits)
            ).run(make_count_result(100, ring=Ring(bits)), rng=7)
            for bits in (20, 64)
        ]
        assert results[0].noisy_count == results[1].noisy_count
        assert results[0].noisy_share1 != results[1].noisy_share1

    def test_noisy_shares_open_to_the_noisy_count_in_the_ring(self):
        ring = Ring(20)
        perturbation = DistributedPerturbation(
            epsilon2=1.0, sensitivity=5.0, num_users=10, ring=ring
        )
        result = perturbation.run(make_count_result(3, ring=ring), rng=11)
        assert 0 <= result.noisy_share1 < 2**20 and 0 <= result.noisy_share2 < 2**20
        opened = ring.add(result.noisy_share1, result.noisy_share2)
        assert ring.decode_signed(opened) == result.noisy_count

    def test_noise_planes_share_each_users_partial_noise(self):
        ring = Ring(24)
        perturbation = DistributedPerturbation(
            epsilon2=1.0, sensitivity=5.0, num_users=30, ring=ring
        )
        share1_plane, share2_plane, noise_total = perturbation.noise_planes(rng=4)
        noises = perturbation.noise_config.sample_partial_noises(4)
        assert share1_plane.shape == share2_plane.shape == (30,)
        assert np.all(share1_plane < 2**24) and np.all(share2_plane < 2**24)
        assert np.array_equal(ring.decode_signed(ring.add(share1_plane, share2_plane)), noises)
        assert noise_total == int(noises.sum())

    def test_count_shares_from_another_ring_raise(self):
        perturbation = DistributedPerturbation(
            epsilon2=1.0, sensitivity=5.0, num_users=10, ring=Ring(20)
        )
        with pytest.raises(ProtocolError, match="20-bit ring"):
            perturbation.run(make_count_result(100), rng=7)


#: One release of facebook n=128 at seed 5, run with SciPy made unimportable.
_RELEASE_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from repro.core import Cargo, CargoConfig
from repro.graph import load_dataset
graph = load_dataset("facebook", num_nodes=128, seed=5)
print(repr(Cargo(CargoConfig(seed=5)).run(graph).noisy_count))
"""


class TestNoScipy:
    def test_a_release_does_not_depend_on_scipy(self):
        """The noise sampler is NumPy alone: blocking SciPy releases the same count."""
        graph = load_dataset("facebook", num_nodes=128, seed=5)
        plain = Cargo(CargoConfig(seed=5)).run(graph).noisy_count
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        blocked = subprocess.run(
            [sys.executable, "-c", _RELEASE_WITHOUT_SCIPY],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert float(blocked.stdout) == plain
