"""Ablation — noise placement: CARGO's distributed noise vs Cryptε-style double Laplace.

The paper motivates the distributed Gamma-difference perturbation by noting
that the prior crypto-assisted design (Cryptε) has each of the two servers
add an independent Laplace noise, doubling the variance.  This ablation
measures both designs around the same secure count and checks the ≈2x gap in
empirical variance.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends import CountResult
from repro.core.perturbation import DistributedPerturbation
from repro.crypto.sharing import share_scalar
from repro.dp.mechanisms import LaplaceMechanism


def run_noise_ablation(true_count: int = 50_000, sensitivity: float = 100.0, epsilon2: float = 1.0, trials: int = 600):
    """Return the empirical error variance of the two noise designs."""
    distributed_errors = []
    double_laplace_errors = []
    for seed in range(trials):
        pair = share_scalar(true_count, rng=seed)
        count = CountResult(share1=pair.share1, share2=pair.share2, num_triples_processed=0, opening_rounds=0)
        perturbation = DistributedPerturbation(
            epsilon2=epsilon2, sensitivity=sensitivity, num_users=64
        )
        distributed_errors.append(perturbation.run(count, rng=seed).noisy_count - true_count)

        # Cryptε-style: each untrusted server independently adds Lap(Δ/ε).
        mechanism = LaplaceMechanism(epsilon=epsilon2, sensitivity=sensitivity)
        noisy = true_count + mechanism.sample_noise(rng=seed * 2 + 1) + mechanism.sample_noise(rng=seed * 2 + 2)
        double_laplace_errors.append(noisy - true_count)
    return {
        "distributed_variance": float(np.var(distributed_errors)),
        "double_laplace_variance": float(np.var(double_laplace_errors)),
    }


def test_ablation_noise_placement(benchmark):
    """Distributed noise has about half the variance of the double-Laplace design."""
    results = benchmark.pedantic(run_noise_ablation, rounds=1, iterations=1)
    print()
    ratio = results["double_laplace_variance"] / results["distributed_variance"]
    print(f"  distributed (CARGO)  variance = {results['distributed_variance']:.3e}")
    print(f"  double Laplace       variance = {results['double_laplace_variance']:.3e}")
    print(f"  ratio = {ratio:.2f} (theory: 2.0)")
    assert 1.4 < ratio < 2.8
