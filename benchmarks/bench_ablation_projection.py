"""Ablation — projection strategy: similarity vs random vs none.

The projection rule (Algorithm 2; ``docs/architecture.md``, "The
pipeline") is a key design choice.  This ablation runs the full CARGO
pipeline three ways on the same graph:

* similarity-based `Project` (the paper's choice),
* random edge deletion (the LDP baseline's projection), and
* no projection at all (sensitivity stays at n - 2).

The expected ordering of the end-to-end l2 loss is
``similarity <= random << no-projection`` once the degree bound actually
truncates edges (small theta relative to d_max).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.random_projection import RandomProjection
from repro.core.backends import BlockedMatrixTriangleCounter, CountResult
from repro.core.perturbation import DistributedPerturbation
from repro.core.projection import SimilarityProjection, projected_triangle_count
from repro.dp.sensitivity import triangle_sensitivity_unbounded
from repro.graph.datasets import load_dataset
from repro.graph.triangles import count_triangles
from repro.metrics.error import l2_loss


def _pipeline_loss(graph, rows, sensitivity: float, epsilon2: float, seed: int) -> float:
    """Secure count on *rows*, perturb with *sensitivity*, return l2 loss."""
    count = BlockedMatrixTriangleCounter().count(rows, rng=seed)
    perturbation = DistributedPerturbation(
        epsilon2=epsilon2, sensitivity=max(sensitivity, 1.0), num_users=graph.num_nodes
    )
    noisy = perturbation.run(count, rng=seed).noisy_count
    return l2_loss(count_triangles(graph), noisy)


def run_projection_ablation(num_nodes: int = 150, theta: int = 25, epsilon2: float = 1.8, trials: int = 3):
    """Return mean l2 loss for the three projection strategies."""
    graph = load_dataset("facebook", num_nodes=num_nodes)
    losses = {"similarity": [], "random": [], "none": []}
    for seed in range(trials):
        similarity_rows = SimilarityProjection(theta).project_graph(graph).projected_rows
        losses["similarity"].append(_pipeline_loss(graph, similarity_rows, theta, epsilon2, seed))
        random_rows = RandomProjection(theta).project_graph(graph, rng=seed).projected_rows
        losses["random"].append(_pipeline_loss(graph, random_rows, theta, epsilon2, seed))
        losses["none"].append(
            _pipeline_loss(
                graph,
                graph.adjacency_matrix(),
                triangle_sensitivity_unbounded(graph.num_nodes),
                epsilon2,
                seed,
            )
        )
    return {name: float(np.mean(values)) for name, values in losses.items()}


def test_ablation_projection_strategy(benchmark):
    """Similarity projection dominates random projection end to end."""
    results = benchmark.pedantic(run_projection_ablation, rounds=1, iterations=1)
    print()
    for name, loss in results.items():
        print(f"  projection={name:<11} mean l2 loss = {loss:.3e}")
    assert results["similarity"] <= results["random"]
