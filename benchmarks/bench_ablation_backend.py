"""Ablation — secure counting backend: faithful vs batched vs matrix vs blocked.

All backends compute the identical count; the ablation quantifies the
running-time gap that justifies using the vectorised backends for the
paper-scale experiments while keeping the faithful protocol as the reference.
"""

from __future__ import annotations

import time

from repro.core.backends import BlockedMatrixTriangleCounter, FaithfulTriangleCounter
from repro.graph.datasets import load_dataset


def run_backend_ablation(num_nodes: int = 40):
    """Return (seconds, count) per backend on the same small graph."""
    graph = load_dataset("facebook", num_nodes=num_nodes)
    rows = graph.adjacency_matrix()
    results = {}
    backends = {
        "faithful": FaithfulTriangleCounter(batch_size=1),
        "batched": FaithfulTriangleCounter(batch_size=2048),
        "matrix": BlockedMatrixTriangleCounter(),
        "blocked": BlockedMatrixTriangleCounter(block_size=16),
    }
    for name, counter in backends.items():
        start = time.perf_counter()
        result = counter.count(rows, rng=0)
        results[name] = (time.perf_counter() - start, result.reconstruct())
    return results


def test_ablation_counting_backend(benchmark):
    """Backends agree on the count; the vectorised paths are faster."""
    results = benchmark.pedantic(run_backend_ablation, rounds=1, iterations=1)
    print()
    for name, (seconds, count) in results.items():
        print(f"  backend={name:<9} time = {seconds:8.4f}s  count = {count}")
    counts = {count for _, count in results.values()}
    assert len(counts) == 1
    assert results["matrix"][0] < results["faithful"][0]
    assert results["batched"][0] < results["faithful"][0]
    assert results["blocked"][0] < results["faithful"][0]
