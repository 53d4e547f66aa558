"""Cross-backend equivalence property suite.

Every registered built-in counting backend must reconstruct the *identical*
projected triangle count from the *same* secret shares: the backends differ
only in how they group the secure multiplications into opening rounds, never
in the arithmetic.  The suite sweeps random graphs across sizes, densities,
and seeds — including asymmetric (projected) rows — and runs each backend's
own users' step on the same rows with the same user randomness: the
share-based backends receive one identical share pair, the mask-once ones
the users' masked input.
"""

from __future__ import annotations

import pytest

import numpy as np

from repro.core.backends import BlockedMatrixTriangleCounter, FaithfulTriangleCounter
from repro.crypto.beaver import BeaverTripleDealer
from repro.core.projection import SimilarityProjection, projected_triangle_count
from repro.graph.generators import erdos_renyi_graph, powerlaw_cluster_graph
from repro.graph.triangles import count_triangles


def _all_backends(block_size: int = 5):
    """One instance of each built-in backend execution strategy."""
    return {
        "faithful": FaithfulTriangleCounter(batch_size=1),
        "batched": FaithfulTriangleCounter(batch_size=64),
        "matrix": BlockedMatrixTriangleCounter(),
        "blocked": BlockedMatrixTriangleCounter(block_size=block_size),
    }


@pytest.mark.parametrize(
    "num_nodes,density,seed",
    [
        (8, 0.2, 0),
        (12, 0.5, 1),
        (15, 0.8, 2),
        (18, 0.3, 3),
        (21, 0.6, 4),
    ],
)
def test_backends_agree_on_random_graphs(num_nodes, density, seed):
    graph = erdos_renyi_graph(num_nodes, density, seed=seed)
    rows = graph.adjacency_matrix()
    expected = count_triangles(graph)
    counts = {
        name: backend.count(rows, rng=seed).reconstruct()
        for name, backend in _all_backends().items()
    }
    assert counts == {name: expected for name in counts}, counts


@pytest.mark.parametrize("seed", [5, 6])
def test_backends_agree_on_clustered_graphs(seed):
    graph = powerlaw_cluster_graph(17, 3, 0.8, seed=seed)
    rows = graph.adjacency_matrix()
    expected = count_triangles(graph)
    for name, backend in _all_backends(block_size=4).items():
        assert backend.count(rows, rng=seed).reconstruct() == expected, name


def test_backends_agree_on_projected_asymmetric_rows():
    """Projection yields asymmetric rows; the backends must still agree."""
    graph = powerlaw_cluster_graph(20, 4, 0.7, seed=7)
    projection = SimilarityProjection(4).project_graph(graph)
    rows = projection.projected_rows
    expected = projected_triangle_count(rows)
    for name, backend in _all_backends(block_size=6).items():
        assert backend.count(rows, rng=8).reconstruct() == expected, name


def test_blocked_equivalence_across_block_sizes():
    """Same masked input, every tiling: the reconstructed count never moves.

    The users' row masks come from the dealer's first sub-dealer whatever
    the tiling, so one dealer seed gives every tiling the same ``E``.
    """
    graph = erdos_renyi_graph(23, 0.4, seed=9)
    rows = graph.adjacency_matrix()
    reference = BlockedMatrixTriangleCounter(dealer=BeaverTripleDealer(seed=10))
    e, _ = reference.upload(rows).inputs
    expected = reference.count_from_shares(e, e).reconstruct()
    assert expected == count_triangles(graph)
    for block_size in (1, 2, 3, 7, 11, 23, 64):
        blocked = BlockedMatrixTriangleCounter(
            dealer=BeaverTripleDealer(seed=10), block_size=block_size
        )
        inputs = blocked.upload(rows).inputs
        assert all(np.array_equal(e, part) for part in inputs), block_size
        assert blocked.count_from_shares(*inputs).reconstruct() == expected, block_size
