"""Edge-case tests for the ``blocked`` backend's tile geometry.

The tiled evaluation must be bit-identical to the monolithic ``matrix``
backend for every tiling of the index space, including the degenerate ones:
single-element tiles (``block_size=1``), one tile covering everything
(``block_size > n``), and ragged final tiles (``n`` not divisible by
``block_size``).
"""

from __future__ import annotations

import pytest

from repro.core.backends.blocked import BlockedMatrixTriangleCounter
from repro.graph.generators import erdos_renyi_graph
from repro.graph.triangles import count_triangles


def _counts(graph, block_size, seed):
    """Reconstructed (blocked, matrix) counts on identical plaintext rows."""
    rows = graph.adjacency_matrix()
    blocked = BlockedMatrixTriangleCounter(block_size=block_size).count(rows, rng=seed)
    matrix = BlockedMatrixTriangleCounter().count(rows, rng=seed)
    return blocked.reconstruct(), matrix.reconstruct()


class TestBlockedTileGeometry:
    def test_block_size_one(self, small_random_graph):
        blocked, matrix = _counts(small_random_graph, block_size=1, seed=0)
        assert blocked == matrix == count_triangles(small_random_graph)

    def test_block_size_larger_than_n(self, small_random_graph):
        n = small_random_graph.num_nodes
        blocked, matrix = _counts(small_random_graph, block_size=n + 13, seed=1)
        assert blocked == matrix == count_triangles(small_random_graph)

    def test_block_size_equal_to_n(self, small_random_graph):
        n = small_random_graph.num_nodes
        blocked, matrix = _counts(small_random_graph, block_size=n, seed=2)
        assert blocked == matrix == count_triangles(small_random_graph)

    @pytest.mark.parametrize("block_size", [7, 11, 13])
    def test_ragged_final_tile(self, block_size):
        # 30 is not divisible by 7, 11, or 13, so the last tile is partial in
        # every dimension of the (I, J, K) tile loop.
        graph = erdos_renyi_graph(30, 0.35, seed=9)
        blocked, matrix = _counts(graph, block_size=block_size, seed=3)
        assert blocked == matrix == count_triangles(graph)

    @pytest.mark.parametrize("num_nodes", [1, 2, 3, 4])
    def test_tiny_graphs_with_tiny_blocks(self, num_nodes):
        graph = erdos_renyi_graph(num_nodes, 0.9, seed=4)
        blocked, matrix = _counts(graph, block_size=1, seed=5)
        assert blocked == matrix == count_triangles(graph)

    def test_block_size_one_on_complete_graph(self, complete_graph):
        blocked, matrix = _counts(complete_graph, block_size=1, seed=6)
        assert blocked == matrix == 20

    def test_ragged_tiles_on_triangle_free_graph(self, star_graph):
        blocked, matrix = _counts(star_graph, block_size=3, seed=7)
        assert blocked == matrix == 0
