"""Tests for the matrix backend of `Count` (repro.core.backends.matrix)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backends import FaithfulTriangleCounter, MatrixTriangleCounter
from repro.core.projection import SimilarityProjection, projected_triangle_count
from repro.exceptions import ProtocolError
from repro.graph.generators import erdos_renyi_graph, powerlaw_cluster_graph
from repro.graph.triangles import count_triangles


class TestMatrixCounting:
    @pytest.mark.parametrize("fixture_name", ["triangle_graph", "two_triangle_graph", "star_graph", "complete_graph", "empty_graph"])
    def test_known_graphs(self, fixture_name, request):
        graph = request.getfixturevalue(fixture_name)
        result = MatrixTriangleCounter().count(graph.adjacency_matrix(), rng=0)
        assert result.reconstruct() == count_triangles(graph)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graphs(self, seed):
        graph = erdos_renyi_graph(40, 0.25, seed=seed)
        result = MatrixTriangleCounter().count(graph.adjacency_matrix(), rng=seed)
        assert result.reconstruct() == count_triangles(graph)

    def test_larger_clustered_graph(self, medium_cluster_graph):
        result = MatrixTriangleCounter().count(medium_cluster_graph.adjacency_matrix(), rng=3)
        assert result.reconstruct() == count_triangles(medium_cluster_graph)

    def test_two_opening_rounds_only(self, medium_cluster_graph):
        result = MatrixTriangleCounter().count(medium_cluster_graph.adjacency_matrix(), rng=4)
        assert result.opening_rounds == 2

    def test_tiny_graph_short_circuits(self):
        result = MatrixTriangleCounter().count(np.zeros((2, 2), dtype=np.int64), rng=5)
        assert result.reconstruct() == 0
        assert result.opening_rounds == 0

    def test_shares_hide_count(self, complete_graph):
        result = MatrixTriangleCounter().count(complete_graph.adjacency_matrix(), rng=6)
        assert result.share1 != count_triangles(complete_graph)

    def test_mismatched_shapes_rejected(self):
        counter = MatrixTriangleCounter()
        with pytest.raises(ProtocolError):
            counter.count_from_shares(
                np.zeros((3, 3), dtype=np.uint64), np.zeros((3, 4), dtype=np.uint64)
            )


class TestBackendEquivalence:
    def test_matches_faithful_backend(self):
        graph = erdos_renyi_graph(13, 0.4, seed=7)
        rows = graph.adjacency_matrix()
        faithful = FaithfulTriangleCounter(batch_size=32).count(rows, rng=8)
        matrix = MatrixTriangleCounter().count(rows, rng=8)
        assert faithful.reconstruct() == matrix.reconstruct()

    def test_matches_plaintext_on_projected_rows(self):
        graph = powerlaw_cluster_graph(60, 4, 0.7, seed=9)
        projection = SimilarityProjection(6).project_graph(graph)
        rows = projection.projected_rows
        expected = projected_triangle_count(rows)
        result = MatrixTriangleCounter().count(rows, rng=10)
        assert result.reconstruct() == expected

    def test_asymmetric_rows(self):
        graph = erdos_renyi_graph(15, 0.4, seed=11)
        rows = graph.adjacency_matrix()
        rows[3, :] = 0
        rows[7, 2] = 0
        expected = projected_triangle_count(rows)
        assert MatrixTriangleCounter().count(rows, rng=12).reconstruct() == expected
