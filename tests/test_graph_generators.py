"""Tests for repro.graph.generators."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    random_regular_graph,
    sparse_random_graph,
    stochastic_block_model_graph,
    watts_strogatz_graph,
)
from repro.graph.statistics import global_clustering_coefficient
from repro.graph.triangles import count_triangles


class TestErdosRenyi:
    def test_edge_count_near_expectation(self):
        graph = erdos_renyi_graph(100, 0.1, seed=0)
        expected = 0.1 * 100 * 99 / 2
        assert 0.6 * expected < graph.num_edges < 1.4 * expected

    def test_zero_probability_gives_no_edges(self):
        assert erdos_renyi_graph(50, 0.0, seed=0).num_edges == 0

    def test_unit_probability_gives_complete_graph(self):
        graph = erdos_renyi_graph(10, 1.0, seed=0)
        assert graph.num_edges == 45

    def test_deterministic_with_seed(self):
        a = erdos_renyi_graph(30, 0.2, seed=9)
        b = erdos_renyi_graph(30, 0.2, seed=9)
        assert a == b

    def test_invalid_probability(self):
        with pytest.raises(ConfigurationError):
            erdos_renyi_graph(10, 1.5)

    def test_tiny_graphs(self):
        assert erdos_renyi_graph(0, 0.5, seed=0).num_nodes == 0
        assert erdos_renyi_graph(1, 0.5, seed=0).num_edges == 0


class TestBarabasiAlbert:
    def test_node_and_minimum_degree(self):
        graph = barabasi_albert_graph(100, 3, seed=1)
        assert graph.num_nodes == 100
        assert min(graph.degrees()) >= 1
        # Every node added after the seed star contributes exactly m edges.
        assert graph.num_edges >= 3 * (100 - 4)

    def test_heavy_tail(self):
        graph = barabasi_albert_graph(200, 2, seed=2)
        degrees = sorted(graph.degrees(), reverse=True)
        assert degrees[0] > 3 * (2 * graph.num_edges / graph.num_nodes)

    def test_requires_enough_nodes(self):
        with pytest.raises(ConfigurationError):
            barabasi_albert_graph(3, 3)


class TestPowerlawCluster:
    def test_produces_many_triangles(self):
        clustered = powerlaw_cluster_graph(150, 4, 0.9, seed=3)
        unclustered = barabasi_albert_graph(150, 4, seed=3)
        assert count_triangles(clustered) > count_triangles(unclustered)

    def test_clustering_coefficient_substantial(self):
        graph = powerlaw_cluster_graph(200, 5, 0.8, seed=4)
        assert global_clustering_coefficient(graph) > 0.05

    def test_deterministic_with_seed(self):
        assert powerlaw_cluster_graph(60, 3, 0.5, seed=5) == powerlaw_cluster_graph(60, 3, 0.5, seed=5)

    def test_invalid_triangle_probability(self):
        with pytest.raises(ConfigurationError):
            powerlaw_cluster_graph(50, 3, 1.5)


class TestWattsStrogatz:
    def test_degree_regular_without_rewiring(self):
        graph = watts_strogatz_graph(30, 4, 0.0, seed=6)
        assert all(degree == 4 for degree in graph.degrees())

    def test_rewiring_preserves_edge_count(self):
        graph = watts_strogatz_graph(30, 4, 0.3, seed=6)
        assert graph.num_edges == 30 * 4 // 2

    def test_odd_k_rejected(self):
        with pytest.raises(ConfigurationError):
            watts_strogatz_graph(10, 3, 0.1)

    def test_k_too_large_rejected(self):
        with pytest.raises(ConfigurationError):
            watts_strogatz_graph(4, 4, 0.1)


class TestStochasticBlockModel:
    def test_block_structure(self):
        graph = stochastic_block_model_graph([20, 20], 0.5, 0.01, seed=7)
        intra = sum(1 for u, v in graph.edges() if (u < 20) == (v < 20))
        inter = graph.num_edges - intra
        assert intra > inter

    def test_invalid_block_size(self):
        with pytest.raises(ConfigurationError):
            stochastic_block_model_graph([10, 0], 0.5, 0.1)


class TestRandomRegular:
    def test_degrees_constant(self):
        graph = random_regular_graph(20, 4, seed=8)
        assert all(degree == 4 for degree in graph.degrees())

    @pytest.mark.parametrize(
        "num_nodes, degree, seed", [(14, 6, 6), (14, 5, 1), (14, 5, 3), (14, 12, 0), (60, 9, 2)]
    )
    def test_moderate_degrees_are_simple_and_regular(self, num_nodes, degree, seed):
        graph = random_regular_graph(num_nodes, degree, seed=seed)
        # A merged repeated pair would leave its endpoints short of degree.
        assert all(u != v for u, v in graph.edges())
        assert all(d == degree for d in graph.degrees())

    def test_same_seed_same_graph(self):
        first = random_regular_graph(30, 6, seed=4)
        assert sorted(first.edges()) == sorted(random_regular_graph(30, 6, seed=4).edges())

    def test_odd_product_rejected(self):
        with pytest.raises(ConfigurationError):
            random_regular_graph(5, 3)

    def test_degree_too_large_rejected(self):
        with pytest.raises(ConfigurationError):
            random_regular_graph(4, 4)


class TestSparseRandomGraph:
    def test_exact_edge_count(self):
        graph = sparse_random_graph(500, 1500, seed=0)
        assert graph.num_nodes == 500
        assert graph.num_edges == 1500

    def test_deterministic_with_seed(self):
        a = sparse_random_graph(200, 600, seed=4)
        b = sparse_random_graph(200, 600, seed=4)
        assert a == b

    def test_simple_graph_invariants(self):
        graph = sparse_random_graph(100, 300, seed=2)
        for u, v in graph.edges():
            assert u != v
        assert len(set(graph.edges())) == graph.num_edges

    def test_zero_edges_and_empty_graph(self):
        assert sparse_random_graph(10, 0, seed=1).num_edges == 0
        assert sparse_random_graph(0, 0, seed=1).num_nodes == 0

    def test_dense_request_saturates(self):
        # num_edges == C(n, 2): rejection sampling must still terminate.
        graph = sparse_random_graph(12, 66, seed=3)
        assert graph.num_edges == 66

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            sparse_random_graph(-1, 0)
        with pytest.raises(ConfigurationError):
            sparse_random_graph(10, -1)
        with pytest.raises(ConfigurationError):
            sparse_random_graph(10, 46)  # > C(10, 2)
