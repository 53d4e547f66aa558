"""Tests for repro.core.node_dp — the Node-DP extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cargo import Cargo
from repro.core.config import CargoConfig
from repro.core.node_dp import NodeDpCargo, NodeDpMaxDegreeEstimator, edge_vs_node_dp_gap
from repro.graph.datasets import load_dataset
from repro.graph.generators import powerlaw_cluster_graph


class TestNodeDpMaxDegree:
    def test_sensitivity_is_n_minus_one(self):
        estimator = NodeDpMaxDegreeEstimator(epsilon1=1.0, num_users=101)
        assert estimator.sensitivity == 100.0

    def test_noisier_than_edge_dp(self):
        from repro.core.max_degree import MaxDegreeEstimator

        degrees = [20] * 80
        node_devs = []
        edge_devs = []
        for seed in range(20):
            node = NodeDpMaxDegreeEstimator(epsilon1=1.0, num_users=80).run(degrees, rng=seed)
            edge = MaxDegreeEstimator(epsilon1=1.0).run(degrees, rng=seed)
            node_devs.append(abs(node.noisy_max_degree - 20))
            edge_devs.append(abs(edge.noisy_max_degree - 20))
        assert np.mean(node_devs) > np.mean(edge_devs)

    def test_empty_degrees(self):
        result = NodeDpMaxDegreeEstimator(epsilon1=1.0, num_users=0).run([], rng=0)
        assert result.noisy_max_degree == 1.0

    def test_clamped_to_n_minus_one(self):
        result = NodeDpMaxDegreeEstimator(epsilon1=0.01, num_users=10).run([3] * 10, rng=1)
        assert result.noisy_max_degree <= 9.0


class TestNodeDpCargo:
    def test_runs_and_reports_backend(self):
        graph = powerlaw_cluster_graph(60, 4, 0.6, seed=0)
        result = NodeDpCargo(CargoConfig(epsilon=2.0, seed=0)).run(graph)
        assert result.backend.startswith("node-dp/")
        assert np.isfinite(result.noisy_triangle_count)
        assert result.true_triangle_count > 0

    def test_deterministic_given_seed(self):
        graph = powerlaw_cluster_graph(50, 3, 0.6, seed=1)
        a = NodeDpCargo(CargoConfig(epsilon=2.0, seed=5)).run(graph)
        b = NodeDpCargo(CargoConfig(epsilon=2.0, seed=5)).run(graph)
        assert a.noisy_triangle_count == b.noisy_triangle_count

    def test_node_dp_noisier_than_edge_dp(self):
        """The utility gap that motivates the paper's Edge-DP choice."""
        graph = load_dataset("facebook", num_nodes=120)
        node_losses = []
        edge_losses = []
        for seed in range(3):
            config = CargoConfig(epsilon=2.0, seed=seed)
            node_losses.append(NodeDpCargo(config).run(graph).l2_loss)
            edge_losses.append(Cargo(config).run(graph).l2_loss)
        assert np.mean(node_losses) > np.mean(edge_losses)

    def test_gap_helper(self):
        graph = powerlaw_cluster_graph(60, 4, 0.6, seed=2)
        gap = edge_vs_node_dp_gap(graph, epsilon=2.0, seed=3)
        assert set(gap) == {"edge_dp_l2", "node_dp_l2", "edge_dp_result", "node_dp_result"}
        assert gap["node_dp_l2"] >= 0 and gap["edge_dp_l2"] >= 0

    def test_timings_recorded(self):
        graph = powerlaw_cluster_graph(40, 3, 0.6, seed=4)
        result = NodeDpCargo(CargoConfig(epsilon=2.0, seed=6)).run(graph)
        assert {"max", "project", "count", "perturb", "total"} <= set(result.timings)

    def test_communication_equals_edge_dp(self):
        """Node DP changes sensitivities only: the ledger is Edge DP's."""
        graph = powerlaw_cluster_graph(40, 3, 0.6, seed=5)
        config = CargoConfig(epsilon=2.0, seed=7, track_communication=True)
        node = NodeDpCargo(config).run(graph)
        edge = Cargo(config).run(graph)
        assert node.communication and node.communication == edge.communication
        assert node.communication_phases == edge.communication_phases

    def test_records_views(self):
        graph = powerlaw_cluster_graph(30, 3, 0.6, seed=6)
        config = CargoConfig(epsilon=2.0, seed=8, record_views=True)
        node_cargo = NodeDpCargo(config)
        node_cargo.run(graph)
        edge_cargo = Cargo(config)
        edge_cargo.run(graph)
        for server in (1, 2):
            node_values = node_cargo.views.view(server).values()
            assert node_values
            assert len(node_values) == len(edge_cargo.views.view(server).values())
