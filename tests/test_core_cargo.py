"""Tests for repro.core.cargo — the end-to-end protocol (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cargo import Cargo, protocol_rngs
from repro.core.config import CargoConfig, CountingBackend
from repro.graph.datasets import load_dataset
from repro.graph.generators import erdos_renyi_graph, powerlaw_cluster_graph
from repro.graph.triangles import count_triangles
from repro.utils.rng import derive_rng, spawn_rngs


class TestCargoEndToEnd:
    def test_estimate_close_to_truth_at_moderate_epsilon(self):
        graph = load_dataset("facebook", num_nodes=150)
        result = Cargo(CargoConfig(epsilon=2.0, seed=0)).run(graph)
        assert result.true_triangle_count == count_triangles(graph)
        assert result.relative_error < 0.2

    def test_result_fields_consistent(self):
        graph = powerlaw_cluster_graph(80, 4, 0.6, seed=1)
        result = Cargo(CargoConfig(epsilon=2.0, seed=1)).run(graph)
        assert result.epsilon == pytest.approx(2.0)
        assert result.epsilon1 == pytest.approx(0.2)
        assert result.epsilon2 == pytest.approx(1.8)
        assert result.projected_triangle_count <= result.true_triangle_count
        assert result.projection_loss >= 0
        assert result.l2_loss == pytest.approx(
            (result.true_triangle_count - result.noisy_triangle_count) ** 2
        )
        assert result.backend == "matrix"

    def test_timings_recorded(self):
        graph = erdos_renyi_graph(50, 0.2, seed=2)
        result = Cargo(CargoConfig(epsilon=1.0, seed=2)).run(graph)
        assert {"total", "max", "project", "count", "perturb"} <= set(result.timings)
        assert result.timings["total"] >= result.timings["count"]

    def test_deterministic_given_seed(self):
        graph = erdos_renyi_graph(40, 0.3, seed=3)
        first = Cargo(CargoConfig(epsilon=2.0, seed=42)).run(graph)
        second = Cargo(CargoConfig(epsilon=2.0, seed=42)).run(graph)
        assert first.noisy_triangle_count == second.noisy_triangle_count

    def test_different_seeds_differ(self):
        graph = erdos_renyi_graph(40, 0.3, seed=4)
        first = Cargo(CargoConfig(epsilon=2.0, seed=1)).run(graph)
        second = Cargo(CargoConfig(epsilon=2.0, seed=2)).run(graph)
        assert first.noisy_triangle_count != second.noisy_triangle_count

    def test_default_config(self):
        graph = erdos_renyi_graph(30, 0.3, seed=5)
        result = Cargo().run(graph)
        assert np.isfinite(result.noisy_triangle_count)

    def test_zero_triangle_graph(self, star_graph):
        result = Cargo(CargoConfig(epsilon=2.0, seed=6)).run(star_graph)
        assert result.true_triangle_count == 0
        assert result.relative_error == float("inf")

    def test_communication_tracking(self):
        graph = erdos_renyi_graph(20, 0.3, seed=7)
        result = Cargo(CargoConfig(epsilon=2.0, seed=7, track_communication=True)).run(graph)
        assert result.communication  # ledger has per-channel entries
        total_messages = sum(entry["messages"] for entry in result.communication.values())
        assert total_messages >= 20  # at least one message per user

    def test_views_recorded_when_requested(self):
        graph = erdos_renyi_graph(15, 0.3, seed=8)
        cargo = Cargo(CargoConfig(epsilon=2.0, seed=8, record_views=True))
        cargo.run(graph)
        assert cargo.views is not None
        assert len(cargo.views.view(1)) > 0


class TestBackends:
    def test_all_backends_agree_on_projected_count(self):
        graph = erdos_renyi_graph(14, 0.4, seed=9)
        estimates = {}
        for backend in (
            CountingBackend.MATRIX,
            CountingBackend.BATCHED,
            CountingBackend.FAITHFUL,
            CountingBackend.BLOCKED,
        ):
            config = CargoConfig(epsilon=2.0, seed=11, counting_backend=backend, block_size=4)
            result = Cargo(config).run(graph)
            estimates[backend] = result
        # Same seed -> same Max/projection/noise, so the final outputs agree
        # regardless of the secure counting backend.
        values = [round(result.noisy_triangle_count, 6) for result in estimates.values()]
        assert len(set(values)) == 1

    def test_backend_name_reported(self):
        graph = erdos_renyi_graph(12, 0.4, seed=10)
        result = Cargo(CargoConfig(epsilon=2.0, seed=12, counting_backend="batched")).run(graph)
        assert result.backend == "batched"


class TestUtilityTrends:
    def test_error_decreases_with_epsilon(self):
        graph = load_dataset("wiki", num_nodes=150)
        errors = {}
        for epsilon in (0.5, 4.0):
            trials = [
                Cargo(CargoConfig(epsilon=epsilon, seed=seed)).run(graph).l2_loss
                for seed in range(4)
            ]
            errors[epsilon] = np.mean(trials)
        assert errors[4.0] < errors[0.5]

    def test_projection_loss_zero_when_dmax_not_exceeded(self):
        graph = erdos_renyi_graph(60, 0.1, seed=13)
        # With a generous epsilon the noisy max degree rarely dips below d_max.
        result = Cargo(CargoConfig(epsilon=20.0, seed=13)).run(graph)
        assert result.projection_loss == 0


class TestProtocolRngs:
    """One release's four substreams: degree noise, share masks, Perturb noise, dealer."""

    @staticmethod
    def _draws(rngs):
        return [rng.integers(0, 1 << 62, size=4).tolist() for rng in rngs]

    def test_four_substreams_spawned_from_the_seed(self):
        rngs = protocol_rngs(CargoConfig(epsilon=1.0, seed=3))
        assert len(rngs) == 4
        assert self._draws(rngs) == self._draws(spawn_rngs(derive_rng(3), 4))

    def test_substreams_are_pairwise_distinct(self):
        draws = self._draws(protocol_rngs(CargoConfig(epsilon=1.0, seed=3)))
        assert len({tuple(draw) for draw in draws}) == 4

    def test_each_seed_deals_from_its_own_dealer_substream(self):
        *_, dealer = protocol_rngs(CargoConfig(epsilon=1.0, seed=3))
        *_, again = protocol_rngs(CargoConfig(epsilon=1.0, seed=3))
        *_, other = protocol_rngs(CargoConfig(epsilon=1.0, seed=4))
        drawn = dealer.integers(0, 1 << 62, size=4).tolist()
        assert drawn == again.integers(0, 1 << 62, size=4).tolist()
        assert drawn != other.integers(0, 1 << 62, size=4).tolist()
