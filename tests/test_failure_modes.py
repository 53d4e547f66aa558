"""Failure-injection and degenerate-input tests.

Production use means surviving the inputs nobody advertises: empty graphs,
single users, exhausted budgets, misrouted protocol messages, and oversized
degree bounds.  These tests pin down the behaviour (graceful result or a
library-specific exception — never a bare numpy error or a silent wrong
answer).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.central_lap import CentralLaplaceTriangleCounting
from repro.baselines.local_two_rounds import LocalTwoRoundsTriangleCounting
from repro.core.cargo import Cargo
from repro.core.config import CargoConfig
from repro.core.backends import FaithfulTriangleCounter, MatrixTriangleCounter
from repro.core.projection import SimilarityProjection
from repro.crypto.protocol import TwoServerRuntime
from repro.exceptions import (
    BudgetExhaustedError,
    ProtocolError,
    ReproError,
)
from repro.dp.accountant import PrivacyAccountant
from repro.graph.graph import Graph


class TestDegenerateGraphs:
    def test_cargo_on_empty_graph(self):
        result = Cargo(CargoConfig(epsilon=2.0, seed=0)).run(Graph(0))
        assert result.true_triangle_count == 0
        assert np.isfinite(result.noisy_triangle_count)

    def test_cargo_on_single_node(self):
        result = Cargo(CargoConfig(epsilon=2.0, seed=1)).run(Graph(1))
        assert result.true_triangle_count == 0

    def test_cargo_on_two_nodes(self):
        result = Cargo(CargoConfig(epsilon=2.0, seed=2)).run(Graph(2, edges=[(0, 1)]))
        assert result.true_triangle_count == 0

    def test_central_baseline_on_edgeless_graph(self):
        result = CentralLaplaceTriangleCounting(epsilon=1.0).run(Graph(5), rng=3)
        assert result.true_triangle_count == 0

    def test_local_baseline_on_tiny_graph(self):
        result = LocalTwoRoundsTriangleCounting(epsilon=1.0).run(Graph(3, edges=[(0, 1)]), rng=4)
        assert np.isfinite(result.noisy_triangle_count)

    def test_projection_with_zero_bound(self, medium_cluster_graph):
        result = SimilarityProjection(0).project_graph(medium_cluster_graph)
        assert int(result.projected_rows.sum()) == 0

    def test_counters_on_empty_share_matrices(self):
        empty = np.zeros((0, 0), dtype=np.uint64)
        assert MatrixTriangleCounter().count_from_shares(empty, empty).reconstruct() == 0
        assert FaithfulTriangleCounter().count_from_shares(empty, empty).reconstruct() == 0


class TestBudgetExhaustion:
    def test_loop_of_queries_hits_the_wall(self):
        accountant = PrivacyAccountant(total_budget=1.0)
        with pytest.raises(BudgetExhaustedError):
            for _ in range(20):
                accountant.spend(0.1, "query")
        # Exactly ten spends of 0.1 fit in the budget before the failure.
        assert accountant.spent == pytest.approx(1.0)

    def test_failed_spend_does_not_consume_budget(self):
        accountant = PrivacyAccountant(total_budget=0.5)
        accountant.spend(0.4)
        with pytest.raises(BudgetExhaustedError):
            accountant.spend(0.2)
        assert accountant.remaining == pytest.approx(0.1)


class TestProtocolMisuse:
    def test_message_to_wrong_server_is_rejected(self):
        runtime = TwoServerRuntime(1)
        runtime.user_to_server(0, 1).send("share", 5)
        with pytest.raises(ProtocolError):
            runtime.server(2).receive()

    def test_unknown_channel_is_rejected(self):
        runtime = TwoServerRuntime(2)
        with pytest.raises(ProtocolError):
            runtime._channel("user-0", "user-1")  # users have no direct channel

    def test_all_library_errors_share_a_base(self):
        with pytest.raises(ReproError):
            TwoServerRuntime(-5)
        with pytest.raises(ReproError):
            SimilarityProjection(-1)
        with pytest.raises(ReproError):
            CargoConfig(epsilon=-1)


class TestExtremeParameters:
    def test_huge_degree_bound_is_a_noop(self, medium_cluster_graph):
        result = SimilarityProjection(10**9).project_graph(medium_cluster_graph)
        assert result.edges_removed == 0

    def test_tiny_epsilon_still_produces_finite_output(self):
        graph = Graph(12, edges=[(i, (i + 1) % 12) for i in range(12)])
        result = Cargo(CargoConfig(epsilon=1e-3, seed=5)).run(graph)
        assert np.isfinite(result.noisy_triangle_count)

    def test_large_epsilon_recovers_exact_count(self, medium_cluster_graph):
        result = Cargo(CargoConfig(epsilon=1e4, seed=6)).run(medium_cluster_graph)
        assert result.noisy_triangle_count == pytest.approx(
            result.true_triangle_count, rel=0.01
        )
