"""Tests for repro.core.backends — the registry and the blocked backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backends import (
    BlockedMatrixTriangleCounter,
    FaithfulTriangleCounter,
    TriangleCounterBackend,
    available_backends,
    backend_registered,
    create_backend,
    register_backend,
    unregister_backend,
)
from repro.core.backends.blocked import (
    DEFAULT_BLOCK_SIZE,
    INPUT_LABEL,
    tile_schedule,
)
from repro.core.cargo import Cargo
from repro.core.config import CargoConfig, CountingBackend
from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.views import ViewRecorder
from repro.exceptions import ConfigurationError, ProtocolError
from repro.graph.generators import erdos_renyi_graph, powerlaw_cluster_graph
from repro.graph.triangles import count_triangles


class TestRegistry:
    def test_builtins_registered(self):
        assert {"faithful", "batched", "matrix", "blocked"} <= set(available_backends())

    def test_create_by_enum_and_string(self):
        config = CargoConfig()
        by_enum = create_backend(CountingBackend.MATRIX, config=config)
        by_string = create_backend("matrix", config=config)
        assert isinstance(by_enum, BlockedMatrixTriangleCounter)
        assert isinstance(by_string, BlockedMatrixTriangleCounter)

    def test_matrix_is_blocked_at_the_default_tile(self):
        backend = create_backend("matrix", config=CargoConfig(block_size=9))
        assert backend.block_size == DEFAULT_BLOCK_SIZE

    def test_batched_mode_uses_config_batch_size(self):
        backend = create_backend("batched", config=CargoConfig(batch_size=17))
        assert isinstance(backend, FaithfulTriangleCounter)
        assert backend._batch_size == 17

    def test_blocked_uses_config_block_size(self):
        backend = create_backend("blocked", config=CargoConfig(block_size=9))
        assert isinstance(backend, BlockedMatrixTriangleCounter)
        assert backend.block_size == 9

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError):
            create_backend("nonexistent", config=CargoConfig())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_backend("matrix")(BlockedMatrixTriangleCounter)

    def test_third_party_backend_plugs_in(self):
        @register_backend("constant-zero")
        class ConstantZeroCounter(TriangleCounterBackend):
            @classmethod
            def from_config(cls, config, dealer_rng=None, views=None):
                return cls(ring=config.ring, views=views)

            def count_from_shares(self, share1, share2):
                from repro.core.backends.base import CountResult

                return CountResult(
                    share1=0, share2=0, num_triples_processed=0, opening_rounds=0, ring=self.ring
                )

        try:
            assert backend_registered("constant-zero")
            config = CargoConfig(counting_backend="constant-zero")
            # Pass-through keeps the registered name (not an enum member).
            assert config.counting_backend == "constant-zero"
            assert config.backend_name == "constant-zero"
            graph = erdos_renyi_graph(20, 0.3, seed=0)
            result = Cargo(config).run(graph)
            assert result.backend == "constant-zero"
        finally:
            unregister_backend("constant-zero")

    def test_non_backend_class_rejected(self):
        with pytest.raises(ConfigurationError):
            register_backend("bogus")(dict)


class TestBlockedCounting:
    @pytest.mark.parametrize(
        "fixture_name",
        ["triangle_graph", "two_triangle_graph", "star_graph", "complete_graph", "empty_graph"],
    )
    def test_known_graphs(self, fixture_name, request):
        graph = request.getfixturevalue(fixture_name)
        result = BlockedMatrixTriangleCounter(block_size=3).count(
            graph.adjacency_matrix(), rng=0
        )
        assert result.reconstruct() == count_triangles(graph)

    @pytest.mark.parametrize("block_size", [1, 2, 5, 16, 200])
    def test_block_size_does_not_change_count(self, block_size, medium_cluster_graph):
        rows = medium_cluster_graph.adjacency_matrix()
        result = BlockedMatrixTriangleCounter(block_size=block_size).count(rows, rng=1)
        assert result.reconstruct() == count_triangles(medium_cluster_graph)

    def test_matches_matrix_backend_exactly(self):
        graph = powerlaw_cluster_graph(70, 5, 0.7, seed=2)
        rows = graph.adjacency_matrix()
        matrix = create_backend("matrix", config=CargoConfig()).count(rows, rng=3)
        blocked = BlockedMatrixTriangleCounter(block_size=16).count(rows, rng=3)
        assert blocked.reconstruct() == matrix.reconstruct()
        assert blocked.num_triples_processed == matrix.num_triples_processed

    @pytest.mark.parametrize("block_size", [1, 5, 16, 40, 64])
    def test_one_upload_and_one_packed_opening_at_any_tiling(self, block_size):
        """Unwindowed, every tiling receives the users' masked E once and
        opens F once, each packed to the strict upper triangle: n(n-1)
        elements per role, one of them an opening round."""
        n = 40
        graph = erdos_renyi_graph(n, 0.3, seed=5)
        views = ViewRecorder()
        result = BlockedMatrixTriangleCounter(
            dealer=BeaverTripleDealer(seed=6), block_size=block_size, views=views
        ).count(graph.adjacency_matrix(), rng=6)
        assert result.opening_rounds == 1
        assert result.reconstruct() == count_triangles(graph)
        for server in (1, 2):
            entries = views.view(server).entries
            assert [entry.label for entry in entries] == [INPUT_LABEL, "finish_opening"]
            # E is an upload, not an opening: only F is booked as one.
            assert [entry.label.endswith("_opening") for entry in entries] == [False, True]
            opened = sum(int(np.size(part)) for entry in entries for part in entry.value)
            assert opened == n * (n - 1)

    def test_single_block_degenerates_to_one_round(self):
        graph = erdos_renyi_graph(25, 0.3, seed=5)
        result = BlockedMatrixTriangleCounter(block_size=100).count(
            graph.adjacency_matrix(), rng=6
        )
        assert result.opening_rounds == 1
        assert result.reconstruct() == count_triangles(graph)

    def test_tiny_graph_short_circuits(self):
        result = BlockedMatrixTriangleCounter().count(np.zeros((2, 2), dtype=np.int64), rng=7)
        assert result.reconstruct() == 0
        assert result.opening_rounds == 0

    def test_invalid_block_size(self):
        with pytest.raises(ProtocolError):
            BlockedMatrixTriangleCounter(block_size=0)

    def test_mismatched_shapes_rejected(self):
        counter = BlockedMatrixTriangleCounter()
        with pytest.raises(ProtocolError):
            counter.count_from_shares(
                np.zeros((3, 3), dtype=np.uint64), np.zeros((3, 4), dtype=np.uint64)
            )

    def test_shares_hide_count(self, complete_graph):
        result = BlockedMatrixTriangleCounter(block_size=2).count(
            complete_graph.adjacency_matrix(), rng=8
        )
        assert result.share1 != count_triangles(complete_graph)


class TestBlockedMemoryProfile:
    def test_largest_issue_is_one_user_row_or_one_tile(self):
        """The dealer's largest single issue is one user's row of X or one
        group tile of Y' or Z, so it is O(n + block_size^2), not O(n^2)."""
        n, block_size = 64, 8
        graph = erdos_renyi_graph(n, 0.2, seed=9)
        rows = graph.adjacency_matrix()
        dealer = BeaverTripleDealer(seed=0)
        BlockedMatrixTriangleCounter(dealer=dealer, block_size=block_size).count(
            rows, rng=10
        )
        assert dealer.largest_triple_elements == max(n - 1, block_size**2)
        assert 8 * dealer.largest_triple_elements <= n * n

    def test_dealer_deals_each_mask_once_per_run(self):
        """One X issue per user row (her two row seeds), then one Y', one Z
        and one W issue per group; X and Y' total n(n-1)/2 elements each."""
        n, block_size = 12, 4
        dealer = BeaverTripleDealer(seed=1)
        graph = erdos_renyi_graph(n, 0.4, seed=1)
        BlockedMatrixTriangleCounter(dealer=dealer, block_size=block_size).count(
            graph.adjacency_matrix(), rng=2
        )
        groups = len(tile_schedule(n, block_size))
        pairs = n * (n - 1) // 2
        assert dealer.triples_issued == n + 3 * groups
        # X, Y' and Z cover every pair j < k once; W is one element per group.
        assert dealer.total_triple_elements == 3 * pairs + groups


class TestCargoWithBlockedBackend:
    def test_end_to_end_blocked(self):
        graph = powerlaw_cluster_graph(60, 4, 0.7, seed=11)
        config = CargoConfig(
            epsilon=2.0, seed=12, counting_backend=CountingBackend.BLOCKED, block_size=16
        )
        result = Cargo(config).run(graph)
        assert result.backend == "blocked"
        assert np.isfinite(result.noisy_triangle_count)

    def test_blocked_matches_matrix_end_to_end(self):
        graph = erdos_renyi_graph(40, 0.3, seed=13)
        outputs = set()
        for backend in (CountingBackend.MATRIX, CountingBackend.BLOCKED):
            config = CargoConfig(epsilon=2.0, seed=14, counting_backend=backend, block_size=8)
            outputs.add(round(Cargo(config).run(graph).noisy_triangle_count, 6))
        assert len(outputs) == 1
