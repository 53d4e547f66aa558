"""Tests for repro.core.backends — the registry and the blocked backend."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backends import (
    BlockedMatrixTriangleCounter,
    FaithfulTriangleCounter,
    MatrixTriangleCounter,
    TriangleCounterBackend,
    available_backends,
    backend_registered,
    create_backend,
    register_backend,
    unregister_backend,
)
from repro.core.backends.blocked import FUSED_DEPTH, tile_schedule
from repro.core.cargo import Cargo
from repro.core.config import CargoConfig, CountingBackend
from repro.crypto.beaver import BeaverTripleDealer
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
        assert isinstance(by_enum, MatrixTriangleCounter)
        assert isinstance(by_string, MatrixTriangleCounter)

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
            register_backend("matrix")(MatrixTriangleCounter)

    def test_third_party_backend_plugs_in(self):
        @register_backend("constant-zero")
        class ConstantZeroCounter(TriangleCounterBackend):
            @classmethod
            def from_config(cls, config, dealer_rng=None, views=None):
                return cls(ring=config.ring, views=views)

            def count_from_shares(self, share1, share2):
                from repro.core.backends.base import CountResult

                return CountResult(
                    share1=0, share2=0, num_triples_processed=0, opening_rounds=0
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
        matrix = MatrixTriangleCounter().count(rows, rng=3)
        blocked = BlockedMatrixTriangleCounter(block_size=16).count(rows, rng=3)
        assert blocked.reconstruct() == matrix.reconstruct()
        assert blocked.num_triples_processed == matrix.num_triples_processed

    def test_more_opening_rounds_than_matrix(self, medium_cluster_graph):
        rows = medium_cluster_graph.adjacency_matrix()
        blocked = BlockedMatrixTriangleCounter(block_size=32).count(rows, rng=4)
        assert blocked.opening_rounds > 2

    def test_single_block_degenerates_to_two_rounds(self):
        graph = erdos_renyi_graph(25, 0.3, seed=5)
        result = BlockedMatrixTriangleCounter(block_size=100).count(
            graph.adjacency_matrix(), rng=6
        )
        # One (J, K) tile with one inner product plus one element-wise round.
        assert result.opening_rounds == 2
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
    def test_peak_triple_is_block_sized_not_n_sized(self):
        n, block_size = 64, 8
        graph = erdos_renyi_graph(n, 0.2, seed=9)
        rows = graph.adjacency_matrix()

        monolithic_dealer = BeaverTripleDealer(seed=0)
        MatrixTriangleCounter(dealer=monolithic_dealer).count(rows, rng=10)
        blocked_dealer = BeaverTripleDealer(seed=0)
        BlockedMatrixTriangleCounter(dealer=blocked_dealer, block_size=block_size).count(
            rows, rng=10
        )

        # Monolithic: one triple holding three n x n arrays.
        assert monolithic_dealer.largest_triple_elements == 3 * n * n
        # Blocked: no single triple exceeds one fused range's (b, depth) and
        # (depth, b) masks plus a b x b product.
        assert blocked_dealer.largest_triple_elements <= (
            2 * block_size * max(block_size, FUSED_DEPTH) + block_size * block_size
        )
        assert (
            monolithic_dealer.largest_triple_elements
            >= 4 * blocked_dealer.largest_triple_elements
        )

    def test_fused_triple_does_not_grow_with_n(self):
        """The fused schedule's largest triple is capped by FUSED_DEPTH, not n."""
        block_size = 32

        def largest_triple(n):
            return max(
                (j1 - j0) * (i1 - i0) + (i1 - i0) * (k1 - k0) + (j1 - j0) * (k1 - k0)
                for j0, j1, k0, k1, i_tiles in tile_schedule(n, block_size)
                for i0, i1 in i_tiles
            )

        bound = 2 * block_size * max(block_size, FUSED_DEPTH) + block_size**2
        sizes = [largest_triple(n) for n in (64, 1024, 4096)]
        assert all(size <= bound for size in sizes)
        assert sizes[1] == sizes[2] == bound

    def test_fused_schedule_round_totals(self):
        """One round per fused I range plus the element-wise finish, per group."""

        def rounds(n, block_size):
            return sum(len(group[4]) + 1 for group in tile_schedule(n, block_size))

        assert rounds(1024, 128) == 106
        assert rounds(512, 64) == 82

    def test_dealer_issues_one_triple_per_tile(self):
        """The blocked backend draws tile triples on demand, never upfront."""
        dealer = BeaverTripleDealer(seed=1)
        graph = erdos_renyi_graph(12, 0.4, seed=1)
        result = BlockedMatrixTriangleCounter(dealer=dealer, block_size=4).count(
            graph.adjacency_matrix(), rng=2
        )
        # One triple per opening round (matrix tiles + element-wise tiles).
        assert dealer.triples_issued == result.opening_rounds


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
