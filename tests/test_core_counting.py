"""Tests for the faithful `Count` backend (Algorithm 4, repro.core.backends.faithful)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backends import (
    FaithfulTriangleCounter,
    iter_candidate_triples,
    share_adjacency_rows,
)
from repro.crypto.ring import Ring
from repro.crypto.sharing import reconstruct_vector
from repro.exceptions import ProtocolError
from repro.graph.generators import erdos_renyi_graph
from repro.graph.triangles import count_triangles


class TestShareAdjacencyRows:
    def test_shares_reconstruct_to_rows(self, triangle_graph):
        rows = triangle_graph.adjacency_matrix()
        share1, share2 = share_adjacency_rows(rows, rng=0)
        upper = rows[np.triu_indices(rows.shape[0], 1)].astype(np.uint64)
        assert np.array_equal(reconstruct_vector(share1, share2), upper)

    def test_single_share_hides_rows(self, triangle_graph):
        rows = triangle_graph.adjacency_matrix()
        share1, _ = share_adjacency_rows(rows, rng=1)
        upper = rows[np.triu_indices(rows.shape[0], 1)].astype(np.uint64)
        assert share1.shape == upper.shape
        assert not np.array_equal(share1, upper)

    def test_rejects_non_square(self):
        with pytest.raises(ProtocolError):
            share_adjacency_rows(np.zeros((2, 3), dtype=np.int64))


class TestCandidateTriples:
    def test_count_matches_binomial(self):
        assert len(list(iter_candidate_triples(6))) == 20

    def test_strictly_increasing(self):
        assert all(i < j < k for i, j, k in iter_candidate_triples(5))

    def test_small_inputs(self):
        assert list(iter_candidate_triples(2)) == []
        assert list(iter_candidate_triples(0)) == []


class TestFaithfulCounting:
    @pytest.mark.parametrize("fixture_name", ["triangle_graph", "two_triangle_graph", "star_graph", "complete_graph"])
    def test_known_graphs(self, fixture_name, request):
        graph = request.getfixturevalue(fixture_name)
        counter = FaithfulTriangleCounter()
        result = counter.count(graph.adjacency_matrix(), rng=0)
        assert result.reconstruct() == count_triangles(graph)

    def test_random_graph(self):
        graph = erdos_renyi_graph(12, 0.4, seed=3)
        result = FaithfulTriangleCounter().count(graph.adjacency_matrix(), rng=1)
        assert result.reconstruct() == count_triangles(graph)

    def test_individual_shares_hide_count(self, complete_graph):
        result = FaithfulTriangleCounter().count(complete_graph.adjacency_matrix(), rng=2)
        true_count = count_triangles(complete_graph)
        assert result.share1 != true_count and result.share2 != true_count

    def test_triples_processed(self, complete_graph):
        result = FaithfulTriangleCounter().count(complete_graph.adjacency_matrix(), rng=3)
        assert result.num_triples_processed == 20
        assert result.opening_rounds == 20  # batch_size=1 -> one round per triple

    def test_batched_mode_matches_scalar_mode(self):
        graph = erdos_renyi_graph(14, 0.35, seed=4)
        rows = graph.adjacency_matrix()
        scalar = FaithfulTriangleCounter(batch_size=1).count(rows, rng=5)
        batched = FaithfulTriangleCounter(batch_size=64).count(rows, rng=5)
        assert scalar.reconstruct() == batched.reconstruct() == count_triangles(graph)
        assert batched.opening_rounds < scalar.opening_rounds

    def test_small_ring_still_correct(self):
        # 16 bits is ample for small counts; exercises the masking paths.
        graph = erdos_renyi_graph(10, 0.5, seed=6)
        counter = FaithfulTriangleCounter(ring=Ring(bits=16), batch_size=8)
        result = counter.count(graph.adjacency_matrix(), rng=7)
        assert result.reconstruct(Ring(bits=16)) == count_triangles(graph)

    def test_invalid_batch_size(self):
        with pytest.raises(ProtocolError):
            FaithfulTriangleCounter(batch_size=0)

    def test_mismatched_share_shapes(self):
        counter = FaithfulTriangleCounter()
        with pytest.raises(ProtocolError):
            counter.count_from_shares(
                np.zeros((3, 3), dtype=np.uint64), np.zeros((4, 4), dtype=np.uint64)
            )

    def test_asymmetric_projected_rows(self):
        """The count follows row-owner semantics exactly like the plaintext oracle."""
        from repro.core.projection import projected_triangle_count

        graph = erdos_renyi_graph(10, 0.5, seed=8)
        rows = graph.adjacency_matrix()
        rows[0, :] = 0  # user 0 reports no neighbours at all
        expected = projected_triangle_count(rows)
        result = FaithfulTriangleCounter(batch_size=16).count(rows, rng=9)
        assert result.reconstruct() == expected


class TestCandidateTripleBlocks:
    def test_blocks_reproduce_scalar_enumeration(self):
        from repro.core.backends.faithful import candidate_triple_blocks

        for num_users in (0, 2, 3, 7, 12):
            for batch_size in (1, 3, 64):
                flat = [
                    (int(i), int(j), int(k))
                    for ii, jj, kk in candidate_triple_blocks(num_users, batch_size)
                    for i, j, k in zip(ii, jj, kk)
                ]
                assert flat == list(iter_candidate_triples(num_users)), (num_users, batch_size)

    def test_all_blocks_full_except_last(self):
        from repro.core.backends.faithful import candidate_triple_blocks

        blocks = list(candidate_triple_blocks(9, 16))  # C(9,3) = 84 triples
        assert [b[0].shape[0] for b in blocks[:-1]] == [16] * (len(blocks) - 1)
        assert sum(b[0].shape[0] for b in blocks) == 84

    def test_invalid_batch_size(self):
        from repro.core.backends.faithful import candidate_triple_blocks

        with pytest.raises(ProtocolError):
            list(candidate_triple_blocks(5, 0))

    def test_num_candidate_triples(self):
        from repro.core.backends.faithful import num_candidate_triples

        assert num_candidate_triples(2) == 0
        assert num_candidate_triples(6) == 20
