"""Property-based tests (hypothesis) on the core invariants.

These cover the algebraic backbone of the system: ring arithmetic, secret
sharing, the two- and three-way multiplication protocols, exact triangle
counting, and the projection invariants.  Each property is phrased over
arbitrary inputs rather than hand-picked examples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backends import FaithfulTriangleCounter, BlockedMatrixTriangleCounter
from repro.core.projection import SimilarityProjection, projected_triangle_count
from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.multiplication_groups import MultiplicationGroupDealer
from repro.crypto.ring import DEFAULT_RING, Ring
from repro.crypto.secure_ops import secure_multiply_pair, secure_multiply_triple
from repro.crypto.sharing import reconstruct, share_scalar
from repro.dp.discrete_laplace import DistributedDiscreteLaplace
from repro.graph.graph import Graph
from repro.graph.triangles import (
    count_triangles_edge_iterator,
    count_triangles_matrix,
    count_triangles_node_iterator,
)

# Bounded-size strategies keep every example fast.
ring_values = st.integers(min_value=-(2**40), max_value=2**40)
small_bits = st.integers(min_value=4, max_value=64)
edge_lists = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)).filter(lambda e: e[0] != e[1]),
    max_size=40,
)


def graph_from_edges(edges) -> Graph:
    return Graph(12, edges=edges)


class TestRingProperties:
    @given(value=ring_values, bits=small_bits)
    def test_encode_decode_roundtrip(self, value, bits):
        ring = Ring(bits=bits)
        reduced = value % ring.modulus
        signed = reduced - ring.modulus if reduced >= ring.half else reduced
        assert ring.decode_signed(ring.encode(value)) == signed

    @given(a=ring_values, b=ring_values)
    def test_add_sub_inverse(self, a, b):
        ring = DEFAULT_RING
        assert ring.sub(ring.add(a, b), b) == ring.encode(a)

    @given(a=ring_values, b=ring_values, c=ring_values)
    def test_mul_distributes_over_add(self, a, b, c):
        ring = DEFAULT_RING
        left = ring.mul(a, ring.add(b, c))
        right = ring.add(ring.mul(a, b), ring.mul(a, c))
        assert left == right


class TestSharingProperties:
    @given(value=ring_values, seed=st.integers(0, 2**31 - 1))
    def test_share_reconstruct_roundtrip(self, value, seed):
        pair = share_scalar(value, rng=seed)
        assert pair.reconstruct_signed() == value

    @given(value=ring_values, seed=st.integers(0, 2**31 - 1))
    def test_single_share_is_mask(self, value, seed):
        """Share 1 equals the mask and is independent of the secret."""
        pair_a = share_scalar(value, rng=seed)
        pair_b = share_scalar(value + 1, rng=seed)
        assert pair_a.share1 == pair_b.share1  # same mask regardless of secret
        assert pair_a.share2 != pair_b.share2


class TestSecureMultiplicationProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        a=st.integers(0, 2**20), b=st.integers(0, 2**20),
        dealer_seed=st.integers(0, 1000), share_seed=st.integers(0, 1000),
    )
    def test_pair_product(self, a, b, dealer_seed, share_seed):
        dealer = BeaverTripleDealer(seed=dealer_seed)
        a_pair = share_scalar(a, rng=share_seed)
        b_pair = share_scalar(b, rng=share_seed + 1)
        s1, s2 = secure_multiply_pair(
            (a_pair.share1, a_pair.share2), (b_pair.share1, b_pair.share2), dealer.scalar_triple()
        )
        assert reconstruct(s1, s2) == DEFAULT_RING.mul(a, b)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.integers(0, 1), b=st.integers(0, 1), c=st.integers(0, 1),
        dealer_seed=st.integers(0, 1000), share_seed=st.integers(0, 1000),
    )
    def test_triple_product_on_bits(self, a, b, c, dealer_seed, share_seed):
        dealer = MultiplicationGroupDealer(seed=dealer_seed)
        pairs = [share_scalar(v, rng=share_seed + i) for i, v in enumerate((a, b, c))]
        s1, s2 = secure_multiply_triple(
            (pairs[0].share1, pairs[0].share2),
            (pairs[1].share1, pairs[1].share2),
            (pairs[2].share1, pairs[2].share2),
            dealer.scalar_group(),
        )
        assert reconstruct(s1, s2) == a * b * c


class TestTriangleCountingProperties:
    @settings(max_examples=30, deadline=None)
    @given(edges=edge_lists)
    def test_counting_algorithms_agree(self, edges):
        graph = graph_from_edges(edges)
        assert (
            count_triangles_node_iterator(graph)
            == count_triangles_edge_iterator(graph)
            == count_triangles_matrix(graph)
        )

    @settings(max_examples=30, deadline=None)
    @given(edges=edge_lists)
    def test_plaintext_oracle_matches_exact_count_on_symmetric_rows(self, edges):
        graph = graph_from_edges(edges)
        assert projected_triangle_count(graph.adjacency_matrix()) == count_triangles_matrix(graph)

    @settings(max_examples=30, deadline=None)
    @given(edges=edge_lists)
    def test_adding_an_edge_never_decreases_triangles(self, edges):
        graph = graph_from_edges(edges)
        before = count_triangles_edge_iterator(graph)
        candidates = [
            (u, v)
            for u in range(graph.num_nodes)
            for v in range(u + 1, graph.num_nodes)
            if not graph.has_edge(u, v)
        ]
        if candidates:
            graph.add_edge(*candidates[0])
            assert count_triangles_edge_iterator(graph) >= before

    @settings(max_examples=15, deadline=None)
    @given(edges=edge_lists, seed=st.integers(0, 100))
    def test_secure_matrix_count_matches_exact(self, edges, seed):
        graph = graph_from_edges(edges)
        result = BlockedMatrixTriangleCounter().count(graph.adjacency_matrix(), rng=seed)
        assert result.reconstruct() == count_triangles_matrix(graph)

    @settings(max_examples=8, deadline=None)
    @given(edges=edge_lists, seed=st.integers(0, 100))
    def test_secure_batched_count_matches_exact(self, edges, seed):
        graph = graph_from_edges(edges)
        counter = FaithfulTriangleCounter(batch_size=128)
        result = counter.count(graph.adjacency_matrix(), rng=seed)
        assert result.reconstruct() == count_triangles_matrix(graph)


class TestProjectionProperties:
    @settings(max_examples=25, deadline=None)
    @given(edges=edge_lists, theta=st.integers(0, 12))
    def test_projection_bounds_degrees_and_only_deletes(self, edges, theta):
        graph = graph_from_edges(edges)
        result = SimilarityProjection(theta).project_graph(graph)
        assert int(result.projected_rows.sum(axis=1).max(initial=0)) <= max(theta, 0)
        assert np.all(result.projected_rows <= graph.adjacency_matrix())

    @settings(max_examples=25, deadline=None)
    @given(edges=edge_lists)
    def test_projection_identity_when_bound_is_max_degree(self, edges):
        graph = graph_from_edges(edges)
        bound = graph.max_degree()
        result = SimilarityProjection(bound).project_graph(graph)
        assert result.edges_removed == 0

    @settings(max_examples=20, deadline=None)
    @given(edges=edge_lists, theta=st.integers(0, 12))
    def test_projected_count_never_exceeds_true_count(self, edges, theta):
        graph = graph_from_edges(edges)
        result = SimilarityProjection(theta).project_graph(graph)
        assert projected_triangle_count(result.projected_rows) <= count_triangles_matrix(graph)


class TestNoiseProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        num_users=st.integers(1, 200),
        sensitivity=st.floats(0.1, 50.0, allow_nan=False, allow_infinity=False),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_partial_noises_are_integers_of_the_user_count(self, num_users, sensitivity, seed):
        noise = DistributedDiscreteLaplace(
            epsilon=1.0, sensitivity=sensitivity, num_users=num_users
        )
        noises = noise.sample_partial_noises(seed)
        assert noises.shape == (num_users,)
        assert noises.dtype == np.int64
