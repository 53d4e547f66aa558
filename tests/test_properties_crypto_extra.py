"""Additional property-based tests for the crypto substrate and datasets."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.ring import DEFAULT_RING, Ring
from repro.crypto.secure_ops import secure_matrix_multiply
from repro.crypto.sharing import reconstruct_vector, share_vector
from repro.graph.datasets import load_dataset


class TestRingMatmulProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        rows=st.integers(1, 6),
        inner=st.integers(1, 6),
        cols=st.integers(1, 6),
        bits=st.sampled_from([16, 32, 64]),
    )
    def test_matmul_matches_object_precision(self, seed, rows, inner, cols, bits):
        ring = Ring(bits=bits)
        rng = np.random.default_rng(seed)
        a = ring.random_array((rows, inner), rng)
        b = ring.random_array((inner, cols), rng)
        expected = (a.astype(object) @ b.astype(object)) % ring.modulus
        assert np.array_equal(ring.matmul(a, b).astype(object), expected)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(1, 5))
    def test_matmul_identity(self, seed, n):
        ring = DEFAULT_RING
        a = ring.random_array((n, n), np.random.default_rng(seed))
        identity = np.eye(n, dtype=ring.dtype)
        assert np.array_equal(ring.matmul(a, identity), a)


class TestSecureMatrixProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 500),
        rows=st.integers(1, 5),
        inner=st.integers(1, 5),
        cols=st.integers(1, 5),
    )
    def test_secure_product_matches_plaintext(self, seed, rows, inner, cols):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 7, size=(rows, inner))
        b = rng.integers(0, 7, size=(inner, cols))
        dealer = BeaverTripleDealer(seed=seed)
        a_pair = share_vector(a, rng=seed + 1)
        b_pair = share_vector(b, rng=seed + 2)
        triple = dealer.matrix_triple((rows, inner), (inner, cols))
        s1, s2 = secure_matrix_multiply(
            (a_pair.share1, a_pair.share2), (b_pair.share1, b_pair.share2), triple
        )
        assert np.array_equal(reconstruct_vector(s1, s2), (a @ b).astype(np.uint64))


class TestDatasetProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        name=st.sampled_from(["facebook", "wiki", "grqc", "hepth"]),
        num_nodes=st.integers(40, 120),
    )
    def test_dataset_generation_is_deterministic_and_simple(self, name, num_nodes):
        first = load_dataset(name, num_nodes=num_nodes)
        second = load_dataset(name, num_nodes=num_nodes)
        assert first == second
        assert first.num_nodes == num_nodes
        # Simple graph invariants: no self loops, symmetric adjacency.
        matrix = first.adjacency_matrix()
        assert np.all(np.diag(matrix) == 0)
        assert np.array_equal(matrix, matrix.T)
