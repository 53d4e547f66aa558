"""Tests for repro.crypto.secure_ops: correctness of the secure protocols."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.multiplication_groups import MultiplicationGroupDealer
from repro.crypto.ring import DEFAULT_RING, Ring, int64_matmul
from repro.crypto.secure_ops import (
    beaver_matrix_combine,
    beaver_pair_combine,
    multiplication_group_combine,
    secure_add,
    secure_matrix_multiply,
    secure_multiply_pair,
    secure_multiply_triple,
)
from repro.crypto.sharing import reconstruct, reconstruct_vector, share_scalar, share_vector
from repro.exceptions import ProtocolError
from repro.parallel import WorkerPool


class TestSecureAdd:
    def test_addition_of_shared_values(self):
        a = share_scalar(10, rng=0)
        b = share_scalar(-3, rng=1)
        s1, s2 = secure_add((a.share1, a.share2), (b.share1, b.share2))
        assert reconstruct(s1, s2, signed=True) == 7

    def test_vector_addition(self):
        a = share_vector(np.array([1, 2, 3]), rng=0)
        b = share_vector(np.array([10, 20, 30]), rng=1)
        s1, s2 = secure_add((a.share1, a.share2), (b.share1, b.share2))
        assert list(reconstruct_vector(s1, s2)) == [11, 22, 33]


class TestSecureMultiplyPair:
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 1), (0, 1), (7, 11), (123, 456)])
    def test_scalar_products(self, a, b):
        dealer = BeaverTripleDealer(seed=0)
        a_pair = share_scalar(a, rng=1)
        b_pair = share_scalar(b, rng=2)
        s1, s2 = secure_multiply_pair(
            (a_pair.share1, a_pair.share2),
            (b_pair.share1, b_pair.share2),
            dealer.scalar_triple(),
        )
        assert reconstruct(s1, s2) == a * b

    def test_vector_products(self):
        dealer = BeaverTripleDealer(seed=3)
        a = np.array([0, 1, 1, 0, 5])
        b = np.array([1, 1, 0, 0, 4])
        a_pair = share_vector(a, rng=4)
        b_pair = share_vector(b, rng=5)
        triple = dealer.vector_triple((5,))
        s1, s2 = secure_multiply_pair(
            (a_pair.share1, a_pair.share2), (b_pair.share1, b_pair.share2), triple
        )
        assert list(reconstruct_vector(s1, s2)) == [0, 1, 0, 0, 20]

    def test_small_ring(self):
        ring = Ring(bits=16)
        dealer = BeaverTripleDealer(ring=ring, seed=6)
        a_pair = share_scalar(250, ring=ring, rng=7)
        b_pair = share_scalar(251, ring=ring, rng=8)
        s1, s2 = secure_multiply_pair(
            (a_pair.share1, a_pair.share2),
            (b_pair.share1, b_pair.share2),
            dealer.scalar_triple(),
            ring=ring,
        )
        assert reconstruct(s1, s2, ring=ring) == (250 * 251) % ring.modulus


class TestSecureMultiplyTriple:
    @pytest.mark.parametrize(
        "a,b,c",
        [(0, 0, 0), (1, 1, 1), (1, 1, 0), (0, 1, 1), (2, 3, 5), (17, 19, 23)],
    )
    def test_scalar_triple_products(self, a, b, c):
        dealer = MultiplicationGroupDealer(seed=0)
        pairs = [share_scalar(value, rng=index) for index, value in enumerate((a, b, c))]
        s1, s2 = secure_multiply_triple(
            (pairs[0].share1, pairs[0].share2),
            (pairs[1].share1, pairs[1].share2),
            (pairs[2].share1, pairs[2].share2),
            dealer.scalar_group(),
        )
        assert reconstruct(s1, s2) == a * b * c

    def test_all_bit_combinations(self):
        """Theorem 1 on every 0/1 combination — the triangle-indicator case."""
        dealer = MultiplicationGroupDealer(seed=1)
        for bits in range(8):
            a, b, c = (bits >> 2) & 1, (bits >> 1) & 1, bits & 1
            pairs = [share_scalar(v, rng=100 + bits * 3 + i) for i, v in enumerate((a, b, c))]
            s1, s2 = secure_multiply_triple(
                (pairs[0].share1, pairs[0].share2),
                (pairs[1].share1, pairs[1].share2),
                (pairs[2].share1, pairs[2].share2),
                dealer.scalar_group(),
            )
            assert reconstruct(s1, s2) == a * b * c

    def test_vectorised_triple_products(self):
        dealer = MultiplicationGroupDealer(seed=2)
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2, size=50)
        b = rng.integers(0, 2, size=50)
        c = rng.integers(0, 2, size=50)
        a_pair = share_vector(a, rng=4)
        b_pair = share_vector(b, rng=5)
        c_pair = share_vector(c, rng=6)
        group = dealer.vector_group((50,))
        s1, s2 = secure_multiply_triple(
            (a_pair.share1, a_pair.share2),
            (b_pair.share1, b_pair.share2),
            (c_pair.share1, c_pair.share2),
            group,
        )
        assert list(reconstruct_vector(s1, s2)) == list(a * b * c)


class TestSecureMatrixMultiply:
    def test_matrix_product(self):
        dealer = BeaverTripleDealer(seed=0)
        rng = np.random.default_rng(1)
        a = rng.integers(0, 5, size=(4, 6))
        b = rng.integers(0, 5, size=(6, 3))
        a_pair = share_vector(a, rng=2)
        b_pair = share_vector(b, rng=3)
        triple = dealer.matrix_triple((4, 6), (6, 3))
        s1, s2 = secure_matrix_multiply(
            (a_pair.share1, a_pair.share2), (b_pair.share1, b_pair.share2), triple
        )
        expected = (a @ b).astype(np.uint64)
        assert np.array_equal(reconstruct_vector(s1, s2), expected)

    def test_shape_mismatch_rejected(self):
        dealer = BeaverTripleDealer(seed=4)
        a_pair = share_vector(np.zeros((2, 2), dtype=np.int64), rng=5)
        b_pair = share_vector(np.zeros((2, 2), dtype=np.int64), rng=6)
        triple = dealer.matrix_triple((3, 3), (3, 3))
        with pytest.raises(ProtocolError):
            secure_matrix_multiply(
                (a_pair.share1, a_pair.share2), (b_pair.share1, b_pair.share2), triple
            )

    def test_adjacency_cube_trace(self):
        """trace(A^3) computed on shares equals 6x the triangle count."""
        from repro.graph.generators import erdos_renyi_graph
        from repro.graph.triangles import count_triangles

        graph = erdos_renyi_graph(12, 0.4, seed=7)
        adjacency = graph.adjacency_matrix()
        dealer = BeaverTripleDealer(seed=8)
        a_pair = share_vector(adjacency, rng=9)
        shares = (a_pair.share1, a_pair.share2)
        triple1 = dealer.matrix_triple((12, 12), (12, 12))
        square = secure_matrix_multiply(shares, shares, triple1)
        triple2 = dealer.matrix_triple((12, 12), (12, 12))
        cube = secure_matrix_multiply(square, shares, triple2)
        total = reconstruct_vector(cube[0], cube[1])
        assert int(np.trace(total.astype(np.int64))) == 6 * count_triangles(graph)


def separate_matrix_combine(role, e, f, triple, ring):
    """The five-product form ``Z_r + E@Y_r + X_r@F (+ E@F)``, on the int64 loop."""
    mask = np.uint64(ring.mask)
    share = triple.z + int64_matmul(e, triple.y) + int64_matmul(triple.x, f)
    if role == 2:
        share = share + int64_matmul(e, f)
    return share & mask


class TestBeaverMatrixCombine:
    """The one-product combine equals the separate products bit for bit."""

    @pytest.mark.parametrize("bits", [64, 32])
    @pytest.mark.parametrize("shape", [(1, 5, 1), (30, 40, 20), (96, 130, 100), (200, 300, 64)])
    @pytest.mark.parametrize("role", [1, 2])
    def test_matches_separate_products(self, role, shape, bits):
        m, k, n = shape
        ring = Ring(bits=bits)
        rng = np.random.default_rng(m * k + n + bits)
        e = ring.random_array((m, k), rng)
        f = ring.random_array((k, n), rng)
        triple = BeaverTripleDealer(ring=ring, seed=role).matrix_triple((m, k), (k, n))
        half = triple.server1 if role == 1 else triple.server2
        combined = beaver_matrix_combine(role, e, f, half, ring)
        assert combined.dtype == np.uint64
        assert np.array_equal(combined, separate_matrix_combine(role, e, f, half, ring))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("role", [1, 2])
    def test_worker_pool_hook_matches_serial(self, role, workers):
        rng = np.random.default_rng(workers)
        e = DEFAULT_RING.random_array((150, 120), rng)
        f = DEFAULT_RING.random_array((120, 90), rng)
        triple = BeaverTripleDealer(seed=3).matrix_triple((150, 120), (120, 90))
        half = triple.server1 if role == 1 else triple.server2
        pooled = beaver_matrix_combine(
            role, e, f, half, DEFAULT_RING, matmul=WorkerPool(workers).ring_matmul(DEFAULT_RING)
        )
        assert np.array_equal(pooled, beaver_matrix_combine(role, e, f, half, DEFAULT_RING))
        assert np.array_equal(pooled, separate_matrix_combine(role, e, f, half, DEFAULT_RING))

    @pytest.mark.parametrize("shape", [(4, 6, 3), (128, 128, 128)])
    def test_roles_reconstruct_the_product(self, shape):
        m, k, n = shape
        rng = np.random.default_rng(9)
        a = DEFAULT_RING.random_array((m, k), rng)
        b = DEFAULT_RING.random_array((k, n), rng)
        triple = BeaverTripleDealer(seed=10).matrix_triple((m, k), (k, n))
        x = triple.server1.x + triple.server2.x
        y = triple.server1.y + triple.server2.y
        e, f = a - x, b - y
        share1 = beaver_matrix_combine(1, e, f, triple.server1)
        share2 = beaver_matrix_combine(2, e, f, triple.server2)
        assert np.array_equal(share1 + share2, int64_matmul(a, b))


class TestRoleLocalCombines:
    """The pair and multiplication-group combines, role by role."""

    @pytest.mark.parametrize("role", [1, 2])
    def test_pair_combine_matches_beaver_formula(self, role):
        ring = DEFAULT_RING
        rng = np.random.default_rng(role)
        e, f = ring.random_array(50, rng), ring.random_array(50, rng)
        triple = BeaverTripleDealer(seed=role).vector_triple((50,))
        half = triple.server1 if role == 1 else triple.server2
        expected = half.z + e * half.y + f * half.x + (e * f if role == 2 else 0)
        assert np.array_equal(beaver_pair_combine(role, e, f, half, ring), expected)

    @pytest.mark.parametrize("role", [1, 2])
    def test_group_combine_in_place_path_matches_elementwise(self, role):
        rng = np.random.default_rng(role + 4)
        e, f, g = (DEFAULT_RING.random_array(40, rng) for _ in range(3))
        pair = MultiplicationGroupDealer(seed=role).vector_group((40,))
        group = pair.server1 if role == 1 else pair.server2
        vectorised = multiplication_group_combine(role, e, f, g, group)
        for index in range(40):
            scalars = type(group)(**{name: int(getattr(group, name)[index]) for name in
                                     ("x", "y", "z", "w", "o", "p", "q")})
            expected = multiplication_group_combine(
                role, int(e[index]), int(f[index]), int(g[index]), scalars
            )
            assert int(vectorised[index]) == expected

    def test_group_roles_reconstruct_the_product(self):
        ring = Ring(bits=64)
        rng = np.random.default_rng(21)
        a, b, c = (rng.integers(0, 2, 64).astype(np.uint64) for _ in range(3))
        pair = MultiplicationGroupDealer(seed=22).vector_group((64,))
        g1, g2 = pair.server1, pair.server2
        e, f, g = a - (g1.x + g2.x), b - (g1.y + g2.y), c - (g1.z + g2.z)
        share1 = multiplication_group_combine(1, e, f, g, g1, ring)
        share2 = multiplication_group_combine(2, e, f, g, g2, ring)
        assert np.array_equal(share1 + share2, a * b * c)
