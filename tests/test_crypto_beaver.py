"""Tests for repro.crypto.beaver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.ring import Ring
from repro.exceptions import DealerError


class TestScalarTriples:
    def test_triple_relation_holds(self):
        dealer = BeaverTripleDealer(seed=0)
        triple = dealer.scalar_triple()
        x, y, z = triple.plaintext()
        assert z == dealer.ring.mul(x, y)

    def test_triples_are_fresh(self):
        dealer = BeaverTripleDealer(seed=1)
        first = dealer.scalar_triple().plaintext()
        second = dealer.scalar_triple().plaintext()
        assert first != second

    def test_issued_counter(self):
        dealer = BeaverTripleDealer(seed=2)
        for _ in range(5):
            dealer.scalar_triple()
        assert dealer.triples_issued == 5

    def test_deterministic_with_seed(self):
        a = BeaverTripleDealer(seed=4).scalar_triple().plaintext()
        b = BeaverTripleDealer(seed=4).scalar_triple().plaintext()
        assert a == b

    def test_small_ring(self):
        dealer = BeaverTripleDealer(ring=Ring(bits=8), seed=5)
        x, y, z = dealer.scalar_triple().plaintext()
        assert z == (x * y) % 256


class TestVectorTriples:
    def test_elementwise_relation(self):
        dealer = BeaverTripleDealer(seed=6)
        triple = dealer.vector_triple((7,))
        x, y, z = triple.plaintext()
        assert np.array_equal(z, dealer.ring.mul(x, y))

    def test_bad_shape_rejected(self):
        with pytest.raises(DealerError):
            BeaverTripleDealer(seed=7).vector_triple((0,))


class TestMatrixTriples:
    def test_matrix_relation(self):
        dealer = BeaverTripleDealer(seed=8)
        triple = dealer.matrix_triple((4, 3), (3, 5))
        x, y, z = triple.plaintext()
        assert np.array_equal(z, dealer.ring.matmul(x, y))

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(DealerError):
            BeaverTripleDealer(seed=9).matrix_triple((2, 3), (4, 5))

    def test_shares_are_not_plaintext(self):
        dealer = BeaverTripleDealer(seed=10)
        triple = dealer.matrix_triple((3, 3), (3, 3))
        x, _, _ = triple.plaintext()
        assert not np.array_equal(np.asarray(triple.server1.x), np.asarray(x))
