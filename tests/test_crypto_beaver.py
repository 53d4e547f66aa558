"""Tests for repro.crypto.beaver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.beaver import BeaverTripleDealer, dealer_fingerprint
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


class TestDealerFingerprint:
    def test_deterministic_for_equal_seeds(self):
        assert dealer_fingerprint(7) == dealer_fingerprint(7)
        assert dealer_fingerprint(7) != dealer_fingerprint(8)
        g1 = np.random.default_rng(5)
        g2 = np.random.default_rng(5)
        assert dealer_fingerprint(g1) == dealer_fingerprint(g2)
        g1.integers(0, 10)
        assert dealer_fingerprint(g1) != dealer_fingerprint(g2)

    def test_entropy_dealers_never_collide(self):
        assert dealer_fingerprint(None) != dealer_fingerprint(None)

    def test_dealer_fingerprint_is_pinned_before_dealing(self):
        dealer = BeaverTripleDealer(seed=3)
        before = dealer.fingerprint()
        dealer.vector_triple((4,))
        assert dealer.fingerprint() == before
        assert before == BeaverTripleDealer(seed=3).fingerprint()


class TestAccounting:
    def test_absorb_accounting_matches_direct_dealing(self):
        direct = BeaverTripleDealer(seed=21)
        direct.matrix_triple((4, 4), (4, 4))
        direct.vector_triple((6,))

        parent = BeaverTripleDealer(seed=22)
        child = BeaverTripleDealer(seed=21)
        child.matrix_triple((4, 4), (4, 4))
        child.vector_triple((6,))
        parent.absorb_accounting(*child.accounting())
        assert parent.accounting() == direct.accounting()

    def test_absorb_rejects_negative_tallies(self):
        dealer = BeaverTripleDealer(seed=23)
        with pytest.raises(DealerError):
            dealer.absorb_accounting(-1, 0, 0)

    def test_subdealers_are_deterministic_per_seed(self):
        a = BeaverTripleDealer(seed=31).spawn_subdealers(3)
        b = BeaverTripleDealer(seed=31).spawn_subdealers(3)
        for left, right in zip(a, b):
            la = left.vector_triple((4,))
            ra = right.vector_triple((4,))
            assert np.array_equal(la.server1.x, ra.server1.x)
