"""Tests for repro.crypto.multiplication_groups."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.multiplication_groups import MultiplicationGroupDealer
from repro.crypto.ring import Ring
from repro.exceptions import DealerError


class TestScalarGroups:
    def test_correlations_hold(self):
        dealer = MultiplicationGroupDealer(seed=0)
        ring = dealer.ring
        x, y, z, w, o, p, q = dealer.scalar_group().plaintext()
        assert o == ring.mul(x, y)
        assert p == ring.mul(x, z)
        assert q == ring.mul(y, z)
        assert w == ring.mul(ring.mul(x, y), z)

    def test_groups_are_fresh(self):
        dealer = MultiplicationGroupDealer(seed=1)
        assert dealer.scalar_group().plaintext() != dealer.scalar_group().plaintext()

    def test_issued_counter(self):
        dealer = MultiplicationGroupDealer(seed=2)
        for _ in range(4):
            dealer.scalar_group()
        assert dealer.groups_issued == 4

    def test_deterministic_with_seed(self):
        a = MultiplicationGroupDealer(seed=4).scalar_group().plaintext()
        b = MultiplicationGroupDealer(seed=4).scalar_group().plaintext()
        assert a == b

    def test_small_ring_correlations(self):
        dealer = MultiplicationGroupDealer(ring=Ring(bits=8), seed=5)
        x, y, z, w, o, p, q = dealer.scalar_group().plaintext()
        assert w == (x * y * z) % 256
        assert o == (x * y) % 256
        assert p == (x * z) % 256
        assert q == (y * z) % 256


class TestVectorGroups:
    def test_elementwise_correlations(self):
        dealer = MultiplicationGroupDealer(seed=6)
        ring = dealer.ring
        x, y, z, w, o, p, q = dealer.vector_group((9,)).plaintext()
        assert np.array_equal(o, ring.mul(x, y))
        assert np.array_equal(w, ring.mul(ring.mul(x, y), z))
        assert np.array_equal(p, ring.mul(x, z))
        assert np.array_equal(q, ring.mul(y, z))

    def test_bad_shape_rejected(self):
        with pytest.raises(DealerError):
            MultiplicationGroupDealer(seed=7).vector_group((0, 3))

    def test_shares_hide_masks(self):
        dealer = MultiplicationGroupDealer(seed=8)
        pair = dealer.vector_group((100,))
        x, *_ = pair.plaintext()
        assert not np.array_equal(np.asarray(pair.server1.x), np.asarray(x))
