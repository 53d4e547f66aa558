"""Tests for repro.crypto.sharing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.ring import Ring
from repro.crypto.sharing import (
    SharePair,
    reconstruct,
    reconstruct_vector,
    share_matrix,
    share_scalar,
    share_vector,
)
from repro.exceptions import ShareError


class TestScalarSharing:
    @pytest.mark.parametrize("value", [0, 1, 42, -17, 2**40, -(2**40)])
    def test_roundtrip(self, value):
        pair = share_scalar(value, rng=0)
        assert pair.reconstruct_signed() == value

    def test_reconstruct_function(self):
        pair = share_scalar(123, rng=1)
        assert reconstruct(pair.share1, pair.share2) == 123

    def test_shares_differ_from_secret(self):
        pair = share_scalar(7, rng=2)
        # With a 64-bit mask the probability either share equals the secret is ~2^-63.
        assert pair.share1 != 7 or pair.share2 != 7

    def test_same_seed_same_shares(self):
        assert share_scalar(5, rng=3).share1 == share_scalar(5, rng=3).share1

    def test_different_seeds_different_masks(self):
        assert share_scalar(5, rng=4).share1 != share_scalar(5, rng=5).share1

    def test_for_server(self):
        pair = share_scalar(9, rng=6)
        assert pair.for_server(1) == pair.share1
        assert pair.for_server(2) == pair.share2
        with pytest.raises(ShareError):
            pair.for_server(3)

    def test_small_ring(self):
        ring = Ring(bits=8)
        pair = share_scalar(-3, ring=ring, rng=7)
        assert pair.reconstruct_signed() == -3


class TestVectorSharing:
    def test_roundtrip(self, rng):
        values = np.array([0, 1, 1, 0, 1], dtype=np.int64)
        pair = share_vector(values, rng=rng)
        assert np.array_equal(pair.reconstruct(), values.astype(np.uint64))

    def test_signed_roundtrip(self, rng):
        values = np.array([-3, 0, 7], dtype=np.int64)
        pair = share_vector(values, rng=rng)
        assert list(pair.reconstruct_signed()) == [-3, 0, 7]

    def test_reconstruct_vector_function(self, rng):
        values = np.arange(10)
        pair = share_vector(values, rng=rng)
        assert np.array_equal(
            reconstruct_vector(pair.share1, pair.share2), values.astype(np.uint64)
        )

    def test_reconstruct_vector_shape_mismatch(self):
        with pytest.raises(ShareError):
            reconstruct_vector(np.zeros(3, dtype=np.uint64), np.zeros(4, dtype=np.uint64))

    def test_shares_look_uniform(self):
        values = np.zeros(2000, dtype=np.int64)
        pair = share_vector(values, rng=0)
        # Shares of an all-zero vector must not be all zero themselves.
        assert int(np.count_nonzero(pair.share1)) > 1900


class TestMatrixSharing:
    def test_roundtrip(self, rng):
        matrix = (np.arange(16).reshape(4, 4) % 2).astype(np.int64)
        pair = share_matrix(matrix, rng=rng)
        assert np.array_equal(pair.reconstruct(), matrix.astype(np.uint64))

    def test_rejects_non_2d(self, rng):
        with pytest.raises(ShareError):
            share_matrix(np.zeros(5), rng=rng)
