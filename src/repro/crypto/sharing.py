"""Two-party additive secret sharing over ``Z_{2^l}``.

A secret ``x`` is split as ``<x>_1 = r`` and ``<x>_2 = x - r (mod 2^l)`` for a
uniformly random mask ``r`` (Section II-C of the paper).  Each individual
share is uniformly distributed and therefore reveals nothing about ``x``;
reconstruction is the modular sum of the two shares.

The :class:`SharePair` convenience wrapper bundles both shares of one secret
and is what the *dealer*-style code (users splitting their own data) hands to
the two servers.  Server-side protocol code never holds a full
:class:`SharePair`; it only ever sees one side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.crypto.ring import DEFAULT_RING, Ring
from repro.exceptions import ShareError
from repro.utils.rng import (
    RandomState,
    bounded_first_draws,
    derive_rng,
    pcg64_first_outputs,
    spawn_state_matrix,
)

IntOrArray = Union[int, np.ndarray]


@dataclass(frozen=True)
class SharePair:
    """Both additive shares of one secret (scalar or array).

    ``share1`` goes to server ``S1`` and ``share2`` to server ``S2``.  The
    holder of a single share learns nothing; holding both is equivalent to
    holding the secret, which is why only the data owner (the user) ever
    constructs a :class:`SharePair`.
    """

    share1: IntOrArray
    share2: IntOrArray
    ring: Ring = DEFAULT_RING

    def reconstruct(self) -> IntOrArray:
        """Recombine the two shares into the ring element they encode."""
        return self.ring.add(self.share1, self.share2)

    def reconstruct_signed(self) -> IntOrArray:
        """Recombine and decode to a signed integer (for noise / counts)."""
        return self.ring.decode_signed(self.reconstruct())

    def for_server(self, server_index: int) -> IntOrArray:
        """Return the share destined for server *server_index* (1 or 2)."""
        if server_index == 1:
            return self.share1
        if server_index == 2:
            return self.share2
        raise ShareError(f"server index must be 1 or 2, got {server_index}")


def share_scalar(
    value: int, ring: Ring = DEFAULT_RING, rng: RandomState = None
) -> SharePair:
    """Additively share a single (possibly negative) integer.

    Examples
    --------
    >>> pair = share_scalar(-42, rng=0)
    >>> pair.reconstruct_signed()
    -42
    >>> pair.share1 != -42  # each share alone is a uniform mask
    True
    """
    generator = derive_rng(rng)
    encoded = ring.encode(int(value))
    mask = ring.random_element(generator)
    return SharePair(share1=mask, share2=ring.sub(encoded, mask), ring=ring)


def share_vector(
    values: np.ndarray, ring: Ring = DEFAULT_RING, rng: RandomState = None
) -> SharePair:
    """Additively share a 1-D integer array element-wise.

    This is how a user shares her adjacent bit vector ``A_i``: every bit is
    masked independently, so each server receives a vector of uniformly
    random ring elements.
    """
    generator = derive_rng(rng)
    encoded = ring.encode(np.asarray(values))
    mask = ring.random_array(encoded.shape, generator)
    return SharePair(share1=mask, share2=ring.sub(encoded, mask), ring=ring)


def share_per_user(
    encoded: np.ndarray, ring: Ring = DEFAULT_RING, rng: RandomState = None
) -> SharePair:
    """Share one ring element per user, each masked from the user's own stream.

    Unlike :func:`share_vector` (one generator masks the whole array), entry
    ``i`` here is masked by ``ring.random_element(default_rng(child_i))`` for
    the ``i``-th child of *rng* — the non-coordinating pattern of
    :func:`~repro.core.backends.base.share_adjacency_rows`, where every user
    draws her mask from her own substream.  This is the upload step of the
    sparse degree-local kernels (k-stars, wedges): *encoded* holds each
    user's already-ring-encoded contribution, and the servers receive one
    uniformly masked scalar per user — ``O(n)`` memory end to end.

    No per-user object is built: the children's seed states and each one's
    first PCG64 draw are computed for all users at once
    (:func:`~repro.utils.rng.spawn_state_matrix`,
    :func:`~repro.utils.rng.pcg64_first_outputs`), bit-identical to the
    per-user generators, which keeps sparse and dense transcripts equal.
    """
    values = np.ascontiguousarray(encoded, dtype=ring.dtype)
    if values.ndim != 1:
        raise ShareError(
            f"share_per_user expects a 1-D array of contributions, got shape {values.shape}"
        )
    states = spawn_state_matrix(rng, values.shape[0], words=4)
    masks = bounded_first_draws(pcg64_first_outputs(states), ring.bits)
    return SharePair(share1=masks, share2=ring.sub(values, masks), ring=ring)


def share_matrix(
    values: np.ndarray, ring: Ring = DEFAULT_RING, rng: RandomState = None
) -> SharePair:
    """Additively share a 2-D integer array element-wise (adjacency matrices)."""
    matrix = np.asarray(values)
    if matrix.ndim != 2:
        raise ShareError(f"share_matrix expects a 2-D array, got shape {matrix.shape}")
    return share_vector(matrix, ring=ring, rng=rng)


def reconstruct(share1: int, share2: int, ring: Ring = DEFAULT_RING, signed: bool = False) -> int:
    """Reconstruct a scalar secret from its two shares."""
    combined = ring.add(int(share1), int(share2))
    return ring.decode_signed(combined) if signed else combined


def reconstruct_vector(
    share1: np.ndarray, share2: np.ndarray, ring: Ring = DEFAULT_RING, signed: bool = False
) -> np.ndarray:
    """Reconstruct an array secret from its two share arrays."""
    first = np.asarray(share1, dtype=ring.dtype)
    second = np.asarray(share2, dtype=ring.dtype)
    if first.shape != second.shape:
        raise ShareError(
            f"share shapes differ: {first.shape} vs {second.shape}"
        )
    combined = ring.add(first, second)
    if signed:
        decoded = ring.decode_signed(combined)
        return np.asarray(decoded, dtype=object)
    return combined

