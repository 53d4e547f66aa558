"""Multiplication groups: correlated randomness for three-way products.

Section III-D of the paper generalises Beaver triples to *multiplication
groups* (MGs): tuples ``(x, y, z, w, o, p, q)`` with

``w = x*y*z``, ``o = x*y``, ``p = x*z``, ``q = y*z``,

each additively shared between the two servers.  Given shares of three
secrets ``a``, ``b``, ``c``, the servers open ``e = a - x``, ``f = b - y``
and ``g = c - z`` and then compute shares of ``a*b*c`` locally as

``<d>_i = <w>_i + <o>_i g + <p>_i f + <q>_i e + <x>_i f g + <y>_i e g
         + <z>_i e f + (i - 1) e f g``

which is Theorem 1 in the paper.  One multiplication group is consumed per
candidate triple ``(i, j, k)`` in the faithful ``Count`` protocol.

As with Beaver triples, the offline generation is modelled by a trusted
dealer; see ``DESIGN.md`` for the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from repro.crypto.ring import DEFAULT_RING, Ring
from repro.crypto.sharing import share_scalar, share_vector
from repro.exceptions import DealerError
from repro.resilience.faults import fault_point
from repro.utils.rng import RandomState, derive_rng

IntOrArray = Union[int, np.ndarray]


@dataclass(frozen=True)
class MultiplicationGroup:
    """One server's shares of a multiplication group.

    Field names follow the paper: ``x, y, z`` are the masks, ``w = xyz``,
    ``o = xy``, ``p = xz``, ``q = yz``.
    """

    x: IntOrArray
    y: IntOrArray
    z: IntOrArray
    w: IntOrArray
    o: IntOrArray
    p: IntOrArray
    q: IntOrArray


@dataclass(frozen=True)
class MultiplicationGroupPair:
    """Both servers' shares of one multiplication group."""

    server1: MultiplicationGroup
    server2: MultiplicationGroup
    ring: Ring = DEFAULT_RING

    def plaintext(self) -> Tuple[IntOrArray, ...]:
        """Reconstruct ``(x, y, z, w, o, p, q)`` — tests and dealer only."""
        ring = self.ring
        return tuple(
            ring.add(getattr(self.server1, name), getattr(self.server2, name))
            for name in ("x", "y", "z", "w", "o", "p", "q")
        )


#: Field names of a multiplication group in dealing order (the runtime's
#: group frames carry one array per field, in this order).
MG_FIELDS = ("x", "y", "z", "w", "o", "p", "q")


class MultiplicationGroupDealer:
    """Trusted-dealer simulation of the offline MG-generation phase.

    The dealer draws the three masks uniformly from the ring, derives the
    four correlated products, shares all seven values and hands each server
    its half.  Supports scalar groups (one per candidate triangle in the
    faithful protocol) and element-wise vector batches (one opening round for
    a whole block of candidate triples).

    A *buffered* dealing mode is available through :meth:`provision`: the
    offline phase for a run is drawn in bulk calls, and subsequent
    :meth:`vector_group` requests consume consecutive elements of the
    provisioned stream.  Repeated :meth:`provision` calls append to the
    stream, and a request may span a provisioning boundary, so a group's
    masks depend only on its position in the stream and on the sequence of
    provisioned chunk sizes — never on how requests are batched.  As long as
    two runs provision the same chunk sizes in the same order (the faithful
    backend's schedule guarantees this for any batch size), the openings
    they produce are exact concatenations of each other, which is what the
    transcript-equivalence tests verify.  Accounting (:attr:`groups_issued`)
    is recorded at serve time exactly as in the unbuffered mode.
    """

    def __init__(self, ring: Ring = DEFAULT_RING, seed: RandomState = None) -> None:
        self._ring = ring
        self._rng = derive_rng(seed)
        self._issued = 0
        # FIFO of provisioned blocks: (server1 fields, server2 fields, size),
        # with a cursor into the head block.
        self._pool_blocks: list = []
        self._pool_cursor = 0
        self._pool_remaining = 0
        self._scratch: dict = {}

    @property
    def ring(self) -> Ring:
        """Ring in which multiplication groups are issued."""
        return self._ring

    @property
    def groups_issued(self) -> int:
        """Number of scalar groups or group batches issued so far."""
        return self._issued

    @property
    def provisioned_remaining(self) -> int:
        """Element-wise groups still available in the provisioned pool."""
        return self._pool_remaining

    def provision(self, count: int) -> None:
        """Pre-provision *count* element-wise groups in one bulk draw.

        This is the buffered offline phase: one call replaces ``count``
        independent dealer interactions.  Repeated calls append to the
        provisioned stream (requests may span the boundary).  Scratch
        buffers for the derived products are kept between same-sized calls
        so repeated provisioning of a fixed chunk reuses its allocations.
        """
        fault_point("dealer.provision")
        if count <= 0:
            raise DealerError(f"provision count must be positive, got {count}")
        ring = self._ring
        shape = (int(count),)
        # One bulk draw covers every uniform the provisioning needs: the
        # three masks x, y, z plus one sharing mask per field — ten arrays,
        # one RNG dispatch.
        randomness = ring.random_array((10, int(count)), self._rng)
        x, y, z = randomness[0], randomness[1], randomness[2]
        sharing_masks = randomness[3:]
        if self._scratch.get("size") != count:
            self._scratch = {
                "size": count,
                "o": np.empty(shape, dtype=ring.dtype),
                "p": np.empty(shape, dtype=ring.dtype),
                "q": np.empty(shape, dtype=ring.dtype),
                "w": np.empty(shape, dtype=ring.dtype),
            }
        scratch = self._scratch
        # uint64 products wrap modulo 2^64 natively; narrower rings mask below.
        o = np.multiply(x, y, out=scratch["o"])
        p = np.multiply(x, z, out=scratch["p"])
        q = np.multiply(y, z, out=scratch["q"])
        w = np.multiply(o, z, out=scratch["w"])
        if ring.bits < 64:
            mask = ring.dtype.type(ring.mask)
            for arr in (o, p, q, w):
                np.bitwise_and(arr, mask, out=arr)
        server1: dict = {}
        server2: dict = {}
        for index, (name, value) in enumerate(
            (("x", x), ("y", y), ("z", z), ("w", w), ("o", o), ("p", p), ("q", q))
        ):
            mask_share = sharing_masks[index]
            other = np.subtract(value, mask_share)
            if ring.bits < 64:
                np.bitwise_and(other, ring.dtype.type(ring.mask), out=other)
            server1[name] = mask_share
            server2[name] = other
        self._pool_blocks.append((server1, server2, int(count)))
        self._pool_remaining += int(count)

    def scalar_group(self) -> MultiplicationGroupPair:
        """Sample one scalar multiplication group."""
        ring = self._ring
        x = ring.random_element(self._rng)
        y = ring.random_element(self._rng)
        z = ring.random_element(self._rng)
        return self._build_pair(x, y, z, scalar=True)

    def vector_group(self, shape: Tuple[int, ...]) -> MultiplicationGroupPair:
        """An element-wise batch of multiplication groups.

        Served as the next consecutive slice of the provisioned pool when one
        is available and large enough (buffered mode); drawn fresh otherwise.
        """
        if any(dim <= 0 for dim in shape):
            raise DealerError(f"group batch shape must be positive, got {shape}")
        size = 1
        for dim in shape:
            size *= int(dim)
        if self._pool_remaining >= size:
            return self._serve_from_pool(shape, size)
        if self._pool_remaining:
            # Silently skipping a partially-consumed pool would serve the
            # stranded groups out of stream order later, breaking the
            # buffered-mode guarantee that masks depend only on position.
            raise DealerError(
                f"request for {size} groups exceeds the {self._pool_remaining} "
                "still provisioned; provision more or drain the pool first"
            )
        ring = self._ring
        x = ring.random_array(shape, self._rng)
        y = ring.random_array(shape, self._rng)
        z = ring.random_array(shape, self._rng)
        return self._build_pair(x, y, z, scalar=False)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _serve_from_pool(self, shape: Tuple[int, ...], size: int) -> MultiplicationGroupPair:
        """Consume *size* consecutive stream elements (may span blocks)."""
        head1, head2, head_size = self._pool_blocks[0]
        if head_size - self._pool_cursor >= size:
            # Fast path: the request fits the head block — serve zero-copy
            # slices.
            start = self._pool_cursor
            end = start + size
            fields1 = {name: head1[name][start:end].reshape(shape) for name in MG_FIELDS}
            fields2 = {name: head2[name][start:end].reshape(shape) for name in MG_FIELDS}
            self._pool_cursor = end
            if end >= head_size:
                self._pool_blocks.pop(0)
                self._pool_cursor = 0
        else:
            # The request spans a provisioning boundary: concatenate the
            # needed parts from successive blocks.  The stream positions —
            # and therefore the masks — are unchanged.
            parts1 = {name: [] for name in MG_FIELDS}
            parts2 = {name: [] for name in MG_FIELDS}
            needed = size
            while needed:
                block1, block2, block_size = self._pool_blocks[0]
                take = min(needed, block_size - self._pool_cursor)
                start = self._pool_cursor
                end = start + take
                for name in MG_FIELDS:
                    parts1[name].append(block1[name][start:end])
                    parts2[name].append(block2[name][start:end])
                needed -= take
                self._pool_cursor = end
                if end >= block_size:
                    self._pool_blocks.pop(0)
                    self._pool_cursor = 0
            fields1 = {name: np.concatenate(parts1[name]).reshape(shape) for name in MG_FIELDS}
            fields2 = {name: np.concatenate(parts2[name]).reshape(shape) for name in MG_FIELDS}
        self._pool_remaining -= size
        self._issued += 1
        return MultiplicationGroupPair(
            server1=MultiplicationGroup(**fields1),
            server2=MultiplicationGroup(**fields2),
            ring=self._ring,
        )

    def _build_pair(self, x, y, z, scalar: bool) -> MultiplicationGroupPair:
        ring = self._ring
        o = ring.mul(x, y)
        p = ring.mul(x, z)
        q = ring.mul(y, z)
        w = ring.mul(o, z)
        share = share_scalar if scalar else share_vector
        pairs = {
            name: share(value, ring=ring, rng=self._rng)
            for name, value in (("x", x), ("y", y), ("z", z), ("w", w), ("o", o), ("p", p), ("q", q))
        }
        self._issued += 1
        return MultiplicationGroupPair(
            server1=MultiplicationGroup(**{name: pair.share1 for name, pair in pairs.items()}),
            server2=MultiplicationGroup(**{name: pair.share2 for name, pair in pairs.items()}),
            ring=ring,
        )
