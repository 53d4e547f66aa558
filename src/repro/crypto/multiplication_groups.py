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
dealer; the threat model in ``docs/verification.md`` states what that
assumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from repro.crypto.ring import DEFAULT_RING, Ring
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
            for name in MG_FIELDS
        )

    def __getitem__(self, index) -> "MultiplicationGroupPair":
        """The groups at *index* of an element-wise batch, both servers' shares."""
        return MultiplicationGroupPair(
            *(
                MultiplicationGroup(*(getattr(half, name)[index] for name in MG_FIELDS))
                for half in (self.server1, self.server2)
            ),
            ring=self.ring,
        )


#: Field names of a multiplication group in dealing order (the runtime's
#: group frames carry one array per field, in this order).
MG_FIELDS = ("x", "y", "z", "w", "o", "p", "q")


class MultiplicationGroupDealer:
    """Trusted-dealer simulation of the offline MG-generation phase.

    The dealer draws the three masks uniformly from the ring, derives the
    four correlated products, shares all seven values and hands each server
    its half.  Each group is one element-major row of ten uniforms — its
    masks ``x, y, z`` and server 1's share of each of the seven fields — so
    a group's material depends only on its position in the dealer's
    stream, never on how requests are batched: ``vector_group((a,))`` then
    ``vector_group((b,))`` deal exactly what ``vector_group((a + b,))``
    does.  A scalar group is the size-one case.
    """

    def __init__(self, ring: Ring = DEFAULT_RING, seed: RandomState = None) -> None:
        self._ring = ring
        self._rng = derive_rng(seed)
        self._issued = 0

    @property
    def ring(self) -> Ring:
        """Ring in which multiplication groups are issued."""
        return self._ring

    @property
    def groups_issued(self) -> int:
        """Number of scalar groups or group batches issued so far."""
        return self._issued

    def scalar_group(self) -> MultiplicationGroupPair:
        """One multiplication group with Python-int fields."""
        return self._pair(*(half[:, 0].tolist() for half in self._deal(1)))

    def vector_group(self, shape: Tuple[int, ...]) -> MultiplicationGroupPair:
        """An element-wise batch of multiplication groups of the given *shape*."""
        if any(dim <= 0 for dim in shape):
            raise DealerError(f"group batch shape must be positive, got {shape}")
        halves = self._deal(int(np.prod(shape)))
        return self._pair(*(half.reshape((len(MG_FIELDS), *shape)) for half in halves))

    def _deal(self, size: int) -> Tuple[np.ndarray, np.ndarray]:
        """The next *size* groups: each server's ``(7, size)`` half, a view of element-major rows."""
        fault_point("dealer.provision")
        ring = self._ring
        draws = ring.random_array((size, 3 + len(MG_FIELDS)), self._rng)
        x, y, z = draws[:, 0], draws[:, 1], draws[:, 2]
        share1 = draws[:, 3:]
        values = np.empty_like(share1)
        values[:, :3] = draws[:, :3]
        # Columns in MG_FIELDS order: w = xyz, o = xy, p = xz, q = yz.  uint64
        # products wrap modulo 2^64; narrower rings mask once below.
        np.multiply(x, y, out=values[:, 4])
        np.multiply(x, z, out=values[:, 5])
        np.multiply(y, z, out=values[:, 6])
        np.multiply(values[:, 4], z, out=values[:, 3])
        share2 = np.subtract(values, share1, out=values)
        if ring.bits < 64:
            np.bitwise_and(share2, ring.dtype.type(ring.mask), out=share2)
        return share1.T, share2.T

    def _pair(self, fields1, fields2) -> MultiplicationGroupPair:
        self._issued += 1
        return MultiplicationGroupPair(
            server1=MultiplicationGroup(*fields1),
            server2=MultiplicationGroup(*fields2),
            ring=self._ring,
        )
