"""Beaver triples for secure two-party multiplication.

A Beaver triple is a correlated-randomness tuple ``(x, y, z)`` with
``z = x * y`` where each of ``x``, ``y``, ``z`` is additively shared between
the two servers.  Given shares of secrets ``a`` and ``b``, the servers open
the masked differences ``e = a - x`` and ``f = b - y`` (which reveal nothing,
because ``x`` and ``y`` are uniform masks) and then locally compute shares of
``a * b`` as ``<z> + e <y> + f <x> + (i - 1) e f``.

CARGO's triangle protocol needs the three-way generalisation (multiplication
groups, see :mod:`repro.crypto.multiplication_groups`); two-way triples are
still used by the 4-cycle kernel and exercised directly by tests.  The
blocked triangle backend deals mask-once material instead: one uniform mask
per secret (:meth:`BeaverTripleDealer.mask`) and shares of the mask products
it needs (:meth:`BeaverTripleDealer.share`).  Both draw from one
:class:`MaterialStream` per server, expanded from a 32-byte seed, so the
dealer can hand each server its seed and ship server 2 only the corrections
``z_2 = z - z_1`` of the products (the trusted-third-party provider of
CrypTen, Knott et al., NeurIPS 2021); a stream also spawns the per-row seeds
of a mask dealt to the users (:meth:`MaterialStream.row_seeds`).

The offline phase (producing the triples) is performed here by a
:class:`BeaverTripleDealer`.  In a deployment the dealer is replaced by an
OT-based two-party protocol (the paper's Section III-D).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Tuple, Union

import numpy as np

from repro.crypto.ring import DEFAULT_RING, Ring
from repro.crypto.sharing import share_vector
from repro.exceptions import DealerError
from repro.resilience.faults import fault_point
from repro.utils.rng import RandomState, derive_rng, seeded_rng, spawn_state_matrix

IntOrArray = Union[int, np.ndarray]


def dealer_fingerprint(rng: Any) -> str:
    """A stable token for the dealer randomness a run starts from.

    Two dealers with the same fingerprint deal the same material.  ``None``
    (OS-entropy dealing) gets a unique token per call, so two entropy
    dealers never share one.
    """
    if rng is None:
        return "entropy:" + os.urandom(8).hex()
    if isinstance(rng, (int, np.integer)):
        return f"seed:{int(rng)}"
    if isinstance(rng, np.random.SeedSequence):
        payload = {"entropy": rng.entropy, "spawn_key": list(rng.spawn_key)}
        return "seq:" + _digest(payload)
    if isinstance(rng, np.random.Generator):
        state = rng.bit_generator.state
        seed_seq = getattr(rng.bit_generator, "seed_seq", None)
        payload = {
            "state": state,
            "children_spawned": getattr(seed_seq, "n_children_spawned", 0),
        }
        return "gen:" + _digest(payload)
    return "other:" + _digest(repr(rng))


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


@dataclass(frozen=True)
class BeaverTriple:
    """One party's shares of a multiplication triple ``(x, y, z = x*y)``."""

    x: IntOrArray
    y: IntOrArray
    z: IntOrArray


@dataclass(frozen=True)
class BeaverTriplePair:
    """Both parties' shares of one triple, as produced by the dealer."""

    server1: BeaverTriple
    server2: BeaverTriple
    ring: Ring = DEFAULT_RING

    def plaintext(self) -> Tuple[IntOrArray, IntOrArray, IntOrArray]:
        """Reconstruct ``(x, y, z)`` — only used by tests and the dealer itself."""
        x = self.ring.add(self.server1.x, self.server2.x)
        y = self.ring.add(self.server1.y, self.server2.y)
        z = self.ring.add(self.server1.z, self.server2.z)
        return x, y, z


class MaterialStream:
    """One server's stream of mask-once material, expanded from a 32-byte seed.

    The dealer draws a server's halves of every :meth:`BeaverTripleDealer.mask`
    (and server 1's halves of every :meth:`BeaverTripleDealer.share`) from
    it; the server, given *seed*, builds the same stream and regenerates
    those halves bit for bit with the same draws.
    """

    def __init__(self, ring: Ring, seed: np.ndarray) -> None:
        self.ring = ring
        self.seed = np.asarray(seed, dtype=np.uint64)
        self.rewind()

    def rewind(self) -> None:
        """Restart the stream from its seed."""
        self._rng = seeded_rng(self.seed)

    def draw(self, size: int) -> np.ndarray:
        """The next *size* uniform ring elements."""
        return self.ring.random_array((int(size),), self._rng)

    def row_seeds(self, count: int) -> np.ndarray:
        """*count* 32-byte seeds spawned from this stream's seed: a ``(count, 4)`` uint64 matrix.

        Row ``i`` is the ``generate_state(4, np.uint64)`` of the ``i``-th
        child of a seed sequence over the stream's seed words
        (:func:`~repro.utils.rng.spawn_state_matrix`), so whoever holds the
        seed spawns the same rows.  Spawning draws nothing from the stream.
        """
        sequence = np.random.SeedSequence([int(word) for word in self.seed])
        return spawn_state_matrix(sequence, count, words=4)


class BeaverTripleDealer:
    """Trusted-dealer simulation of the offline triple-generation phase.

    Parameters
    ----------
    ring:
        Ring the triples live in.
    seed:
        Seed for the dealer's own randomness.  The dealer's randomness is
        independent of every user's and server's randomness, mirroring the
        non-collusion assumption.
    """

    def __init__(self, ring: Ring = DEFAULT_RING, seed: RandomState = None) -> None:
        self._ring = ring
        self._fingerprint: str | None = None
        self._seed = seed
        self._rng = derive_rng(seed)
        self._issued = 0
        self._largest_triple_elements = 0
        self._total_triple_elements = 0
        #: Optional hook computing the ``Z = X @ Y`` product of a fresh
        #: matrix triple.  The parallel engine installs a row-striped pool
        #: matmul here; the hook must be bit-identical to ``ring.matmul``
        #: (row strips are), so installing it never changes a dealt value.
        self.matmul = None
        self._streams: Tuple[MaterialStream, MaterialStream] | None = None
        self._origin = self.state_snapshot()

    @property
    def ring(self) -> Ring:
        """Ring in which the dealer issues correlated randomness."""
        return self._ring

    @property
    def triples_issued(self) -> int:
        """Number of scalar triples (or triple batches) issued so far."""
        return self._issued

    @property
    def largest_triple_elements(self) -> int:
        """Per-party ring elements of the largest single triple issued so far.

        One triple holds ``size(x) + size(y) + size(z)`` elements per party
        (a :meth:`mask` or :meth:`share` issue, the elements it deals); this
        is the dealer's peak *single-allocation* cost.  The blocked backend's
        largest issue is one column block's mask, ``O(n · block_size)``.
        """
        return self._largest_triple_elements

    @property
    def total_triple_elements(self) -> int:
        """Per-party ring elements summed over every triple issued so far."""
        return self._total_triple_elements

    def _record_issue(self, *parts: IntOrArray) -> None:
        elements = sum(int(np.size(part)) for part in parts)
        self._issued += 1
        self._total_triple_elements += elements
        if elements > self._largest_triple_elements:
            self._largest_triple_elements = elements

    def fingerprint(self) -> str:
        """Stable token of the randomness this dealer *started* from.

        Captured lazily but pinned on first use, so the token identifies the
        dealer's whole output stream regardless of how much has been drawn
        since.  The ``blocked`` backend's tile journal carries it, so a
        checkpoint never resumes into a count dealt from other randomness.
        """
        if self._fingerprint is None:
            self._fingerprint = dealer_fingerprint(self._seed)
        return self._fingerprint

    def absorb_accounting(self, issued: int, total_elements: int, largest_elements: int) -> None:
        """Fold a sub-dealer's tallies into this dealer.

        The parallel engine deals tile material through per-tile sub-dealers;
        the run-level accounting must read exactly as if this dealer had
        issued every triple itself.
        """
        if issued < 0 or total_elements < 0 or largest_elements < 0:
            raise DealerError("absorbed accounting tallies must be non-negative")
        self._issued += int(issued)
        self._total_triple_elements += int(total_elements)
        if largest_elements > self._largest_triple_elements:
            self._largest_triple_elements = int(largest_elements)

    def accounting(self) -> Tuple[int, int, int]:
        """The ``(issued, total_elements, largest_elements)`` tallies so far."""
        return (self._issued, self._total_triple_elements, self._largest_triple_elements)

    def state_snapshot(self) -> dict:
        """Everything a retried dealing attempt must be able to roll back.

        Covers the randomness position and the issue tallies, so an attempt
        that fails mid-deal can be undone and the retry deals byte-identical
        material from the same stream position (see :meth:`state_restore`).
        The per-server :meth:`streams` are not in it: :meth:`rewind`
        restarts them.
        """
        return {
            "rng": self._rng.bit_generator.state,
            "issued": self._issued,
            "largest": self._largest_triple_elements,
            "total": self._total_triple_elements,
        }

    def state_restore(self, snapshot: dict) -> None:
        """Roll the dealer back to a :meth:`state_snapshot` position."""
        self._rng.bit_generator.state = snapshot["rng"]
        self._issued = snapshot["issued"]
        self._largest_triple_elements = snapshot["largest"]
        self._total_triple_elements = snapshot["total"]

    def rewind(self) -> None:
        """Return to the state this dealer was created in, tallies included.

        The dealer then deals its streams again from the start: the blocked
        backend rewinds a column's sub-dealer before each chunk that masks
        that column, so every chunk sees the same mask, and a retried
        dealing task replays the identical randomness.
        """
        self.state_restore(self._origin)
        for stream in self._streams or ():
            stream.rewind()

    def streams(self) -> Tuple[MaterialStream, MaterialStream]:
        """Server 1's and server 2's :class:`MaterialStream`, spawned on first use.

        Their seeds are the PCG64 seeding words of the first two children of
        this dealer's seed sequence; spawning draws nothing from the
        dealer's own stream.
        """
        if self._streams is None:
            children = self._rng.bit_generator.seed_seq.spawn(2)
            self._streams = tuple(
                MaterialStream(self._ring, child.generate_state(4, np.uint64))
                for child in children
            )
        return self._streams

    def spawn_subdealers(self, count: int) -> list:
        """*count* dealers with independent substreams of this dealer's seed.

        The tile-parallel engine gives every schedule unit its own
        sub-dealer so tiles can be dealt concurrently, with each tile's
        correlated randomness a deterministic function of (dealer seed, tile
        index) — never of worker interleaving.  The spawn consumes no draws
        from this dealer's own stream.
        """
        if count < 0:
            raise DealerError(f"count must be non-negative, got {count}")
        self.fingerprint()  # pin the key before the seed sequence spawns
        from repro.utils.rng import spawn_rngs

        return [
            BeaverTripleDealer(ring=self._ring, seed=rng)
            for rng in spawn_rngs(self._rng, count)
        ]

    def mask(self, size: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A fresh uniform mask of *size* ring elements and its two shares.

        Returns ``(mask, share1, share2)``: each server's share is its
        :meth:`streams` draw, so a server holding its seed regenerates it,
        and the mask is their sum.  The plaintext mask stays with the
        dealer, which derives the mask products it hands out through
        :meth:`share`.  One issue of *size* elements.
        """
        fault_point("dealer.provision")
        share1, share2 = (stream.draw(size) for stream in self.streams())
        x = self._ring.add(share1, share2)
        self._record_issue(x)
        return x, share1, share2

    def share(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Two fresh shares of *values*, a vector the dealer derived from its masks.

        Server 1's share is its stream's next draw; server 2's is the
        correction ``values - share1``, the only half that must be shipped.
        """
        share1 = self.streams()[0].draw(np.size(values))
        self._record_issue(values)
        return share1, self._ring.sub(values, share1)

    def scalar_triple(self) -> BeaverTriplePair:
        """One triple with Python-int shares: the size-one case of :meth:`vector_triple`."""
        return self._pair(*(half[:, 0].tolist() for half in self._deal(1)))

    def vector_triple(self, shape: Tuple[int, ...]) -> BeaverTriplePair:
        """An element-wise triple batch of the given *shape*.

        Each triple is one element-major row of five uniforms — ``x``,
        ``y`` and server 1's share of each of ``x, y, z`` — so a triple's
        material depends only on its position in the dealer's stream:
        splitting a run of requests into other shapes deals the same
        triples.
        """
        if any(dim <= 0 for dim in shape):
            raise DealerError(f"triple batch shape must be positive, got {shape}")
        halves = self._deal(int(np.prod(shape)))
        return self._pair(*(half.reshape((3, *shape)) for half in halves))

    def _deal(self, size: int) -> Tuple[np.ndarray, np.ndarray]:
        """The next *size* triples: each server's ``(3, size)`` half, a view of element-major rows."""
        fault_point("dealer.provision")
        ring = self._ring
        draws = ring.random_array((size, 5), self._rng)
        share1 = draws[:, 2:]
        values = np.empty_like(share1)
        values[:, :2] = draws[:, :2]
        np.multiply(draws[:, 0], draws[:, 1], out=values[:, 2])
        share2 = np.subtract(values, share1, out=values)
        if ring.bits < 64:
            np.bitwise_and(share2, ring.dtype.type(ring.mask), out=share2)
        return share1.T, share2.T

    def _pair(self, shares1, shares2) -> BeaverTriplePair:
        self._record_issue(*shares1)
        return BeaverTriplePair(
            server1=BeaverTriple(*shares1), server2=BeaverTriple(*shares2), ring=self._ring
        )

    def matrix_triple(self, left_shape: Tuple[int, int], right_shape: Tuple[int, int]) -> BeaverTriplePair:
        """Sample a *matrix* triple ``Z = X @ Y`` for secure matrix products.

        Matrix triples let the servers multiply two secret-shared matrices
        with a single pair of openings, which is what makes the vectorised
        secure triangle count (``trace(A^3)``) practical.
        """
        if left_shape[1] != right_shape[0]:
            raise DealerError(
                f"inner dimensions must agree, got {left_shape} @ {right_shape}"
            )
        fault_point("dealer.provision")
        ring = self._ring
        x = ring.random_array(left_shape, self._rng)
        y = ring.random_array(right_shape, self._rng)
        # The derived product may be computed by the (bit-identical) parallel
        # matmul hook; the masks themselves always come from this dealer's
        # stream, so the dealt bytes are hook-independent.
        z = (self.matmul or ring.matmul)(x, y)
        x_pair = share_vector(x, ring=ring, rng=self._rng)
        y_pair = share_vector(y, ring=ring, rng=self._rng)
        z_pair = share_vector(z, ring=ring, rng=self._rng)
        self._record_issue(x, y, z)
        return BeaverTriplePair(
            server1=BeaverTriple(x=x_pair.share1, y=y_pair.share1, z=z_pair.share1),
            server2=BeaverTriple(x=x_pair.share2, y=y_pair.share2, z=z_pair.share2),
            ring=ring,
        )
