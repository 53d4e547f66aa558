"""The counting-backend contract shared by every `Count` implementation.

A *counting backend* is a strategy for executing Algorithm 4 (`Count`) on the
two servers' secret-shared adjacency rows.  All backends compute the identical
quantity

``T = sum_{i<j<k} a_ij * a_ik * a_jk``

over the same shares; they differ only in how the secure multiplications are
grouped into opening rounds (per triple, per batch, one monolithic matrix
product, or a stream of fixed-size tiles).  :class:`TriangleCounterBackend`
pins down the interface so the orchestrator (:class:`~repro.core.cargo.Cargo`)
can stay completely backend-agnostic, and the registry in
:mod:`repro.core.backends.registry` maps configuration names onto concrete
implementations.

This module also owns the two data-plane pieces every backend shares:
:class:`CountResult` (the pair of output shares) and the users' step
(:meth:`TriangleCounterBackend.upload`, which returns an :class:`Upload`).
By default it is :func:`share_adjacency_rows` / :func:`upload_adjacency_shares`,
in which every user sends server 1 a 32-byte seed instead of her share row
(:func:`adjacency_seeds`, :func:`expand_seeds`, :func:`server1_share`); the
mask-once backends replace it with a masked upload
(:func:`~repro.core.backends.blocked.upload_masked_input`).  User ``i``
uploads only her entries ``a_ij`` with ``j > i``, so each server holds one
packed strict upper triangle of ``n (n - 1) / 2`` entries
(:func:`upper_offset`).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.crypto.ring import DEFAULT_RING, Ring
from repro.crypto.views import ViewRecorder
from repro.exceptions import ProtocolError
from repro.telemetry import NULL_TELEMETRY, NULL_TRACER
from repro.utils.rng import RandomState, seeded_rng, spawn_state_matrix


@dataclass(frozen=True)
class CountResult:
    """Secret shares of the (unperturbed) triangle count held by S1 and S2.

    ``ring`` is the ring the shares live in.
    """

    share1: int
    share2: int
    num_triples_processed: int
    opening_rounds: int
    ring: Ring = DEFAULT_RING

    def reconstruct(self, ring: Optional[Ring] = None) -> int:
        """Recombine the two shares (used only by tests / the final analyst step).

        They recombine in *ring*, or in the shares' own ring when it is ``None``.
        """
        ring = self.ring if ring is None else ring
        return int(ring.decode_signed(ring.add(self.share1, self.share2)))


def num_candidate_triples(num_users: int) -> int:
    """``C(num_users, 3)`` — the size of Algorithm 4's candidate set.

    Every backend processes exactly this many three-way products (however it
    groups them into opening rounds), so the count lives here rather than in
    any one execution strategy.

    Examples
    --------
    >>> num_candidate_triples(6)
    20
    >>> num_candidate_triples(2)
    0
    """
    if num_users < 3:
        return 0
    return num_users * (num_users - 1) * (num_users - 2) // 6


def upper_offset(num_users: int, i, j):
    """Position of entry ``(i, j)``, ``i < j``, in a packed strict upper triangle.

    The packing is row by row: row ``i`` holds its ``n - 1 - i`` entries
    ``j > i``, so it starts at ``i (2n - i - 1) / 2``.  Works elementwise on
    integer index arrays.

    Examples
    --------
    >>> [upper_offset(4, i, j) for i in range(4) for j in range(i + 1, 4)]
    [0, 1, 2, 3, 4, 5]
    >>> upper_offset(1024, 1022, 1023) == 1024 * 1023 // 2 - 1
    True
    """
    return i * (2 * num_users - i - 1) // 2 + j - i - 1


def upper_users(size: int) -> int:
    """The ``n`` whose strict upper triangle has *size* entries.

    Raises :class:`~repro.exceptions.ProtocolError` when *size* is no
    triangular number.

    >>> upper_users(6), upper_users(1024 * 1023 // 2)
    (4, 1024)
    """
    num_users = (1 + math.isqrt(1 + 8 * int(size))) // 2
    if num_users * (num_users - 1) // 2 != size:
        raise ProtocolError(f"{size} entries are no strict upper triangle")
    return num_users


def upper_lengths(num_users: int) -> np.ndarray:
    """Entries row ``i`` of a packed strict upper triangle holds: ``n - 1 - i``."""
    return np.arange(num_users - 1, -1, -1)


def pack_upper(matrix: np.ndarray) -> np.ndarray:
    """The strict upper triangle of a square *matrix*, packed row by row."""
    return matrix[np.triu(np.ones(matrix.shape, dtype=bool), 1)]


def adjacency_seeds(num_users: int, rng: RandomState = None) -> np.ndarray:
    """Every user's 32-byte mask seed: a ``(num_users, 4)`` uint64 matrix.

    Row ``i`` holds the four words PCG64 seeds user ``i``'s mask stream from
    (:func:`~repro.utils.rng.spawn_state_matrix` with ``words=4``, the
    ``i``-th child *rng* spawns).  Spawning advances *rng*'s spawn counter by
    exactly *num_users*, as :func:`~repro.utils.rng.spawn_rngs` does.
    """
    return spawn_state_matrix(rng, num_users, words=4)


def expand_seeds(seeds: np.ndarray, lengths, ring: Ring = DEFAULT_RING) -> np.ndarray:
    """Each 32-byte seed's uniform ring row, of ``lengths[i]`` elements, concatenated.

    Row ``i`` is ``ring.random_array((lengths[i],), seeded_rng(seeds[i]))``.
    Users draw their masks with it, and the servers regenerate their halves
    of those rows from the same seeds, bit for bit, straight into one
    vector.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    lengths = [int(length) for length in lengths]
    if len(lengths) != seeds.shape[0]:
        raise ProtocolError(f"{seeds.shape[0]} seeds for {len(lengths)} row lengths")
    out = np.empty(sum(lengths), dtype=ring.dtype)
    start = 0
    for seed, length in zip(seeds, lengths):
        out[start : start + length] = ring.random_array((length,), seeded_rng(seed))
        start += length
    return out


def server1_share(seeds: np.ndarray, ring: Ring = DEFAULT_RING, tracer=NULL_TRACER) -> np.ndarray:
    """Server 1's packed share of ``C``, regenerated from the users' *seeds*.

    One :func:`expand_seeds` call with row ``i`` of ``n - 1 - i`` elements,
    inside an ``expand_seeds`` span of *tracer*: the distributed server 1's
    regeneration of the masks the users drew.
    """
    num_users = len(seeds)
    with tracer.span("expand_seeds", num_users=num_users):
        return expand_seeds(seeds, upper_lengths(num_users), ring)


def share_adjacency_rows(
    projected_rows: np.ndarray,
    ring: Ring = DEFAULT_RING,
    rng: RandomState = None,
    *,
    seeds: Optional[np.ndarray] = None,
    full_rows: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Each user secret-shares her projected bit vector with the two servers.

    User ``i`` shares ``a_ij`` for ``j > i`` only: the strict upper part
    ``C`` that Algorithm 4 reads.  Each server's share is one packed vector
    of ``n (n - 1) / 2`` entries, row ``i`` holding user ``i``'s ``n - 1 - i``
    (:func:`upper_offset`).  With *full_rows* every user shares her whole
    row and the shares are ``n × n`` matrices (the 4-cycle count reads
    ``a_vu`` below the diagonal).  User ``i``'s share for server 1 is a
    uniform mask she expands from her own 32-byte seed
    (:func:`adjacency_seeds` of *rng*, or the given *seeds*), so she can send
    server 1 the seed instead of the row; server 2's share is
    ``row - mask``, one ring subtraction.
    """
    rows = np.asarray(projected_rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
        raise ProtocolError(f"projected_rows must be a square matrix, got {rows.shape}")
    num_users = rows.shape[0]
    if seeds is None:
        seeds = adjacency_seeds(num_users, rng)
    secret = rows if full_rows else pack_upper(rows)
    lengths = [num_users] * num_users if full_rows else upper_lengths(num_users)
    masks = expand_seeds(seeds, lengths, ring).reshape(secret.shape)
    return masks, ring.sub(ring.encode(secret), masks)


def upload_adjacency_shares(
    projected_rows: np.ndarray,
    ring: Ring,
    rng: RandomState,
    runtime=None,
    tracer=NULL_TRACER,
    *,
    full_rows: bool = False,
    server1_tracer=NULL_TRACER,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The users' upload step of `Count`: share every row, book both uploads.

    Every user draws her 32-byte seed inside one ``share`` span of *tracer*,
    then :func:`share_adjacency_rows` (with *full_rows*) expands the masks
    and server 2's share.  With a *runtime*
    (:class:`~repro.crypto.protocol.TwoServerRuntime`) the two
    ``adjacency_share`` uploads are booked on its ledger: every user sends
    server 1 her seed and server 2 her share row, ``n - 1 - i`` elements for
    user ``i`` (``n`` with *full_rows*).  Returns ``(seeds, share1, share2)``.

    The masks are server 1's share, which the distributed server 1
    regenerates from the seeds in an ``expand_seeds`` span
    (:func:`server1_share`).  The in-process engine plays server 1 as well:
    it passes its tracer as *server1_tracer*, and the one expansion runs in
    that span, so both transports record the same span tree.
    """
    num_users = int(np.asarray(projected_rows).shape[0])
    with tracer.span("share", num_users=num_users):
        seeds = adjacency_seeds(num_users, rng)
    with server1_tracer.span("expand_seeds", num_users=num_users):
        share1, share2 = share_adjacency_rows(
            projected_rows, ring=ring, seeds=seeds, full_rows=full_rows
        )
    if runtime is not None:
        runtime.users_to_server(1, "adjacency_share", seeds)
        runtime.ledger.record(
            f"users->{runtime.SERVER2}",
            None,
            phase="adjacency_share",
            messages=num_users,
            total_bytes=share2.nbytes,
        )
    return seeds, share1, share2


@dataclass(frozen=True)
class Upload:
    """The users' step of `Count`: what reaches each server.

    ``sent`` is the pair of payloads the users send server 1 and server 2
    (on the default path, server 1 gets the users' 32-byte seeds);
    ``inputs`` is each server's input to
    :meth:`TriangleCounterBackend.count_from_shares`.
    """

    sent: Tuple[np.ndarray, np.ndarray]
    inputs: Tuple[np.ndarray, np.ndarray]


class TriangleCounterBackend(abc.ABC):
    """Abstract base class for secure triangle-counting backends.

    Concrete backends implement :meth:`count_from_shares` (the server-side
    protocol) and :meth:`from_config` (construction from a
    :class:`~repro.core.config.CargoConfig`); :meth:`upload` is the users'
    step that produces its inputs, and the shared :meth:`count` convenience
    runs one after the other.  Register an implementation with
    :func:`~repro.core.backends.registry.register_backend` to make it
    selectable by name through ``CargoConfig(counting_backend=...)``.
    """

    #: Whether the users upload ``C`` masked by dealt row masks to both
    #: servers instead of sharing it (the mask-once backends).  Such a
    #: backend's :meth:`upload` takes the dealer's ``input_seeds``.
    masked_input = False

    def __init__(
        self,
        ring: Ring = DEFAULT_RING,
        views: Optional[ViewRecorder] = None,
        telemetry=None,
        authenticator=None,
    ) -> None:
        self._ring = ring
        self._views = views
        # The no-op bundle when the run is untraced — backends instrument
        # unconditionally and the disabled tracer swallows every span.
        self._telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Optional MAC authenticator; when set, every opening round this
        # backend performs is routed through its batched MAC check.
        self._authenticator = authenticator

    @property
    def ring(self) -> Ring:
        """The secret-sharing ring in use."""
        return self._ring

    @classmethod
    @abc.abstractmethod
    def from_config(
        cls,
        config,
        dealer_rng: RandomState = None,
        views: Optional[ViewRecorder] = None,
    ) -> "TriangleCounterBackend":
        """Build a backend instance from a :class:`~repro.core.config.CargoConfig`.

        *config* is duck-typed: only the attributes a backend actually uses
        (``ring``, ``batch_size``, ``block_size``, …) are read, so third-party
        configs can plug in.  Built-in backends additionally accept an
        ``authenticator`` keyword (forwarded by
        :func:`~repro.core.backends.registry.create_backend` only when the
        signature declares it) that MAC-checks every opening round.
        """

    @abc.abstractmethod
    def count_from_shares(self, share1: np.ndarray, share2: np.ndarray) -> CountResult:
        """Run the secure count on each server's input, ``upload(...).inputs``."""

    def upload(
        self,
        projected_rows: np.ndarray,
        rng: RandomState = None,
        runtime=None,
        tracer=NULL_TRACER,
        *,
        server1_tracer=NULL_TRACER,
    ) -> Upload:
        """The users' step: every user secret-shares her row (:func:`upload_adjacency_shares`).

        Server 1 is sent the users' seeds and server 2 their packed share;
        the inputs are both servers' packed shares of ``C``.  A mask-once
        backend (:attr:`masked_input`) overrides it: its users draw nothing
        (*rng* and *server1_tracer* are unused) and it takes the dealer's
        row seeds as keyword ``input_seeds=`` when another process dealt
        them.
        """
        seeds, share1, share2 = upload_adjacency_shares(
            projected_rows, self._ring, rng, runtime, tracer, server1_tracer=server1_tracer
        )
        return Upload(sent=(seeds, share2), inputs=(share1, share2))

    def count(self, projected_rows: np.ndarray, rng: RandomState = None) -> CountResult:
        """Run the users' step (:meth:`upload`) and then the secure count."""
        return self.count_from_shares(*self.upload(projected_rows, rng).inputs)

    def _validate_shares(
        self, share1: np.ndarray, share2: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Coerce both packed shares to the ring dtype; return them and ``n``.

        Each share must be one vector of ``n (n - 1) / 2`` entries, the
        packed strict upper triangle :func:`share_adjacency_rows` returns.
        """
        share1 = np.asarray(share1, dtype=self._ring.dtype)
        share2 = np.asarray(share2, dtype=self._ring.dtype)
        if share1.shape != share2.shape or share1.ndim != 1:
            raise ProtocolError(
                "shares must be packed strict upper triangles of one length, "
                f"got shapes {share1.shape} and {share2.shape}"
            )
        return share1, share2, upper_users(share1.size)
