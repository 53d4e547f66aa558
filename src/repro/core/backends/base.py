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
:class:`CountResult` (the pair of output shares) and
:func:`share_adjacency_rows` / :func:`upload_adjacency_shares` (the users'
upload step, in which every user sends server 1 a 32-byte seed instead of
her share row: :func:`adjacency_seeds`, :func:`expand_seeds`).
"""

from __future__ import annotations

import abc
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
    """Secret shares of the (unperturbed) triangle count held by S1 and S2."""

    share1: int
    share2: int
    num_triples_processed: int
    opening_rounds: int

    def reconstruct(self, ring: Ring = DEFAULT_RING) -> int:
        """Recombine the two shares (used only by tests / the final analyst step)."""
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


def adjacency_seeds(num_users: int, rng: RandomState = None) -> np.ndarray:
    """Every user's 32-byte mask seed: a ``(num_users, 4)`` uint64 matrix.

    Row ``i`` holds the four words PCG64 seeds user ``i``'s mask stream from
    (:func:`~repro.utils.rng.spawn_state_matrix` with ``words=4``, the
    ``i``-th child *rng* spawns).  Spawning advances *rng*'s spawn counter by
    exactly *num_users*, as :func:`~repro.utils.rng.spawn_rngs` does.
    """
    return spawn_state_matrix(rng, num_users, words=4)


def expand_seeds(seeds: np.ndarray, length: int, ring: Ring = DEFAULT_RING) -> np.ndarray:
    """One uniform ring vector of *length* elements per 32-byte seed, stacked.

    Row ``i`` is ``ring.random_array((length,), seeded_rng(seeds[i]))``.
    Users draw their masks with it, and server 1 regenerates its share of
    their rows from the seeds they send it, bit for bit.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    out = np.empty((seeds.shape[0], int(length)), dtype=ring.dtype)
    for row, seed in enumerate(seeds):
        out[row] = ring.random_array((int(length),), seeded_rng(seed))
    return out


def share_adjacency_rows(
    projected_rows: np.ndarray,
    ring: Ring = DEFAULT_RING,
    rng: RandomState = None,
    *,
    seeds: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Each user secret-shares her projected bit vector with the two servers.

    Returns the two servers' share matrices (same shape as the input).  User
    ``i``'s share for server 1 is a uniform mask she expands from her own
    32-byte seed (:func:`adjacency_seeds` of *rng*, or the given *seeds*), so
    she can send server 1 the seed instead of the row; server 2's share is
    ``row - mask``, one matrix-level ring subtraction.
    """
    rows = np.asarray(projected_rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
        raise ProtocolError(f"projected_rows must be a square matrix, got {rows.shape}")
    num_users = rows.shape[0]
    if seeds is None:
        seeds = adjacency_seeds(num_users, rng)
    masks = expand_seeds(seeds, num_users, ring)
    return masks, ring.sub(ring.encode(rows), masks)


def upload_adjacency_shares(
    projected_rows: np.ndarray,
    ring: Ring,
    rng: RandomState,
    runtime=None,
    tracer=NULL_TRACER,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The users' upload step of `Count`: share every row, book both uploads.

    Runs :func:`share_adjacency_rows` inside one ``share`` span of *tracer*
    and, with a *runtime* (:class:`~repro.crypto.protocol.TwoServerRuntime`),
    books the two ``adjacency_share`` uploads on its ledger: every user sends
    server 1 her 32-byte seed and server 2 her ``n``-element share row.
    Returns ``(seeds, share1, share2)``; ``share1`` is what server 1 expands
    from the seeds (:func:`expand_seeds`).
    """
    num_users = int(np.asarray(projected_rows).shape[0])
    with tracer.span("share", num_users=num_users):
        seeds = adjacency_seeds(num_users, rng)
        share1, share2 = share_adjacency_rows(projected_rows, ring=ring, seeds=seeds)
        if runtime is not None:
            runtime.users_to_server(1, "adjacency_share", seeds)
            runtime.users_to_server(2, "adjacency_share", share2)
    return seeds, share1, share2


class TriangleCounterBackend(abc.ABC):
    """Abstract base class for secure triangle-counting backends.

    Concrete backends implement :meth:`count_from_shares` (the server-side
    protocol) and :meth:`from_config` (construction from a
    :class:`~repro.core.config.CargoConfig`); the shared :meth:`count`
    convenience performs the users' sharing step first.  Register an
    implementation with
    :func:`~repro.core.backends.registry.register_backend` to make it
    selectable by name through ``CargoConfig(counting_backend=...)``.
    """

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
        """Run the secure count given each server's share matrix."""

    def count(self, projected_rows: np.ndarray, rng: RandomState = None) -> CountResult:
        """Share the rows on behalf of the users and run the secure count."""
        share1, share2 = share_adjacency_rows(projected_rows, ring=self._ring, rng=rng)
        return self.count_from_shares(share1, share2)

    def _validate_share_matrices(
        self, share1: np.ndarray, share2: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Coerce both share matrices to the ring dtype and check their shapes."""
        share1 = np.asarray(share1, dtype=self._ring.dtype)
        share2 = np.asarray(share2, dtype=self._ring.dtype)
        if (
            share1.shape != share2.shape
            or share1.ndim != 2
            or share1.shape[0] != share1.shape[1]
        ):
            raise ProtocolError(
                "share matrices must have identical square shapes, "
                f"got {share1.shape} and {share2.shape}"
            )
        return share1, share2
