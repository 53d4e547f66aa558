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
upload step).
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
from repro.utils.rng import RandomState, derive_rng, spawn_rngs


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


def share_adjacency_rows(
    projected_rows: np.ndarray,
    ring: Ring = DEFAULT_RING,
    rng: RandomState = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Each user secret-shares her projected bit vector with the two servers.

    Returns the two servers' share matrices (same shape as the input).  Each
    row's mask comes from its own spawned generator so the sharing mirrors the
    distributed setting where users do not coordinate masks, but each user's
    whole row is drawn in a single vectorised call and the ``share2 = row -
    mask`` computation is one matrix-level ring subtraction, so the hot path
    stays out of per-element Python.
    """
    rows = np.asarray(projected_rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
        raise ProtocolError(f"projected_rows must be a square matrix, got {rows.shape}")
    num_users = rows.shape[0]
    encoded = ring.encode(rows)
    masks = np.empty(rows.shape, dtype=ring.dtype)
    user_rngs = spawn_rngs(rng if rng is not None else derive_rng(None), num_users)
    for user, user_rng in enumerate(user_rngs):
        masks[user] = ring.random_array((num_users,), user_rng)
    return masks, ring.sub(encoded, masks)


def upload_adjacency_shares(
    projected_rows: np.ndarray,
    ring: Ring,
    rng: RandomState,
    runtime=None,
    tracer=NULL_TRACER,
) -> Tuple[np.ndarray, np.ndarray]:
    """The users' upload step of `Count`: share every row, book both uploads.

    Runs :func:`share_adjacency_rows` inside one ``share`` span of *tracer*
    and, with a *runtime* (:class:`~repro.crypto.protocol.TwoServerRuntime`),
    books the two ``adjacency_share`` uploads on its ledger.  Returns the two
    servers' share matrices.
    """
    with tracer.span("share", num_users=int(np.asarray(projected_rows).shape[0])):
        share1, share2 = share_adjacency_rows(projected_rows, ring=ring, rng=rng)
        if runtime is not None:
            runtime.users_to_server(1, "adjacency_share", share1)
            runtime.users_to_server(2, "adjacency_share", share2)
    return share1, share2


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
