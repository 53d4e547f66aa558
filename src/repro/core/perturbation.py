"""Algorithm 5 — `Perturb`: distributed perturbation of the shared count.

Each user samples an integer partial noise ``γ_i = X_i − Y_i`` with ``X_i,
Y_i ~ NB(1/n, 1 − α)`` and ``α = e^(−ε2/Δ)``
(:mod:`repro.dp.discrete_laplace`), splits it into two additive shares, and
sends one share to each server.  Each server sums the ``n`` noise shares it
received and adds the sum to its share of the count.  Reconstructing the two
noisy shares therefore yields ``T + N`` with ``N`` exactly discrete Laplace —
the mechanism a trusted central server would have applied, but with no party
ever observing the raw count or any individual noise contribution.  The noise
is an integer, so `Count` and `Perturb` share one ring and nothing is
rescaled between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.backends.base import CountResult
from repro.crypto.protocol import TwoServerRuntime
from repro.crypto.ring import DEFAULT_RING, Ring
from repro.crypto.secure_ops import PlainOpener
from repro.dp.discrete_laplace import DistributedDiscreteLaplace
from repro.exceptions import ProtocolError
from repro.utils.rng import RandomState, derive_rng


#: A derived ring overflows on a release with probability at most
#: ``2^-OVERFLOW_TAIL_BITS``: the noise tail its headroom leaves out.
OVERFLOW_TAIL_BITS = 40


def required_ring_bits(output_bound: int, *, sensitivity: float, epsilon2: float) -> int:
    """Fewest ring bits that hold `Perturb`'s opened value for an output up to *output_bound*.

    The opened value is ``T + N``: the raw secure output ``0 ≤ T ≤
    output_bound`` plus the users' discrete Laplace noise with ``α =
    e^(−1/λ)``, ``λ = sensitivity / ε2``.  ``P(|N| ≥ m) = 2α^m / (1 + α) ≤
    2e^(−m/λ)``, which is at most ``2^-OVERFLOW_TAIL_BITS`` at ``m =
    ⌈(OVERFLOW_TAIL_BITS + 1) · ln 2 · λ⌉``.  So ``|T + N| < B =
    output_bound + m`` but for that tail, and the ring needs ``B``'s bit
    length plus a sign bit.

    >>> required_ring_bits(0, sensitivity=1.0, epsilon2=1.0)
    6
    >>> required_ring_bits(2**20, sensitivity=1.0, epsilon2=1.0)
    22
    """
    tail = math.ceil((OVERFLOW_TAIL_BITS + 1) * math.log(2) * sensitivity / epsilon2)
    return (int(output_bound) + tail).bit_length() + 1


@dataclass(frozen=True)
class PerturbationResult:
    """Output of the `Perturb` step.

    Attributes
    ----------
    noisy_count:
        The reconstructed, noise-protected count ``T'`` (an integer-valued
        float: the count and its discrete Laplace noise are integers).
    aggregate_noise:
        The total noise that was added (available because the experiments
        need to decompose error sources; a deployment would not reveal it).
    noisy_share1 / noisy_share2:
        The two servers' shares of the noisy count prior to the final
        reconstruction.
    epsilon2:
        The budget spent by this invocation.
    sensitivity:
        The sensitivity (``d'_max``) used for the noise scale.
    """

    noisy_count: float
    aggregate_noise: float
    noisy_share1: int
    noisy_share2: int
    epsilon2: float
    sensitivity: float


class DistributedPerturbation:
    """Runs the `Perturb` protocol.

    Parameters
    ----------
    epsilon2:
        Budget for the count perturbation.
    sensitivity:
        Sensitivity of the projected count; CARGO uses the noisy maximum
        degree ``d'_max``.
    num_users:
        Number of users contributing partial noise.
    ring:
        The release's ring: the count shares arrive in it, and the noise
        shares are drawn in it.
    """

    def __init__(
        self,
        epsilon2: float,
        sensitivity: float,
        num_users: int,
        ring: Ring = DEFAULT_RING,
    ) -> None:
        self._ring = ring
        self._noise = DistributedDiscreteLaplace(
            epsilon=epsilon2, sensitivity=sensitivity, num_users=num_users
        )

    @property
    def noise_config(self) -> DistributedDiscreteLaplace:
        """The distributed-noise configuration (α, scale, variance)."""
        return self._noise

    def noise_planes(self, rng: RandomState = None) -> Tuple[np.ndarray, np.ndarray, int]:
        """The users' step of `Perturb`: both servers' noise-share planes.

        Draws every user's partial noise, then every user's sharing mask,
        from *rng*; entry ``i`` of each returned plane is user ``i``'s share
        for that server.  The noise is drawn first, so it does not depend on
        the ring's width.  Also returns the noise total (evaluation only —
        a deployment never learns it).
        """
        ring = self._ring
        generator = derive_rng(rng)
        noises = self._noise.sample_partial_noises(generator)
        share1_plane = ring.random_array(noises.shape, generator)
        share2_plane = ring.sub(ring.encode(noises), share1_plane)
        return share1_plane, share2_plane, int(noises.sum())

    def run(
        self,
        count_result: CountResult,
        rng: RandomState = None,
        runtime: Optional[TwoServerRuntime] = None,
        servers=None,
    ) -> PerturbationResult:
        """Execute `Perturb` on the secret-shared count.

        Parameters
        ----------
        count_result:
            The two servers' shares of the true (projected) count, in this
            instance's ring; shares from another ring raise
            :class:`~repro.exceptions.ProtocolError`, since they would add
            to the noise without reducing to the count.
        rng:
            Seed or generator the users' noise and masks are drawn from.
        runtime:
            Optional communication runtime; when given, each user's two noise
            shares and the final cross-server exchange are routed through it
            so they appear in the communication ledger.  Ignored when
            *servers* is given: the seam carries its own ledger.
        servers:
            Optional servers seam of :meth:`~repro.core.cargo.Cargo._run_protocol`;
            its ``release`` runs the servers' step (an authenticated seam
            routes the final reconstruction through its MAC check).  ``None``
            runs :func:`release_opening` here with a plain opener.
        """
        ring = self._ring
        noise = self._noise
        if count_result.ring != ring:
            raise ProtocolError(
                f"Perturb runs in a {ring.bits}-bit ring but the count shares "
                f"are in a {count_result.ring.bits}-bit ring"
            )

        if servers is not None:
            runtime = servers.runtime
        share1_plane, share2_plane, noise_total = self.noise_planes(rng)
        if runtime is not None:
            runtime.users_to_server(1, "noise_share", share1_plane)
            runtime.users_to_server(2, "noise_share", share2_plane)
        planes = (share1_plane, share2_plane)
        if servers is not None:
            noisy_shares, opened = servers.release(count_result, planes)
        else:
            noisy_shares, opened = release_opening(
                (count_result.share1, count_result.share2), planes, ring, PlainOpener(ring)
            )
        noisy_share1, noisy_share2 = noisy_shares
        if runtime is not None:
            runtime.server_to_server(1, "noisy_count_share", noisy_share1)
            runtime.server_to_server(2, "noisy_count_share", noisy_share2)
        return PerturbationResult(
            noisy_count=float(ring.decode_signed(opened)),
            aggregate_noise=float(noise_total),
            noisy_share1=int(noisy_share1),
            noisy_share2=int(noisy_share2),
            epsilon2=noise.epsilon,
            sensitivity=noise.sensitivity,
        )


def release_opening(count_shares, planes, ring: Ring, opener):
    """The servers' step of `Perturb`, for the roles *opener* holds.

    Each held role adds the sum of its noise plane to its count share, and
    the noisy shares are opened in one ``release_opening`` round.  Returns
    the noisy shares (one per held role) and the opened value.
    :meth:`DistributedPerturbation.run` calls it with both shares and a
    local opener; a runtime server process calls it with its own share, its
    own plane and its peer channel.
    """
    noisy = tuple(
        ring.add(ring.encode(int(share)), ring.sum(plane))
        for share, plane in zip(count_shares, planes)
    )
    (opened,) = opener.exchange("release_opening", [noisy])
    return noisy, opened
