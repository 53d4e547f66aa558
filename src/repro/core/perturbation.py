"""Algorithm 5 — `Perturb`: distributed perturbation of the shared count.

Each user samples a partial noise ``γ_i = Gamma(1/n, λ) - Gamma(1/n, λ)``
with ``λ = d'_max / ε2``, fixed-point encodes it, splits it into two additive
shares, and sends one share to each server.  Each server sums the ``n`` noise
shares it received and adds the sum to its share of the (fixed-point scaled)
triangle count.  Reconstructing the two noisy shares therefore yields
``T + Lap(d'_max / ε2)`` up to fixed-point rounding — exactly the Laplace
mechanism a trusted central server would have applied, but with no party ever
observing the raw count or any individual noise contribution.
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
from repro.crypto.sharing import share_scalar
from repro.dp.gamma_noise import DistributedLaplaceNoise, stacked_noise_supported
from repro.exceptions import PrivacyError
from repro.utils.rng import (
    RandomState,
    derive_rng,
    spawn_rngs,
    spawn_state_matrix,
    uniforms_from_states,
)


#: A derived ring overflows on a release with probability at most
#: ``2^-OVERFLOW_TAIL_BITS``: the Laplace tail its noise headroom leaves out.
OVERFLOW_TAIL_BITS = 40


def required_ring_bits(
    output_bound: int,
    *,
    sensitivity: float,
    epsilon2: float,
    num_users: int,
    fixed_point_bits: int,
) -> int:
    """Fewest ring bits that hold `Perturb`'s opened value for an output up to *output_bound*.

    The opened value is ``T · 2^f + N``: the raw secure output ``0 ≤ T ≤
    output_bound`` in fixed point, plus the users' encoded noises.  Their sum
    is within ``n / 2`` of ``2^f`` times a Laplace draw of scale ``λ =
    sensitivity / ε2``, which exceeds ``t = OVERFLOW_TAIL_BITS · ln 2 · λ`` in
    magnitude with probability ``e^(−t/λ) = 2^-OVERFLOW_TAIL_BITS``.  So
    ``|T · 2^f + N| ≤ B = output_bound · 2^f + ⌈t · 2^f⌉ + ⌈n / 2⌉`` but for
    that tail, and the ring needs ``B``'s bit length plus a sign bit.

    >>> required_ring_bits(0, sensitivity=1.0, epsilon2=1.0, num_users=1, fixed_point_bits=0)
    6
    >>> required_ring_bits(2**20, sensitivity=1.0, epsilon2=1.0, num_users=1, fixed_point_bits=16)
    38
    """
    factor = 1 << fixed_point_bits
    tail = math.ceil(OVERFLOW_TAIL_BITS * math.log(2) * sensitivity / epsilon2 * factor)
    bound = int(output_bound) * factor + tail + -(-num_users // 2)
    return bound.bit_length() + 1


@dataclass(frozen=True)
class PerturbationResult:
    """Output of the `Perturb` step.

    Attributes
    ----------
    noisy_count:
        The reconstructed, noise-protected triangle count ``T'`` (a float —
        the Laplace noise is real-valued).
    aggregate_noise:
        The total noise that was added (available because the experiments
        need to decompose error sources; a deployment would not reveal it).
    noisy_share1 / noisy_share2:
        The two servers' shares of the fixed-point noisy count prior to the
        final reconstruction.
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
        Budget for the triangle-count perturbation.
    sensitivity:
        Sensitivity of the projected triangle count; CARGO uses the noisy
        maximum degree ``d'_max``.
    num_users:
        Number of users contributing partial noise.
    ring:
        Secret-sharing ring for the noise shares.
    fixed_point_bits:
        Fractional bits for embedding real noise in the ring.
    """

    def __init__(
        self,
        epsilon2: float,
        sensitivity: float,
        num_users: int,
        ring: Ring = DEFAULT_RING,
        fixed_point_bits: int = 16,
    ) -> None:
        if num_users <= 0:
            raise PrivacyError(f"num_users must be positive, got {num_users}")
        self._ring = ring
        self._noise = DistributedLaplaceNoise(
            epsilon=epsilon2,
            sensitivity=sensitivity,
            num_users=num_users,
            fixed_point_bits=fixed_point_bits,
        )

    @property
    def noise_config(self) -> DistributedLaplaceNoise:
        """The distributed-noise configuration (scale, encoding factor)."""
        return self._noise

    def noise_planes(self, rng: RandomState = None) -> Tuple[np.ndarray, np.ndarray, int]:
        """The users' step of `Perturb`: both servers' noise-share planes.

        Every user draws a partial noise from their own substream of *rng*,
        fixed-point encodes it and splits it into two additive shares; entry
        ``i`` of each returned plane is user ``i``'s share for that server.
        Also returns the encoded noise total (evaluation only — a deployment
        never learns it).
        """
        ring = self._ring
        noise = self._noise
        num_users = noise.num_users
        if stacked_noise_supported():
            # Loop-free noise plane: three uint64 words per user, drawn from
            # the user's own spawned substream — two become the uniforms behind
            # the inverse-CDF Gamma difference, the third is the sharing mask.
            states = spawn_state_matrix(rng, num_users, words=3)
            gammas = noise.sample_noises_from_uniforms(
                uniforms_from_states(states[:, 0]), uniforms_from_states(states[:, 1])
            )
            encoded = noise.encode_array(gammas)
            share1_plane = states[:, 2] & np.uint64(ring.mask)
            share2_plane = ring.sub(ring.encode(encoded), share1_plane)
            return share1_plane, share2_plane, int(np.sum(encoded.astype(object)))
        noise_total_encoded = 0
        share1_list = []
        share2_list = []
        for user_rng in spawn_rngs(rng if rng is not None else derive_rng(None), num_users):
            encoded_value = noise.encode(noise.sample_user_noise(user_rng))
            noise_total_encoded += encoded_value
            pair = share_scalar(encoded_value, ring=ring, rng=user_rng)
            share1_list.append(pair.share1)
            share2_list.append(pair.share2)
        return (
            np.asarray(share1_list, dtype=ring.dtype),
            np.asarray(share2_list, dtype=ring.dtype),
            noise_total_encoded,
        )

    def run(
        self,
        count_result: CountResult,
        rng: RandomState = None,
        runtime: Optional[TwoServerRuntime] = None,
        servers=None,
    ) -> PerturbationResult:
        """Execute `Perturb` on the secret-shared triangle count.

        Parameters
        ----------
        count_result:
            The two servers' shares of the true (projected) triangle count.
        rng:
            Seed or generator; every user derives an independent substream.
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
        factor = noise.fixed_point_factor

        if servers is not None:
            runtime = servers.runtime
        share1_plane, share2_plane, noise_total_encoded = self.noise_planes(rng)
        if runtime is not None:
            runtime.users_to_server(1, "noise_share", share1_plane)
            runtime.users_to_server(2, "noise_share", share2_plane)
        planes = (share1_plane, share2_plane)
        if servers is not None:
            noisy_shares, opened = servers.release(count_result, planes, factor)
        else:
            noisy_shares, opened = release_opening(
                (count_result.share1, count_result.share2), planes, factor, ring, PlainOpener(ring)
            )
        noisy_share1, noisy_share2 = noisy_shares
        if runtime is not None:
            runtime.server_to_server(1, "noisy_count_share", noisy_share1)
            runtime.server_to_server(2, "noisy_count_share", noisy_share2)
        return PerturbationResult(
            noisy_count=float(ring.decode_signed(opened) / factor),
            aggregate_noise=noise.decode(noise_total_encoded),
            noisy_share1=int(noisy_share1),
            noisy_share2=int(noisy_share2),
            epsilon2=noise.epsilon,
            sensitivity=noise.sensitivity,
        )


def release_opening(count_shares, planes, factor: int, ring: Ring, opener):
    """The servers' step of `Perturb`, for the roles *opener* holds.

    Each held role lifts its count share to the fixed-point domain, adds the
    sum of its noise plane, and the noisy shares are opened in one
    ``release_opening`` round.  Returns the noisy shares (one per held role)
    and the opened value.  :meth:`DistributedPerturbation.run` calls it with
    both shares and a local opener; a runtime server process calls it with
    its own share, its own plane and its peer channel.
    """
    noisy = tuple(
        ring.add(ring.mul(ring.encode(int(share)), factor), ring.sum(plane))
        for share, plane in zip(count_shares, planes)
    )
    (opened,) = opener.exchange("release_opening", [noisy])
    return noisy, opened
