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

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.backends.base import CountResult
from repro.crypto.protocol import TwoServerRuntime
from repro.crypto.ring import DEFAULT_RING, Ring
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

    def run(
        self,
        count_result: CountResult,
        rng: RandomState = None,
        runtime: Optional[TwoServerRuntime] = None,
        authenticator=None,
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
            so they appear in the communication ledger.
        authenticator:
            Optional :class:`~repro.crypto.mac.OpeningAuthenticator`.  The
            final reconstruction is the one opening every statistic performs
            (degree-local statistics have no other), so routing it through
            the MAC check means even a zero-round count cannot be tampered
            with undetected.
        """
        ring = self._ring
        noise = self._noise
        factor = noise.fixed_point_factor
        num_users = noise.num_users

        # Servers locally lift their count shares to the fixed-point domain.
        scaled_share1 = ring.mul(ring.encode(count_result.share1), factor)
        scaled_share2 = ring.mul(ring.encode(count_result.share2), factor)

        if stacked_noise_supported():
            # Loop-free noise plane: three uint64 words per user, drawn from
            # her own spawned substream — two become the uniforms behind the
            # inverse-CDF Gamma difference, the third is her sharing mask.
            states = spawn_state_matrix(rng, num_users, words=3)
            gammas = noise.sample_noises_from_uniforms(
                uniforms_from_states(states[:, 0]), uniforms_from_states(states[:, 1])
            )
            encoded = noise.encode_array(gammas)
            noise_total_encoded = int(np.sum(encoded.astype(object)))
            encoded_ring = ring.encode(encoded)
            share1_plane = states[:, 2] & np.uint64(ring.mask)
            share2_plane = ring.sub(encoded_ring, share1_plane)
            agg_share1 = ring.sum(share1_plane)
            agg_share2 = ring.sum(share2_plane)
            if runtime is not None:
                runtime.users_to_server(1, "noise_share", share1_plane)
                runtime.users_to_server(2, "noise_share", share2_plane)
        else:
            user_rngs = spawn_rngs(rng if rng is not None else derive_rng(None), num_users)
            noise_total_encoded = 0
            agg_share1 = 0
            agg_share2 = 0
            share1_list = []
            share2_list = []
            for user_rng in user_rngs:
                gamma = noise.sample_user_noise(user_rng)
                encoded_value = noise.encode(gamma)
                noise_total_encoded += encoded_value
                pair = share_scalar(encoded_value, ring=ring, rng=user_rng)
                agg_share1 = ring.add(agg_share1, pair.share1)
                agg_share2 = ring.add(agg_share2, pair.share2)
                share1_list.append(pair.share1)
                share2_list.append(pair.share2)
            if runtime is not None:
                runtime.users_to_server(1, "noise_share", np.asarray(share1_list, dtype=ring.dtype))
                runtime.users_to_server(2, "noise_share", np.asarray(share2_list, dtype=ring.dtype))

        noisy_share1 = ring.add(scaled_share1, agg_share1)
        noisy_share2 = ring.add(scaled_share2, agg_share2)
        if runtime is not None:
            runtime.server_to_server(1, 2).send("noisy_count_share", noisy_share1)
            runtime.server_to_server(2, 1).send("noisy_count_share", noisy_share2)

        if authenticator is not None:
            (opened,) = authenticator.exchange(
                "release_opening", [(noisy_share1, noisy_share2)]
            )
        else:
            opened = ring.add(noisy_share1, noisy_share2)
        combined = ring.decode_signed(opened)
        noisy_count = combined / factor
        return PerturbationResult(
            noisy_count=float(noisy_count),
            aggregate_noise=noise.decode(noise_total_encoded),
            noisy_share1=int(noisy_share1),
            noisy_share2=int(noisy_share2),
            epsilon2=noise.epsilon,
            sensitivity=noise.sensitivity,
        )
