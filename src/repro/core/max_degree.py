"""Algorithm 2 — `Max`: private estimation of the maximum degree.

Each user adds ``Lap(1/ε1)`` to her own degree (the Edge-LDP sensitivity of a
single degree is 1 because the two directions of an edge are distinct
secrets) and sends the noisy degree to one of the servers.  The server
returns the maximum of the noisy degrees as ``d'_max``, which the projection
step then uses as the degree bound.

The noisy degrees themselves (``D'``) are also returned because Algorithm 3
uses the *neighbours'* noisy degrees when computing degree similarities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.crypto.protocol import TwoServerRuntime
from repro.dp.mechanisms import LaplaceMechanism
from repro.exceptions import PrivacyError
from repro.utils.rng import RandomState, spawn_state_matrix, uniforms_from_states


@dataclass(frozen=True)
class MaxDegreeResult:
    """Output of the `Max` algorithm.

    Attributes
    ----------
    noisy_degrees:
        The noisy degree set ``D' = {d'_1, ..., d'_n}`` (floats).
    noisy_max_degree:
        ``d'_max = max(D')`` — the projection parameter and the sensitivity
        used by `Perturb`, clamped to ``[1, n - 1]`` by
        :func:`clamp_max_degree`.
    epsilon1:
        The budget spent by this invocation.
    """

    noisy_degrees: List[float]
    noisy_max_degree: float
    epsilon1: float


def clamp_max_degree(noisy_degrees) -> float:
    """Server ``S1``'s step of `Max`: ``d'_max`` from the users' noisy degrees.

    The maximum noisy degree, clamped to ``[1, n - 1]``: no degree can
    exceed ``n - 1`` (the Laplace tail can, at very small ε1), and the floor
    at 1 keeps downstream scale parameters positive.  With one user the
    range collapses to 1.  The in-process engine and the runtime's server
    process both call this.

    Examples
    --------
    >>> clamp_max_degree([2.5, 40.0, -3.0])
    2.0
    >>> clamp_max_degree([0.2, -1.0])
    1.0
    """
    noisy = np.asarray(noisy_degrees, dtype=np.float64)
    return min(max(float(np.max(noisy)), 1.0), float(max(noisy.size - 1, 1)))


class MaxDegreeEstimator:
    """Runs the `Max` protocol for a collection of users.

    Parameters
    ----------
    epsilon1:
        The Edge-LDP budget each user spends on her noisy degree.
    """

    def __init__(self, epsilon1: float) -> None:
        if epsilon1 <= 0:
            raise PrivacyError(f"epsilon1 must be positive, got {epsilon1}")
        self._epsilon1 = float(epsilon1)
        self._mechanism = LaplaceMechanism(epsilon=self._epsilon1, sensitivity=1.0)

    @property
    def epsilon1(self) -> float:
        """The Edge-LDP budget spent per user."""
        return self._epsilon1

    @property
    def sensitivity(self) -> float:
        """The sensitivity of one user's degree query."""
        return self._mechanism.sensitivity

    def noisy_degrees(self, degrees: Sequence[int], rng: RandomState = None) -> np.ndarray:
        """The users' step: every degree plus its user's own Laplace draw.

        One stacked draw for every user: each user's uniform comes from her
        own spawned substream (the same children spawn_rngs would hand
        out), so per-user determinism is preserved while the sampling
        itself is a single inverse-CDF transform.
        """
        states = spawn_state_matrix(rng, len(degrees), words=1)
        noise = self._mechanism.noise_from_uniforms(uniforms_from_states(states[:, 0]))
        return np.asarray(degrees, dtype=np.float64) + noise

    def run(
        self,
        degrees: Sequence[int],
        rng: RandomState = None,
        runtime: Optional[TwoServerRuntime] = None,
        servers=None,
    ) -> MaxDegreeResult:
        """Execute `Max` over the true degree set ``D``.

        Parameters
        ----------
        degrees:
            The users' true degrees ``d_1 .. d_n``.
        rng:
            Seed or generator; each user derives an independent substream.
        runtime:
            Optional communication runtime.  When given, each user's noisy
            degree is sent to server ``S1`` and the resulting ``d'_max`` is
            broadcast back, so the messages appear in the communication
            ledger exactly as the paper's protocol describes.  Ignored when
            *servers* is given: the seam carries its own ledger.
        servers:
            Optional servers seam of :meth:`~repro.core.cargo.Cargo._run_protocol`;
            its ``max_degree`` runs ``S1``'s step.  ``None`` runs
            :func:`clamp_max_degree` here.
        """
        if len(degrees) == 0:
            return MaxDegreeResult(noisy_degrees=[], noisy_max_degree=1.0, epsilon1=self._epsilon1)
        if servers is not None:
            runtime = servers.runtime
        noisy_array = self.noisy_degrees(degrees, rng)
        if runtime is not None:
            # The n per-user uploads ride in one array-payload ledger record
            # (n messages, identical byte total).
            runtime.users_to_server(1, "noisy_degree", noisy_array)
        server1 = servers.max_degree if servers is not None else clamp_max_degree
        noisy_max = server1(noisy_array)
        if runtime is not None:
            runtime.broadcast_to_users(1, "noisy_max_degree", noisy_max)
        return MaxDegreeResult(
            noisy_degrees=[float(value) for value in noisy_array],
            noisy_max_degree=noisy_max,
            epsilon1=self._epsilon1,
        )

    def expected_error(self, num_users: int) -> float:
        """Analytic upper bound on ``E[(d'_max - d_max)^2]`` contribution per user.

        The maximum of ``n`` Laplace(1/ε1) variables concentrates around
        ``ln(n)/ε1``; this helper reports the variance of a single noisy
        degree, ``2/ε1²``, which is the quantity the paper's Table V
        discussion uses to argue ``d'_max ≈ d_max``.
        """
        if num_users <= 0:
            raise PrivacyError(f"num_users must be positive, got {num_users}")
        return 2.0 / (self._epsilon1**2)
