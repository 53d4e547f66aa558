"""Distributed discrete Laplace noise via Pólya differences (Algorithm 5, integer form).

The discrete Laplace (two-sided geometric) law with ``α = e^(−ε/Δ)``,
``P(N = k) = (1 − α)/(1 + α) · α^|k|``, gives ε-DP to an integer query of
sensitivity at most Δ: shifting the query by ``d ≤ Δ`` changes each
probability by a factor of at most ``α^(−d) ≤ e^ε``.  It is infinitely
divisible: a geometric variable (failures before the first success, success
probability ``p = 1 − α``) is the sum of ``n`` independent Pólya
``NB(1/n, p)`` variables, so the sum over ``n`` users of ``X_i − Y_i`` with
``X_i, Y_i ~ NB(1/n, p)`` is exactly discrete Laplace (Goryczka & Xiong,
IEEE TDSC 2017).  This is the integer analogue of the paper's Lemma 1, where
each user adds ``Gamma(1/n, λ) − Gamma(1/n, λ)``: the noise is an integer, so
modular secret sharing carries it exactly, with no fixed-point encoding
(Kairouz, Liu & Steinke, ICML 2021).

Simulation choice: a deployed user draws their own pair from their own
randomness.  Here all ``n`` users' pairs come from one generator in two
vectorised draws.  The ``n`` pairs are independent either way, so the
released distribution is identical.  A per-user generator loop would cost
seconds at ``n = 10^5``, and NumPy has no inverse-CDF Pólya sampler to
build the plane from per-user uniforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import PrivacyError
from repro.utils.rng import RandomState, derive_rng


@dataclass(frozen=True)
class DistributedDiscreteLaplace:
    """`Perturb`'s noise: ``n`` users' Pólya differences summing to discrete Laplace.

    Parameters
    ----------
    epsilon:
        The perturbation budget ε2.
    sensitivity:
        Δ, the sensitivity of the integer count being released.
    num_users:
        Number of users contributing partial noise.

    >>> noise = DistributedDiscreteLaplace(epsilon=1.0, sensitivity=2.0, num_users=5)
    >>> round(noise.alpha, 4), noise.sample_partial_noises(0).dtype
    (0.6065, dtype('int64'))
    """

    epsilon: float
    sensitivity: float
    num_users: int

    def __post_init__(self) -> None:
        if not self.epsilon > 0:
            raise PrivacyError(f"epsilon must be positive, got {self.epsilon}")
        if not self.sensitivity > 0:
            raise PrivacyError(f"sensitivity must be positive, got {self.sensitivity}")
        if self.num_users <= 0:
            raise PrivacyError(f"num_users must be positive, got {self.num_users}")

    @property
    def scale(self) -> float:
        """``λ = Δ / ε``, so that ``α = e^(−1/λ)``."""
        return self.sensitivity / self.epsilon

    @property
    def alpha(self) -> float:
        """The decay ``α = e^(−ε/Δ)`` of the aggregate's two-sided geometric law."""
        return math.exp(-self.epsilon / self.sensitivity)

    @property
    def success_probability(self) -> float:
        """``p = 1 − α``, computed as ``−expm1(−ε/Δ)`` so it stays exact when ``α ≈ 1``."""
        return -math.expm1(-self.epsilon / self.sensitivity)

    @property
    def aggregate_variance(self) -> float:
        """Variance ``2α / (1 − α)^2`` of the aggregated noise."""
        return 2.0 * self.alpha / self.success_probability**2

    def sample_partial_noises(self, rng: RandomState = None) -> np.ndarray:
        """All ``n`` users' partial noises ``X_i − Y_i`` (int64), in two draws from *rng*."""
        generator = derive_rng(rng)
        shape = 1.0 / self.num_users
        p = self.success_probability
        positive = generator.negative_binomial(shape, p, size=self.num_users)
        negative = generator.negative_binomial(shape, p, size=self.num_users)
        return positive - negative
