"""One-round randomized-response LDP baseline.

Included as an additional reference point below ``Local2Rounds△``: each user
randomizes the bits she owns (lower triangle) with the full budget and the
server estimates the triangle count from the noisy graph alone using the
standard unbiased bit estimator.  Its variance is far worse than the
two-round protocol's, which is why the paper (and Imola et al.) moved to two
rounds; having it in the repository lets the examples show the whole spectrum
local → two-round local → CARGO → central.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dp.mechanisms import RandomizedResponse
from repro.exceptions import PrivacyError
from repro.graph.graph import Graph
from repro.graph.triangles import count_triangles
from repro.utils.rng import RandomState, derive_rng
from repro.telemetry import Tracer


@dataclass(frozen=True)
class OneRoundLdpResult:
    """Output of one run of the one-round LDP estimator."""

    noisy_triangle_count: float
    true_triangle_count: int
    epsilon: float
    timings: dict

    @property
    def l2_loss(self) -> float:
        """Squared error of the estimate."""
        return (self.true_triangle_count - self.noisy_triangle_count) ** 2

    @property
    def relative_error(self) -> float:
        """Relative error ``|T - T'| / T``."""
        if self.true_triangle_count == 0:
            return float("inf")
        return abs(self.true_triangle_count - self.noisy_triangle_count) / self.true_triangle_count


class OneRoundLdpTriangleCounting:
    """One-round randomized-response triangle estimation under ε-Edge LDP."""

    def __init__(self, epsilon: float) -> None:
        if epsilon <= 0:
            raise PrivacyError(f"epsilon must be positive, got {epsilon}")
        self._epsilon = float(epsilon)

    @property
    def epsilon(self) -> float:
        """Privacy budget ε spent on the single randomized-response round."""
        return self._epsilon

    def run(self, graph: Graph, rng: RandomState = None) -> OneRoundLdpResult:
        """Randomize every owned bit once and debias the triangle estimate."""
        generator = derive_rng(rng)
        tracer = Tracer()
        n = graph.num_nodes
        with tracer.span("total"):
            response = RandomizedResponse(epsilon=self._epsilon)
            adjacency = graph.adjacency_matrix()
            lower_mask = np.tril(np.ones((n, n), dtype=np.int64), k=-1)
            owned = adjacency * lower_mask
            noisy_lower = response.randomize_bits(owned, rng=generator) * lower_mask
            noisy_adjacency = noisy_lower + noisy_lower.T
            p = response.keep_probability
            q = response.flip_probability
            # Unbiased per-edge estimate of the true bit, then the product of
            # three independent unbiased estimates is unbiased for the triangle
            # indicator (each edge is owned, and randomized, by exactly one user).
            debiased = (noisy_adjacency - q) / (p - q)
            np.fill_diagonal(debiased, 0.0)
            estimate = float(np.trace(debiased @ debiased @ debiased) / 6.0)
        return OneRoundLdpResult(
            noisy_triangle_count=estimate,
            true_triangle_count=count_triangles(graph),
            epsilon=self._epsilon,
            timings=tracer.timings(),
        )
