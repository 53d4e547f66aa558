"""``Local2Rounds△`` — the two-round Edge-LDP baseline (Imola et al. 2021).

The state-of-the-art local-model competitor in the paper.  The protocol:

* **Round 1.**  Each user applies randomized response (budget ε_rr) to the
  lower-triangular half of her adjacent bit vector (the bits she "owns") and
  sends the noisy bits to the server, which assembles a noisy graph ``G'``
  and publishes it back to the users.
* **Round 2.**  Each user ``i``, who knows her *true* edges, counts — among
  pairs of her true neighbours ``j < k < i`` — how many are connected in the
  noisy graph (``t_i``) and how many pairs there are at all (``s_i``).  She
  adds ``Lap(d̃_max / ε_count)`` to ``t_i`` and reports the pair
  ``(t_i + noise, s_i)``.  The server debiases each report with the
  randomized-response keep/flip probabilities and sums:
  ``T' = Σ_i (t_i + noise_i − q·s_i) / (p − q)``.

As in Imola et al., each user first projects her adjacency list to a noisy
maximum degree via *random* edge deletion (``GraphProjection``), which both
bounds the round-2 sensitivity and is the projection CARGO's `Project` is
compared against.

The estimator is unbiased but its variance carries both the ``O(d^3 n)``
randomized-response term and the ``O(d^2 n)`` Laplace term, which is the
utility gap CARGO closes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines.random_projection import RandomProjection
from repro.dp.mechanisms import LaplaceMechanism, RandomizedResponse
from repro.exceptions import PrivacyError
from repro.graph.graph import Graph
from repro.graph.triangles import count_triangles
from repro.utils.rng import RandomState, derive_rng, spawn_rngs
from repro.telemetry import Tracer

#: Default budget split: (noisy max degree, randomized response, count noise).
DEFAULT_SPLIT = (0.1, 0.45, 0.45)


@dataclass(frozen=True)
class LocalTwoRoundsResult:
    """Output of one ``Local2Rounds△`` run."""

    noisy_triangle_count: float
    true_triangle_count: int
    noisy_max_degree: float
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


class LocalTwoRoundsTriangleCounting:
    """Two-round Edge-LDP triangle counting.

    Parameters
    ----------
    epsilon:
        Total privacy budget ε, split according to *split* into the noisy
        maximum-degree estimate, the round-1 randomized response, and the
        round-2 Laplace noise.
    split:
        Budget fractions ``(degree, randomized_response, count)``; must be
        positive and sum to 1.
    """

    def __init__(self, epsilon: float, split: tuple = DEFAULT_SPLIT) -> None:
        if epsilon <= 0:
            raise PrivacyError(f"epsilon must be positive, got {epsilon}")
        if len(split) != 3 or any(fraction <= 0 for fraction in split):
            raise PrivacyError(f"split must be three positive fractions, got {split}")
        if abs(sum(split) - 1.0) > 1e-9:
            raise PrivacyError(f"split must sum to 1, got {split} (sum {sum(split)})")
        self._epsilon = float(epsilon)
        self._split = tuple(float(fraction) for fraction in split)

    @property
    def epsilon(self) -> float:
        """Total privacy budget ε."""
        return self._epsilon

    def run(self, graph: Graph, rng: RandomState = None) -> LocalTwoRoundsResult:
        """Execute the two-round protocol on *graph*."""
        generator = derive_rng(rng)
        tracer = Tracer()
        n = graph.num_nodes
        epsilon_degree = self._epsilon * self._split[0]
        epsilon_rr = self._epsilon * self._split[1]
        epsilon_count = self._epsilon * self._split[2]

        with tracer.span("total"):
            # Noisy maximum degree (each user perturbs her own degree).
            degree_mechanism = LaplaceMechanism(epsilon=epsilon_degree, sensitivity=1.0)
            degrees = graph.degrees()
            noisy_degrees = degrees + degree_mechanism.sample_noise(generator, size=n)
            noisy_max = float(max(np.max(noisy_degrees), 1.0)) if n else 1.0
            noisy_max = min(noisy_max, float(max(n - 1, 1)))

            # Local projection via random edge deletion.
            with tracer.span("project"):
                projection = RandomProjection(noisy_max)
                projected = projection.project_graph(graph, rng=generator)
                rows = projected.projected_rows

            # Round 1 — randomized response on the lower-triangular bits.
            with tracer.span("round1"):
                response = RandomizedResponse(epsilon=epsilon_rr)
                lower_mask = np.tril(np.ones((n, n), dtype=np.int64), k=-1)
                owned_bits = rows * lower_mask
                noisy_lower = response.randomize_bits(owned_bits, rng=generator) * lower_mask
                noisy_adjacency = noisy_lower + noisy_lower.T

            # Round 2 — each user counts noisy edges among her true neighbours.
            with tracer.span("round2"):
                p = response.keep_probability
                q = response.flip_probability
                count_mechanism = LaplaceMechanism(
                    epsilon=epsilon_count, sensitivity=max(noisy_max, 1.0)
                )
                user_rngs = spawn_rngs(generator, n)
                estimate = 0.0
                for i in range(n):
                    neighbours = np.nonzero(rows[i][:i])[0]
                    m = len(neighbours)
                    pairs = m * (m - 1) / 2.0
                    if m >= 2:
                        block = noisy_adjacency[np.ix_(neighbours, neighbours)]
                        noisy_pairs = float(np.triu(block, k=1).sum())
                    else:
                        noisy_pairs = 0.0
                    noise = count_mechanism.sample_noise(user_rngs[i])
                    estimate += (noisy_pairs + noise - q * pairs) / (p - q)

        return LocalTwoRoundsResult(
            noisy_triangle_count=float(estimate),
            true_triangle_count=count_triangles(graph),
            noisy_max_degree=noisy_max,
            epsilon=self._epsilon,
            timings=tracer.timings(),
        )
