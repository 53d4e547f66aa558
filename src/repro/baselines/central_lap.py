"""``CentralLap△`` — the central-DP baseline.

A trusted server holds the whole graph, counts triangles exactly, and
releases ``T + Lap(Δ/ε)`` where Δ is the edge-DP sensitivity of the count.
Following the paper (and Imola et al.), the sensitivity is the maximum
degree: the server either knows ``d_max`` exactly (it has the graph) or, for
a like-for-like comparison with CARGO, spends a small slice of the budget on
a noisy estimate first.  The paper's headline comparison uses the exact
``d_max``, which is what :class:`CentralLaplaceTriangleCounting` defaults to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dp.mechanisms import LaplaceMechanism
from repro.dp.sensitivity import triangle_sensitivity_edge_dp
from repro.exceptions import PrivacyError
from repro.graph.graph import Graph
from repro.graph.triangles import count_triangles
from repro.utils.rng import RandomState, derive_rng
from repro.telemetry import Tracer


@dataclass(frozen=True)
class CentralLapResult:
    """Output of one ``CentralLap△`` run."""

    noisy_triangle_count: float
    true_triangle_count: int
    sensitivity: float
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


class CentralLaplaceTriangleCounting:
    """Trusted-server Laplace mechanism for triangle counting (ε-Edge CDP).

    Parameters
    ----------
    epsilon:
        Total privacy budget.
    use_exact_max_degree:
        When ``True`` (default) the sensitivity is the true maximum degree,
        matching the paper's ``CentralLap△`` competitor.  When ``False`` the
        server first spends ``max_degree_fraction`` of ε on a Laplace
        estimate of ``d_max`` and uses the noisy value as the sensitivity,
        mirroring CARGO's own two-stage budget.
    max_degree_fraction:
        Budget fraction for the degree estimate when it is enabled.
    """

    def __init__(
        self,
        epsilon: float,
        use_exact_max_degree: bool = True,
        max_degree_fraction: float = 0.1,
    ) -> None:
        if epsilon <= 0:
            raise PrivacyError(f"epsilon must be positive, got {epsilon}")
        if not (0 < max_degree_fraction < 1):
            raise PrivacyError(
                f"max_degree_fraction must be in (0, 1), got {max_degree_fraction}"
            )
        self._epsilon = float(epsilon)
        self._use_exact_max_degree = use_exact_max_degree
        self._max_degree_fraction = max_degree_fraction

    @property
    def epsilon(self) -> float:
        """Total privacy budget ε."""
        return self._epsilon

    def run(self, graph: Graph, rng: RandomState = None) -> CentralLapResult:
        """Count triangles on *graph* and release a Laplace-noised estimate."""
        generator = derive_rng(rng)
        tracer = Tracer()
        with tracer.span("total"):
            with tracer.span("count"):
                true_count = count_triangles(graph)
            if self._use_exact_max_degree:
                sensitivity = triangle_sensitivity_edge_dp(graph.max_degree())
                count_epsilon = self._epsilon
            else:
                degree_epsilon = self._epsilon * self._max_degree_fraction
                count_epsilon = self._epsilon - degree_epsilon
                degree_mechanism = LaplaceMechanism(epsilon=degree_epsilon, sensitivity=1.0)
                noisy_max = max(
                    float(graph.max_degree()) + degree_mechanism.sample_noise(generator), 1.0
                )
                sensitivity = triangle_sensitivity_edge_dp(noisy_max)
            with tracer.span("perturb"):
                mechanism = LaplaceMechanism(epsilon=count_epsilon, sensitivity=sensitivity)
                noisy_count = mechanism.randomize(float(true_count), rng=generator)
        return CentralLapResult(
            noisy_triangle_count=float(noisy_count),
            true_triangle_count=true_count,
            sensitivity=float(sensitivity),
            epsilon=self._epsilon,
            timings=tracer.timings(),
        )

    def expected_l2_loss(self, max_degree: int) -> float:
        """The analytic ``O(d_max^2 / ε^2)`` bound: ``2 (d_max / ε)^2``."""
        sensitivity = triangle_sensitivity_edge_dp(max_degree)
        return 2.0 * (sensitivity / self._epsilon) ** 2
