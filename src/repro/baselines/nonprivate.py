"""Non-private exact counting, wrapped in the common baseline interface."""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.graph import Graph
from repro.graph.triangles import count_triangles
from repro.utils.rng import RandomState
from repro.telemetry import Tracer


@dataclass(frozen=True)
class NonPrivateResult:
    """Output of the exact (no-privacy) counter."""

    noisy_triangle_count: float
    true_triangle_count: int
    timings: dict

    @property
    def l2_loss(self) -> float:
        """Always zero — included so result objects are interchangeable."""
        return 0.0

    @property
    def relative_error(self) -> float:
        """Always zero — included so result objects are interchangeable."""
        return 0.0


class NonPrivateTriangleCounting:
    """Exact triangle counting with no privacy protection (sanity baseline)."""

    def run(self, graph: Graph, rng: RandomState = None) -> NonPrivateResult:
        """Count triangles exactly."""
        del rng  # the exact count is deterministic
        tracer = Tracer()
        with tracer.span("total"):
            count = count_triangles(graph)
        return NonPrivateResult(
            noisy_triangle_count=float(count),
            true_triangle_count=count,
            timings=tracer.timings(),
        )
