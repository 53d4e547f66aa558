"""Result object returned by a full CARGO execution."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass(frozen=True)
class CargoResult:
    """Everything an experiment needs from one CARGO run.

    Attributes
    ----------
    noisy_triangle_count:
        The protocol output ``T'`` — the differentially private estimate of
        the triangle count.
    true_triangle_count:
        Ground-truth count of the *original* graph (computed in the clear for
        evaluation only; a deployment would not have it).
    projected_triangle_count:
        The count the secure protocol actually protects — after projection.
        The difference to ``true_triangle_count`` is the projection loss.
    noisy_max_degree:
        The ``d'_max`` estimate from `Max` that parameterised projection and
        perturbation.
    epsilon1 / epsilon2:
        The budgets actually spent on `Max` and `Perturb`.
    edges_removed:
        Number of adjacency bits cleared by projection.
    timings:
        Per-phase wall-clock seconds (``max``, ``project``, ``share``,
        ``count``, ``perturb``, ``total``).
    communication:
        Per-channel message/byte counts when communication tracking was
        enabled (empty otherwise).
    communication_phases:
        Per-phase message/byte counts (keyed by the message tags recorded at
        send time, e.g. ``adjacency_share``, ``noise_share``); empty when
        tracking was disabled.
    backend:
        Name of the secure counting backend that produced the count.
    statistic:
        Registered name of the released subgraph statistic.  The
        ``*_triangle_count`` field names are kept for compatibility with the
        original triangle-only pipeline; for other statistics they hold that
        statistic's counts (use the :attr:`noisy_count` / :attr:`true_count`
        / :attr:`projected_count` aliases in statistic-agnostic code).
    telemetry:
        Per-phase summary block (rows plus a rendered table, opening-round
        and triple-store stats) when the run carried a
        :class:`~repro.telemetry.Telemetry` bundle; ``None`` otherwise.
    ring_bits:
        Width ``l`` of the ring ``Z_{2^l}`` the release perturbed in: the
        pinned ``ring`` when the configuration set one, 64 on a MAC-checked
        release, otherwise the fewest bits the release's public bound needs
        (:func:`~repro.core.cargo.release_ring`).
    count_ring_bits:
        Width of the ring `Count` ran in (:func:`~repro.core.cargo.count_ring`):
        ``l`` less the fixed-point bits, or ``l`` on a MAC-checked release.
    """

    noisy_triangle_count: float
    true_triangle_count: int
    projected_triangle_count: int
    noisy_max_degree: float
    epsilon1: float
    epsilon2: float
    edges_removed: int
    timings: Dict[str, float] = field(default_factory=dict)
    communication: Dict[str, Dict[str, int]] = field(default_factory=dict)
    communication_phases: Dict[str, Dict[str, int]] = field(default_factory=dict)
    backend: str = "matrix"
    statistic: str = "triangles"
    telemetry: Optional[Dict] = None
    ring_bits: int = 64
    count_ring_bits: int = 64

    @property
    def noisy_count(self) -> float:
        """Statistic-agnostic alias for the private estimate."""
        return self.noisy_triangle_count

    @property
    def true_count(self) -> int:
        """Statistic-agnostic alias for the evaluation-only ground truth."""
        return self.true_triangle_count

    @property
    def projected_count(self) -> int:
        """Statistic-agnostic alias for the post-projection count."""
        return self.projected_triangle_count

    @property
    def epsilon(self) -> float:
        """Total privacy budget ``ε = ε1 + ε2`` consumed by the run."""
        return self.epsilon1 + self.epsilon2

    @property
    def l2_loss(self) -> float:
        """Squared error of the estimate against the true count."""
        return (self.true_triangle_count - self.noisy_triangle_count) ** 2

    @property
    def relative_error(self) -> float:
        """Relative error ``|T - T'| / T`` (infinite when ``T == 0``)."""
        if self.true_triangle_count == 0:
            return float("inf")
        return abs(self.true_triangle_count - self.noisy_triangle_count) / self.true_triangle_count

    @property
    def projection_loss(self) -> int:
        """Triangles lost to projection (before any noise)."""
        return self.true_triangle_count - self.projected_triangle_count
