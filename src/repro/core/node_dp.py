"""Node-DP extension of CARGO (Section III-B, "Extension to Node DP").

Edge DP hides the presence of a single edge; Node DP hides a whole user
together with all her edges, which is strictly stronger and proportionally
noisier.  The paper sketches the extension: only the sensitivities of `Max`
and `Perturb` change —

* in `Max`, removing one node can change the degree of every other node, so
  the sensitivity of the degree query becomes ``n - 1`` instead of 1;
* in `Perturb`, removing one node of degree at most ``d'_max`` destroys at
  most ``C(d'_max, 2)`` triangles, so the noise scale becomes
  ``C(d'_max, 2) / ε2`` instead of ``d'_max / ε2``.

Projection and the secure counting protocol are unchanged.  This module
provides :class:`NodeDpCargo`, a :class:`~repro.core.cargo.Cargo` subclass
that overrides only those two sensitivities (and its backend label), so it
runs the Edge-DP protocol's one Algorithm 1 — in process or on the
distributed runtime — and the utility penalty of Node DP can be measured
directly (it is large — the point of the paper's "future work" remark).
"""

from __future__ import annotations

import numpy as np

from repro.core.cargo import Cargo
from repro.core.config import CargoConfig
from repro.core.max_degree import MaxDegreeEstimator
from repro.dp.mechanisms import LaplaceMechanism
from repro.dp.sensitivity import degree_sensitivity_node_dp
from repro.graph.graph import Graph
from repro.utils.rng import derive_rng, spawn_rngs


class NodeDpMaxDegreeEstimator(MaxDegreeEstimator):
    """`Max` under Node DP: each degree is perturbed with sensitivity ``n - 1``."""

    def __init__(self, epsilon1: float, num_users: int) -> None:
        super().__init__(epsilon1)
        sensitivity = float(max(degree_sensitivity_node_dp(max(num_users, 1)), 1))
        self._mechanism = LaplaceMechanism(epsilon=self._epsilon1, sensitivity=sensitivity)

    def noisy_degrees(self, degrees, rng=None) -> np.ndarray:
        """Perturb every degree with ``Lap((n-1)/ε1)`` from its user's substream."""
        user_rngs = spawn_rngs(rng if rng is not None else derive_rng(None), len(degrees))
        return np.array(
            [
                float(degree) + self._mechanism.sample_noise(user_rng)
                for degree, user_rng in zip(degrees, user_rngs)
            ],
            dtype=np.float64,
        )


class NodeDpCargo(Cargo):
    """CARGO with Node-DP sensitivities in `Max` and `Perturb`.

    Only the `Max` estimator, the `Perturb` sensitivity and the backend
    label differ from :class:`~repro.core.cargo.Cargo`; everything else —
    the communication ledger, recorded views, MAC checks, telemetry and the
    distributed runtime — is the Edge-DP protocol's.  Results are directly
    comparable, which is how the Node-vs-Edge utility gap is measured in
    the tests.
    """

    @property
    def backend_label(self) -> str:
        """``node-dp/<backend>``."""
        return f"node-dp/{self._config.backend_name}"

    def _max_estimator(self, epsilon1: float, num_users: int) -> MaxDegreeEstimator:
        return NodeDpMaxDegreeEstimator(epsilon1, num_users)

    def _perturb_sensitivity(self, statistic, degree_bound: float) -> float:
        # The statistic's Node-DP bound, scaled to the raw secure output
        # exactly as the Edge-DP orchestrator scales its bound.
        return statistic.release_scale * statistic.node_sensitivity(degree_bound)


def edge_vs_node_dp_gap(graph: Graph, epsilon: float, seed: int = 0) -> dict:
    """Run both variants once and report their l2 losses (utility-gap helper)."""
    edge_result = Cargo(CargoConfig(epsilon=epsilon, seed=seed)).run(graph)
    node_result = NodeDpCargo(CargoConfig(epsilon=epsilon, seed=seed)).run(graph)
    return {
        "edge_dp_l2": edge_result.l2_loss,
        "node_dp_l2": node_result.l2_loss,
        "edge_dp_result": edge_result,
        "node_dp_result": node_result,
    }
