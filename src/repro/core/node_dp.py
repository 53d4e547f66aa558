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
provides :class:`NodeDpCargo`, a thin orchestration that reuses every
building block of the Edge-DP pipeline with the adjusted sensitivities, so
the utility penalty of Node DP can be measured directly (it is large — the
point of the paper's "future work" remark).
"""

from __future__ import annotations

from typing import Optional

from repro.core.cargo import (
    Cargo,
    feed_run_telemetry,
    record_cheater_event,
    resolve_sparse_mode,
)
from repro.core.config import CargoConfig
from repro.core.max_degree import MaxDegreeEstimator, MaxDegreeResult
from repro.core.perturbation import DistributedPerturbation
from repro.core.projection import SimilarityProjection
from repro.core.result import CargoResult
from repro.crypto.mac import resolve_authenticator
from repro.dp.mechanisms import LaplaceMechanism
from repro.dp.sensitivity import degree_sensitivity_node_dp
from repro.exceptions import CheaterDetectedError
from repro.graph.graph import Graph
from repro.stats import create_statistic
from repro.telemetry import Tracer, resolve_telemetry
from repro.utils.rng import derive_rng, spawn_rngs


class NodeDpMaxDegreeEstimator:
    """`Max` under Node DP: each degree is perturbed with sensitivity ``n - 1``."""

    def __init__(self, epsilon1: float, num_users: int) -> None:
        self._epsilon1 = float(epsilon1)
        self._num_users = int(num_users)
        sensitivity = float(max(degree_sensitivity_node_dp(max(num_users, 1)), 1))
        self._mechanism = LaplaceMechanism(epsilon=self._epsilon1, sensitivity=sensitivity)

    @property
    def sensitivity(self) -> float:
        """The Node-DP sensitivity used for the degree noise."""
        return self._mechanism.sensitivity

    def run(self, degrees, rng=None) -> MaxDegreeResult:
        """Perturb every degree with ``Lap((n-1)/ε1)`` and take the maximum."""
        if not degrees:
            return MaxDegreeResult(noisy_degrees=[], noisy_max_degree=1.0, epsilon1=self._epsilon1)
        user_rngs = spawn_rngs(rng if rng is not None else derive_rng(None), len(degrees))
        noisy = [
            float(degree) + self._mechanism.sample_noise(user_rng)
            for degree, user_rng in zip(degrees, user_rngs)
        ]
        noisy_max = max(max(noisy), 1.0)
        noisy_max = min(noisy_max, float(max(len(degrees) - 1, 1)))
        return MaxDegreeResult(
            noisy_degrees=noisy, noisy_max_degree=noisy_max, epsilon1=self._epsilon1
        )


class NodeDpCargo:
    """CARGO with Node-DP sensitivities in `Max` and `Perturb`.

    The interface mirrors :class:`~repro.core.cargo.Cargo`; results are
    directly comparable, which is how the Node-vs-Edge utility gap is
    measured in the tests.
    """

    def __init__(self, config: Optional[CargoConfig] = None) -> None:
        self._config = config if config is not None else CargoConfig()

    @property
    def config(self) -> CargoConfig:
        """The configuration this instance runs with."""
        return self._config

    def run(self, graph: Graph) -> CargoResult:
        """Execute the Node-DP variant of the full protocol on *graph*."""
        config = self._config
        budget = config.resolved_budget()
        statistic = create_statistic(config.statistic, config)
        telemetry = resolve_telemetry(config)
        tracer = telemetry.tracer if telemetry.enabled else Tracer()
        master_rng = derive_rng(config.seed)
        max_rng, share_rng, noise_rng, dealer_rng = spawn_rngs(master_rng, 4)
        if config.offline_seed is not None:
            # Same pinned-offline-randomness semantics as the Edge-DP
            # orchestrator (evaluation-only; enables triple-store reuse).
            dealer_rng = derive_rng(config.offline_seed)

        backend_label = f"node-dp/{config.backend_name}"
        # Same per-run authenticated-opening semantics as the Edge-DP
        # orchestrator: the Node-DP variant changes sensitivities only, not
        # the secure transcript, so the MAC layer drops in unchanged.
        authenticator = resolve_authenticator(config)
        try:
            return self._run_protocol(
                graph,
                config=config,
                budget=budget,
                statistic=statistic,
                telemetry=telemetry,
                tracer=tracer,
                backend_label=backend_label,
                authenticator=authenticator,
                rngs=(max_rng, share_rng, noise_rng, dealer_rng),
            )
        except CheaterDetectedError as error:
            record_cheater_event(config, telemetry, backend=backend_label, error=error)
            raise

    def _run_protocol(
        self,
        graph: Graph,
        *,
        config,
        budget,
        statistic,
        telemetry,
        tracer,
        backend_label,
        authenticator,
        rngs,
    ) -> CargoResult:
        max_rng, share_rng, noise_rng, dealer_rng = rngs
        with tracer.span(
            "total", backend=backend_label, statistic=config.statistic
        ) as run_span:
            with tracer.span("max"):
                estimator = NodeDpMaxDegreeEstimator(budget.epsilon1, graph.num_nodes)
                max_result = estimator.run(graph.degrees(), rng=max_rng)

            # Same degree-local shortcut as the Edge-DP orchestrator: for
            # degree statistics the projected row sums are determined by the
            # bound alone, so the sparse path never touches the n x n rows.
            use_sparse = resolve_sparse_mode(config, statistic)
            with tracer.span("project", sparse=use_sparse):
                projection = SimilarityProjection(max_result.noisy_max_degree)
                if use_sparse:
                    projection_result = projection.project_degrees(
                        graph.degree_vector(copy=False)
                    )
                else:
                    projection_result = projection.project_graph(
                        graph, noisy_degrees=max_result.noisy_degrees
                    )

            with tracer.span("count", backend=config.backend_name):
                if use_sparse:
                    count_result = statistic.secure_count_from_degrees(
                        projection_result.projected_degrees,
                        config=config,
                        share_rng=share_rng,
                        dealer_rng=dealer_rng,
                        authenticator=authenticator,
                    )
                else:
                    count_result = statistic.secure_count(
                        projection_result.projected_rows,
                        config=config,
                        share_rng=share_rng,
                        dealer_rng=dealer_rng,
                        authenticator=authenticator,
                    )

            with tracer.span("perturb"):
                # The statistic's Node-DP bound, scaled to the raw secure
                # output exactly as the Edge-DP orchestrator scales its bound.
                sensitivity = statistic.release_scale * statistic.node_sensitivity(
                    max_result.noisy_max_degree
                )
                perturbation = DistributedPerturbation(
                    epsilon2=budget.epsilon2,
                    sensitivity=sensitivity,
                    num_users=max(graph.num_nodes, 1),
                    ring=config.ring,
                    fixed_point_bits=config.fixed_point_bits,
                )
                perturb_result = perturbation.run(
                    count_result, rng=noise_rng, authenticator=authenticator
                )

        noisy_count = statistic.finalise(perturb_result.noisy_count)
        # Evaluation-only ground truth, computed outside every protocol span.
        true_count = statistic.plain_count(graph)
        projected_count = (
            statistic.degree_count(projection_result.projected_degrees)
            if use_sparse
            else statistic.projected_count(projection_result.projected_rows)
        )
        timings = run_span.timings()
        result_telemetry = feed_run_telemetry(
            config,
            telemetry,
            backend=backend_label,
            timings=timings,
            communication_phases={},
            count_result=count_result,
            budget=budget,
            noisy_count=noisy_count,
            true_count=true_count,
            projected_count=projected_count,
            noisy_max_degree=max_result.noisy_max_degree,
            authenticator=authenticator,
        )
        return CargoResult(
            noisy_triangle_count=noisy_count,
            true_triangle_count=true_count,
            projected_triangle_count=projected_count,
            noisy_max_degree=max_result.noisy_max_degree,
            epsilon1=budget.epsilon1,
            epsilon2=budget.epsilon2,
            edges_removed=projection_result.edges_removed,
            timings=timings,
            communication={},
            backend=backend_label,
            statistic=config.statistic,
            telemetry=result_telemetry,
        )


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
