"""Algorithm 1 — the end-to-end CARGO protocol, generalised over statistics.

:class:`Cargo` wires the phases together:

1. `Max` (Algorithm 2) privately estimates the maximum degree ``d'_max``
   spending ε1;
2. `Project` (Algorithm 3) bounds each user's degree by ``d'_max`` using the
   similarity-based rule;
3. `Count` (Algorithm 4, or one of its accelerated equivalents) computes
   secret shares of the projected count of the configured
   :class:`~repro.stats.SubgraphStatistic` — triangles by default, but any
   registered statistic (``kstars``, ``4cycles``, …) runs through the same
   pipeline;
4. `Perturb` (Algorithm 5) adds distributed Laplace noise inside the shared
   domain, calibrated to the statistic's post-projection sensitivity, and
   reconstructs the noisy count ``T'``.

The returned :class:`~repro.core.result.CargoResult` bundles the estimate
with the evaluation-only ground truth, phase timings, and (optionally) the
communication ledger, which is everything the paper's figures need.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import CargoConfig
from repro.core.max_degree import MaxDegreeEstimator
from repro.core.perturbation import DistributedPerturbation
from repro.core.projection import SimilarityProjection
from repro.core.result import CargoResult
from repro.crypto.mac import resolve_authenticator
from repro.crypto.protocol import TwoServerRuntime
from repro.crypto.views import ViewRecorder
from repro.exceptions import CheaterDetectedError, ConfigurationError
from repro.graph.graph import Graph
from repro.stats import create_statistic
from repro.resilience import resolve_resilience
from repro.telemetry import Tracer, build_result_telemetry, resolve_telemetry
from repro.utils.rng import derive_rng, spawn_rngs


def resolve_sparse_mode(config, statistic) -> bool:
    """Decide whether a run uses the degree-local (sparse) execution path.

    ``"auto"`` engages it exactly when the statistic declares a degree
    kernel; ``"force"`` additionally raises on statistics that cannot run
    sparse, so misconfiguration fails loudly instead of silently allocating
    ``n x n`` rows.
    """
    mode = getattr(config, "sparse", "auto")
    if mode == "never":
        return False
    if not statistic.supports_degree_kernel:
        if mode == "force":
            raise ConfigurationError(
                f"sparse='force' but statistic {statistic.name!r} has no "
                "degree-local kernel; only degree statistics (kstars, wedges) "
                "can run sparse"
            )
        return False
    return True


class Cargo:
    """The CARGO system: crypto-assisted DP subgraph-statistic release.

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.CargoConfig`; a default configuration
        (ε = 2, matrix backend, triangle statistic) is used when omitted.

    Examples
    --------
    >>> from repro.graph import load_dataset
    >>> from repro.core import Cargo, CargoConfig
    >>> graph = load_dataset("facebook", num_nodes=300)
    >>> result = Cargo(CargoConfig(epsilon=2.0, seed=7)).run(graph)
    >>> result.relative_error < 1.0
    True
    >>> wedges = Cargo(CargoConfig(epsilon=2.0, seed=7, statistic="wedges")).run(graph)
    >>> wedges.statistic
    'wedges'
    """

    def __init__(self, config: Optional[CargoConfig] = None) -> None:
        self._config = config if config is not None else CargoConfig()
        self.views: Optional[ViewRecorder] = (
            ViewRecorder() if self._config.record_views else None
        )

    @property
    def config(self) -> CargoConfig:
        """The configuration this instance runs with."""
        return self._config

    def run(self, graph: Graph) -> CargoResult:
        """Execute the full protocol on *graph* and return the result."""
        config = self._config
        if getattr(config, "distributed", False):
            # The process-separated runtime replicates this orchestration
            # across four OS processes; results are bit-identical.
            from repro.runtime.driver import run_distributed

            return run_distributed(graph, config, views=self.views)
        budget = config.resolved_budget()
        statistic = create_statistic(config.statistic, config)
        telemetry = resolve_telemetry(config)
        resilience = resolve_resilience(config)
        if getattr(config, "triple_store", None) is not None and resilience.enabled:
            config.triple_store.configure_resilience(
                retry=resilience.retry,
                strict_integrity=resilience.strict_integrity,
                metrics=telemetry.metrics if telemetry.enabled else None,
            )
        # Phase timings always come from a span tree; without a telemetry
        # bundle the run uses a private tracer whose only spans are the
        # legacy phases, so ``result.timings`` keeps its historical keys.
        tracer = telemetry.tracer if telemetry.enabled else Tracer()
        master_rng = derive_rng(config.seed)
        # Independent sub-streams: users' degree noise, users' share masks,
        # users' distributed noise, and the offline dealer.
        max_rng, share_rng, noise_rng, dealer_rng = spawn_rngs(master_rng, 4)
        if config.offline_seed is not None:
            # Pinned offline randomness: identical dealt material across
            # runs, which is what lets a TripleStore serve sweep cells and
            # reruns warm.  Evaluation-only — see docs/performance.md.
            dealer_rng = derive_rng(config.offline_seed)

        runtime: Optional[TwoServerRuntime] = (
            TwoServerRuntime(graph.num_nodes) if config.track_communication else None
        )
        # One authenticator per run: every server-to-server opening (Beaver
        # / multiplication-group / matrix openings inside `Count`, plus the
        # final release reconstruction in `Perturb`) goes through its batched
        # MAC check, so a tampering server aborts the run instead of biasing
        # the released count.
        authenticator = resolve_authenticator(config)

        try:
            return self._run_protocol(
                graph,
                config=config,
                budget=budget,
                statistic=statistic,
                telemetry=telemetry,
                tracer=tracer,
                runtime=runtime,
                authenticator=authenticator,
                rngs=(max_rng, share_rng, noise_rng, dealer_rng),
            )
        except CheaterDetectedError as error:
            record_cheater_event(
                config, telemetry, backend=config.backend_name, error=error
            )
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
        runtime,
        authenticator,
        rngs,
    ) -> CargoResult:
        max_rng, share_rng, noise_rng, dealer_rng = rngs
        with tracer.span(
            "total", backend=config.backend_name, statistic=config.statistic
        ) as run_span:
            # ---------------------------------------------------------- #
            # Step 1a — Max: private estimate of the maximum degree.
            # ---------------------------------------------------------- #
            with tracer.span("max"):
                estimator = MaxDegreeEstimator(budget.epsilon1)
                max_result = estimator.run(graph.degrees(), rng=max_rng, runtime=runtime)

            # ---------------------------------------------------------- #
            # Step 1b — Project: similarity-based degree bounding.  Degree
            # statistics only need the row sums the projection would leave
            # behind, so the sparse path projects the degree vector alone —
            # O(n) memory, bit-identical outcome.
            # ---------------------------------------------------------- #
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

            # ---------------------------------------------------------- #
            # Step 2 — Count: the statistic's secure kernel on shares.
            # ---------------------------------------------------------- #
            with tracer.span("count", backend=config.backend_name):
                # The statistic owns its secure-share formulation (triangles
                # delegate to whichever counting backend the configuration
                # names); the orchestrator only knows the registered name.
                if use_sparse:
                    count_result = statistic.secure_count_from_degrees(
                        projection_result.projected_degrees,
                        config=config,
                        share_rng=share_rng,
                        dealer_rng=dealer_rng,
                        views=self.views,
                        runtime=runtime,
                        authenticator=authenticator,
                    )
                else:
                    count_result = statistic.secure_count(
                        projection_result.projected_rows,
                        config=config,
                        share_rng=share_rng,
                        dealer_rng=dealer_rng,
                        views=self.views,
                        runtime=runtime,
                        authenticator=authenticator,
                    )

            # ---------------------------------------------------------- #
            # Step 3 — Perturb: distributed noise inside the shared domain,
            # calibrated to the statistic's post-projection sensitivity (in
            # units of the raw secure output — `finalise` divides the
            # release scale back out afterwards, which is post-processing).
            # ---------------------------------------------------------- #
            with tracer.span("perturb"):
                perturbation = DistributedPerturbation(
                    epsilon2=budget.epsilon2,
                    sensitivity=statistic.secure_output_sensitivity(
                        max_result.noisy_max_degree
                    ),
                    num_users=max(graph.num_nodes, 1),
                    ring=config.ring,
                    fixed_point_bits=config.fixed_point_bits,
                )
                perturb_result = perturbation.run(
                    count_result, rng=noise_rng, runtime=runtime,
                    authenticator=authenticator,
                )

        # Evaluation-only ground truth, computed outside every protocol span.
        true_count = statistic.plain_count(graph)
        projected_count = (
            statistic.degree_count(projection_result.projected_degrees)
            if use_sparse
            else statistic.projected_count(projection_result.projected_rows)
        )
        noisy_count = statistic.finalise(perturb_result.noisy_count)
        timings = run_span.timings()
        communication_phases = (
            runtime.ledger.phase_summary() if runtime is not None else {}
        )
        result_telemetry = feed_run_telemetry(
            config,
            telemetry,
            backend=config.backend_name,
            timings=timings,
            communication_phases=communication_phases,
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
            communication=runtime.ledger.summary() if runtime is not None else {},
            communication_phases=communication_phases,
            backend=config.backend_name,
            statistic=config.statistic,
            telemetry=result_telemetry,
        )


def feed_run_telemetry(
    config,
    telemetry,
    *,
    backend,
    timings,
    communication_phases,
    count_result,
    budget,
    noisy_count,
    true_count,
    projected_count,
    noisy_max_degree,
    authenticator=None,
    transport=None,
):
    """Post-run metric feeding + the release record for the manifest.

    Shared by the Edge-DP and Node-DP orchestrators.  Runs strictly *after*
    the protocol finished, so instrumentation can never perturb the
    transcript; returns the ``CargoResult.telemetry`` block (``None`` when
    telemetry is disabled).  *transport* is the distributed runtime's
    physical byte summary (frames, payload vs framing overhead, per-process
    wall time); in-process runs have no transport and pass ``None``.
    """
    if not telemetry.enabled:
        return None
    metrics = telemetry.metrics
    labels = {"backend": backend, "statistic": config.statistic}
    metrics.increment("runs", **labels)
    mac_block = None
    if authenticator is not None and getattr(authenticator, "enabled", False):
        mac_block = {
            "rounds_checked": int(authenticator.rounds_checked),
            "values_checked": int(authenticator.values_checked),
        }
        metrics.increment("mac_rounds_checked", mac_block["rounds_checked"], **labels)
        metrics.increment("mac_values_checked", mac_block["values_checked"], **labels)
    for phase, stats in communication_phases.items():
        metrics.increment("comm_bytes", stats["bytes"], phase=phase)
        metrics.increment("comm_messages", stats["messages"], phase=phase)
    metrics.increment("opening_rounds", count_result.opening_rounds, **labels)
    metrics.increment(
        "candidates_processed", count_result.num_triples_processed, **labels
    )
    metrics.increment("epsilon_spent", budget.epsilon1, mechanism="max")
    metrics.increment("epsilon_spent", budget.epsilon2, mechanism="perturb")
    store = getattr(config, "triple_store", None)
    store_stats = store.stats() if store is not None else None
    if store_stats is not None:
        for key, value in store_stats.items():
            metrics.gauge_set(f"triple_store_{key}", value)
    release = {
        "kind": "cargo",
        "statistic": config.statistic,
        "backend": backend,
        "seed": config.seed,
        "noisy_count": noisy_count,
        "true_count": true_count,
        "projected_count": projected_count,
        "noisy_max_degree": noisy_max_degree,
        "epsilon": {"max": budget.epsilon1, "perturb": budget.epsilon2},
        "opening_rounds": count_result.opening_rounds,
        "candidates": count_result.num_triples_processed,
        "timings": timings,
        "communication_phases": communication_phases,
    }
    if mac_block is not None:
        release["mac"] = mac_block
    if transport is not None:
        release["transport"] = transport
    telemetry.record_release(release)
    result_block = build_result_telemetry(
        timings,
        communication_phases,
        opening_rounds=count_result.opening_rounds,
        candidates=count_result.num_triples_processed,
        triple_store_stats=store_stats,
    )
    if transport is not None and result_block is not None:
        result_block["transport"] = transport
    return result_block


def record_cheater_event(config, telemetry, *, backend, error) -> None:
    """Record a failed MAC check in the run's telemetry before re-raising.

    A detected cheat aborts the release, so the normal ``cargo`` record never
    happens; this leaves an auditable ``cheater_detected`` record (which
    round and label failed, never a count) in the manifest instead.  Shared
    by the Edge-DP and Node-DP orchestrators; a no-op when telemetry is
    disabled.
    """
    if not telemetry.enabled:
        return
    labels = {"backend": backend, "statistic": config.statistic}
    telemetry.metrics.increment("cheater_detected", **labels)
    telemetry.record_release(
        {
            "kind": "cheater_detected",
            "statistic": config.statistic,
            "backend": backend,
            "seed": config.seed,
            "round_index": int(getattr(error, "round_index", -1)),
            "label": str(getattr(error, "label", "")),
            "message": str(error),
        }
    )
