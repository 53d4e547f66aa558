"""Algorithm 1 — the end-to-end CARGO protocol, generalised over statistics.

:class:`Cargo` wires the phases together:

1. `Max` (Algorithm 2) privately estimates the maximum degree ``d'_max``
   spending ε1, which fixes the ring ``Z_{2^l}`` the release counts and
   perturbs in (:func:`release_ring`: the fewest bits its public bound
   needs);
2. `Project` (Algorithm 3) bounds each user's degree by ``d'_max`` using the
   similarity-based rule;
3. `Count` (Algorithm 4, or one of its accelerated equivalents) computes
   secret shares of the projected count of the configured
   :class:`~repro.stats.SubgraphStatistic` — triangles by default, but any
   registered statistic (``kstars``, ``4cycles``, …) runs through the same
   pipeline;
4. `Perturb` (Algorithm 5) adds distributed discrete Laplace noise inside
   the shared domain, calibrated to the statistic's post-projection
   sensitivity, and reconstructs the noisy count ``T'``.

:meth:`Cargo._run_protocol` is the one implementation of these steps.  It
calls a *servers* seam wherever the two servers act; :class:`LocalServers`
runs both in this process, and the process-separated runtime
(:mod:`repro.runtime.driver`) runs them in their own OS processes.
Variants that change only sensitivities (:class:`~repro.core.node_dp.NodeDpCargo`)
subclass :class:`Cargo`.

The returned :class:`~repro.core.result.CargoResult` bundles the estimate
with the evaluation-only ground truth, phase timings, and (optionally) the
communication ledger, which is everything the paper's figures need.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.backends.blocked import POOLED_BACKENDS, block_size_for, default_workers
from repro.core.config import CargoConfig
from repro.core.max_degree import MaxDegreeEstimator, clamp_max_degree
from repro.core.perturbation import (
    OVERFLOW_TAIL_BITS,
    DistributedPerturbation,
    release_opening,
    required_ring_bits,
)
from repro.core.projection import SimilarityProjection
from repro.core.result import CargoResult
from repro.crypto.mac import resolve_authenticator
from repro.crypto.protocol import TwoServerRuntime
from repro.crypto.ring import DEFAULT_RING, Ring
from repro.crypto.secure_ops import PlainOpener
from repro.crypto.views import ViewRecorder
from repro.exceptions import CheaterDetectedError, ConfigurationError
from repro.graph.graph import Graph
from repro.parallel import blas_budget, blas_scope, blas_threads, resolve_workers
from repro.stats import create_statistic
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


def release_workers(config, num_users: int) -> int:
    """Worker threads an in-process release over *num_users* runs its Count on.

    With ``workers`` unset, triangles on ``blocked`` or ``matrix`` take
    :func:`~repro.core.backends.blocked.default_workers`; every other
    kernel one worker.
    """
    name = config.backend_name
    if config.statistic == "triangles" and name in POOLED_BACKENDS:
        return resolve_workers(
            config, default=default_workers(num_users, block_size_for(name, config))
        )
    return resolve_workers(config)


def protocol_rngs(config):
    """The four independent substreams of one release.

    Users' degree noise, users' share masks, users' distributed noise, and
    the offline dealer, all spawned from ``config.seed``: every release
    deals fresh material.
    """
    return tuple(spawn_rngs(derive_rng(config.seed), 4))


def release_ring(
    config, statistic, *, num_users: int, degree_bound: float, sensitivity: float, epsilon2: float
) -> Ring:
    """The ring one release counts and perturbs in, derived from public values only.

    Called once per release, right after `Max`, by :meth:`Cargo._run_protocol`
    (both transports run it).  The statistic's public bound on its raw
    output (:meth:`~repro.stats.SubgraphStatistic.secure_output_bound`, from
    ``n`` and ``θ = ⌊degree_bound⌋``) and `Perturb`'s noise scale
    ``sensitivity / epsilon2`` give the bits the opened value needs
    (:func:`~repro.core.perturbation.required_ring_bits`).

    A ``config.ring`` that is set is returned as pinned, and so is the 64-bit
    ring of a MAC-checked release (``authenticate=True`` or an injected
    authenticator that checks MACs), whose tags stay in ``Z_{2^64}``; either raises
    :class:`~repro.exceptions.ConfigurationError` when it cannot hold the
    bound, instead of wrapping the released count silently.  Otherwise the
    release runs in exactly the bits the bound needs, and a need above 64
    bits raises the same error.  A statistic without a bound keeps the ring
    pinned, or 64 bits.
    """
    pinned = config.ring
    if pinned is None and config.authenticate:
        pinned = DEFAULT_RING
    bound = statistic.secure_output_bound(num_users, degree_bound)
    if bound is None:
        return DEFAULT_RING if pinned is None else pinned
    bits = required_ring_bits(bound, sensitivity=sensitivity, epsilon2=epsilon2)
    capacity = DEFAULT_RING.bits if pinned is None else pinned.bits
    if bits > capacity:
        raise ConfigurationError(
            f"this {statistic.name} release needs a {bits}-bit ring but "
            f"{'the pinned ring holds' if pinned is not None else 'rings hold at most'} "
            f"{capacity} bits: its raw output is bounded by {bound} (n={num_users}, "
            f"d'_max={degree_bound:g}), with a sign bit and a 2^-{OVERFLOW_TAIL_BITS} "
            "noise tail; a narrower ring would wrap the released count"
        )
    return Ring(bits) if pinned is None else pinned


class LocalServers:
    """Both servers in this process: the in-process servers seam.

    :meth:`Cargo._run_protocol` calls its servers seam at the five points
    where the two servers act — ``max_degree`` (``S1``'s clamp in `Max`),
    ``use_ring`` (the release's ring, derived right after `Max`), ``count``
    (`Count` on the uploaded shares), ``release`` (the servers' step of
    `Perturb`) and ``finish`` (after the release: the MAC counters and the
    transport section).  ``runtime`` is the communication ledger the users'
    steps book their uploads on (``None`` when untracked).  The
    process-separated runtime implements the same calls over its links
    (:mod:`repro.runtime.driver`).
    """

    def __init__(self, runtime: Optional[TwoServerRuntime], authenticator) -> None:
        self.runtime = runtime
        self._authenticator = authenticator
        self._opener = authenticator
        self._ring = None

    max_degree = staticmethod(clamp_max_degree)

    def use_ring(self, ring: Ring) -> None:
        """Count and release in *ring*: plain release openings reduce in it.

        The backends read it from the configuration :meth:`count` hands them.
        """
        self._ring = ring
        if self._authenticator is None:
            self._opener = PlainOpener(ring)

    def count(self, statistic, projected, *, sparse, config, share_rng, dealer_rng, views):
        """The statistic's secure kernel (degree-local when *sparse*)."""
        kernel = statistic.secure_count_from_degrees if sparse else statistic.secure_count
        return kernel(
            projected,
            config=config,
            share_rng=share_rng,
            dealer_rng=dealer_rng,
            views=views,
            runtime=self.runtime,
            authenticator=self._authenticator,
        )

    def release(self, count_result, planes):
        """Add the noise planes to both count shares and open the release."""
        shares = (count_result.share1, count_result.share2)
        return release_opening(shares, planes, self._ring, self._opener)

    def finish(self):
        """The authenticator (its MAC counters) and no transport section."""
        return self._authenticator, None


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

    @property
    def backend_label(self) -> str:
        """The backend name results, spans and telemetry records carry."""
        return self._config.backend_name

    def _max_estimator(self, epsilon1: float, num_users: int) -> MaxDegreeEstimator:
        """The `Max` estimator (Edge DP: degree sensitivity 1)."""
        return MaxDegreeEstimator(epsilon1)

    def _perturb_sensitivity(self, statistic, degree_bound: float) -> float:
        """`Perturb`'s sensitivity in units of the raw secure output."""
        return statistic.secure_output_sensitivity(degree_bound)

    def run(self, graph: Graph) -> CargoResult:
        """Execute the full protocol on *graph* and return the result."""
        config = self._config
        if getattr(config, "distributed", False):
            # The same protocol with four OS processes as its parties;
            # results are bit-identical.
            from repro.runtime.driver import DistributedRuntime

            with DistributedRuntime(config) as runtime:
                return runtime.release(self, graph, views=self.views)
        runtime: Optional[TwoServerRuntime] = (
            TwoServerRuntime(graph.num_nodes) if config.track_communication else None
        )
        # One authenticator per run: every server-to-server opening (Beaver
        # / multiplication-group / matrix openings inside `Count`, plus the
        # final release reconstruction in `Perturb`) goes through its batched
        # MAC check, so a tampering server aborts the run instead of biasing
        # the released count.
        servers = LocalServers(runtime, resolve_authenticator(config))
        # One CPU budget for the whole release: BLAS is capped before Max,
        # so no BLAS thread woken by a wider earlier product spins on into
        # Count's row tasks.
        workers = release_workers(config, graph.num_nodes)
        with blas_scope(blas_budget(workers)):
            cpu = {"workers": workers, "blas_threads": blas_threads()}
            return self._run_protocol(graph, servers=servers, views=self.views, cpu=cpu)

    def _run_protocol(self, graph: Graph, *, servers, views, cpu=None) -> CargoResult:
        """Algorithm 1 with *servers* as the two servers (see :class:`LocalServers`).

        *cpu* is the in-process release's ``workers`` and ``blas_threads``,
        recorded in its manifest record.  A detected cheat records a
        ``cheater_detected`` telemetry event before it propagates.
        """
        config = self._config
        budget = config.resolved_budget()
        statistic = create_statistic(config.statistic, config)
        telemetry = resolve_telemetry(config)
        # Phase timings always come from a span tree; without a telemetry
        # bundle the run uses a private tracer whose only spans are the
        # legacy phases, so ``result.timings`` keeps its historical keys.
        tracer = telemetry.tracer if telemetry.enabled else Tracer()
        max_rng, share_rng, noise_rng, dealer_rng = protocol_rngs(config)
        backend = self.backend_label
        try:
            with tracer.span(
                "total", backend=backend, statistic=config.statistic
            ) as run_span:
                # ------------------------------------------------------ #
                # Step 1a — Max: private estimate of the maximum degree.
                # ------------------------------------------------------ #
                with tracer.span("max"):
                    estimator = self._max_estimator(budget.epsilon1, graph.num_nodes)
                    max_result = estimator.run(
                        graph.degrees(), rng=max_rng, servers=servers
                    )
                # The ring follows from public values once d'_max is out:
                # Count and Perturb run in it, and both servers use it from
                # here.
                sensitivity = self._perturb_sensitivity(
                    statistic, max_result.noisy_max_degree
                )
                ring = release_ring(
                    config,
                    statistic,
                    num_users=graph.num_nodes,
                    degree_bound=max_result.noisy_max_degree,
                    sensitivity=sensitivity,
                    epsilon2=budget.epsilon2,
                )
                servers.use_ring(ring)
                count_config = dataclasses.replace(config, ring=ring)

                # ------------------------------------------------------ #
                # Step 1b — Project: similarity-based degree bounding.
                # Degree statistics only need the row sums the projection
                # would leave behind, so the sparse path projects the
                # degree vector alone — O(n) memory, bit-identical outcome.
                # ------------------------------------------------------ #
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

                # ------------------------------------------------------ #
                # Step 2 — Count: the statistic's secure kernel on shares
                # (triangles delegate to whichever counting backend the
                # configuration names).
                # ------------------------------------------------------ #
                with tracer.span("count", backend=config.backend_name):
                    count_result = servers.count(
                        statistic,
                        projection_result.projected_degrees
                        if use_sparse
                        else projection_result.projected_rows,
                        sparse=use_sparse,
                        config=count_config,
                        share_rng=share_rng,
                        dealer_rng=dealer_rng,
                        views=views,
                    )

                # ------------------------------------------------------ #
                # Step 3 — Perturb: distributed noise inside the shared
                # domain, calibrated to the statistic's post-projection
                # sensitivity (in units of the raw secure output —
                # `finalise` divides the release scale back out afterwards,
                # which is post-processing).
                # ------------------------------------------------------ #
                with tracer.span("perturb"):
                    perturbation = DistributedPerturbation(
                        epsilon2=budget.epsilon2,
                        sensitivity=sensitivity,
                        num_users=max(graph.num_nodes, 1),
                        ring=ring,
                    )
                    perturb_result = perturbation.run(
                        count_result, rng=noise_rng, servers=servers
                    )
            authenticator, transport = servers.finish()
        except CheaterDetectedError as error:
            record_cheater_event(config, telemetry, backend=backend, error=error)
            raise

        # Evaluation-only ground truth, computed outside every protocol span.
        true_count = statistic.plain_count(graph)
        projected_count = (
            statistic.degree_count(projection_result.projected_degrees)
            if use_sparse
            else statistic.projected_count(projection_result.projected_rows)
        )
        noisy_count = statistic.finalise(perturb_result.noisy_count)
        timings = run_span.timings()
        # The distributed runtime keeps its ledger as its reconciliation
        # oracle either way; it surfaces only when the caller asked for it.
        ledger = servers.runtime.ledger if config.track_communication else None
        communication_phases = ledger.phase_summary() if ledger is not None else {}
        result_telemetry = feed_run_telemetry(
            config,
            telemetry,
            backend=backend,
            timings=timings,
            communication_phases=communication_phases,
            count_result=count_result,
            budget=budget,
            noisy_count=noisy_count,
            true_count=true_count,
            projected_count=projected_count,
            noisy_max_degree=max_result.noisy_max_degree,
            ring=ring,
            authenticator=authenticator,
            transport=transport,
            cpu=cpu,
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
            communication=ledger.summary() if ledger is not None else {},
            communication_phases=communication_phases,
            backend=backend,
            statistic=config.statistic,
            telemetry=result_telemetry,
            ring_bits=ring.bits,
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
    ring,
    authenticator=None,
    transport=None,
    cpu=None,
):
    """Post-run metric feeding + the release record for the manifest.

    Called once per release by :meth:`Cargo._run_protocol`.  Runs strictly *after*
    the protocol finished, so instrumentation can never perturb the
    transcript; returns the ``CargoResult.telemetry`` block (``None`` when
    telemetry is disabled).  *transport* is the distributed runtime's
    physical byte summary (frames, payload vs framing overhead, per-process
    wall time); in-process runs have no transport and pass ``None``, and
    pass *cpu* instead: the release's ``workers`` and ``blas_threads``.
    The record's ``ring_bits`` is *ring*, the ring the release counted and
    perturbed in.
    """
    if not telemetry.enabled:
        return None
    metrics = telemetry.metrics
    labels = {"backend": backend, "statistic": config.statistic}
    metrics.increment("runs", **labels)
    mac_block = None
    if authenticator is not None:
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
        "ring_bits": ring.bits,
        "timings": timings,
        "communication_phases": communication_phases,
    }
    if mac_block is not None:
        release["mac"] = mac_block
    if cpu is not None:
        release.update(cpu)
    if transport is not None:
        release["transport"] = transport
    telemetry.record_release(release)
    result_block = build_result_telemetry(
        timings,
        communication_phases,
        opening_rounds=count_result.opening_rounds,
        candidates=count_result.num_triples_processed,
    )
    if transport is not None and result_block is not None:
        result_block["transport"] = transport
    return result_block


def record_cheater_event(config, telemetry, *, backend, error) -> None:
    """Record a failed MAC check in the run's telemetry before re-raising.

    A detected cheat aborts the release, so the normal ``cargo`` record never
    happens; this leaves an auditable ``cheater_detected`` record (which
    round and label failed, never a count) in the manifest instead.  A no-op
    when telemetry is disabled.
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
