"""End-to-end empirical privacy audit of the full CARGO release.

:mod:`repro.dp.auditing` audits bare mechanisms — one Laplace draw on two
neighbouring scalars.  This module audits what is actually deployed: the
whole ``Cargo`` / ``NodeDpCargo`` pipeline (`Max` → `Project` → `Count` →
`Perturb`), run many times on a pair of neighbouring *graphs*, with the
realized privacy loss lower-bounded from the released counts and compared
against the accountant's claimed spend ``ε = ε1 + ε2``.

Audit inputs are worst-case by construction: the default graph is complete,
and :func:`neighbouring_graphs` removes the edge with the most common
neighbours (edge adjacency) or the highest-degree node's edges (node
adjacency), so the count gap between the two inputs sits near the
sensitivity bound and a calibration bug has nowhere to hide.  The planted
failure the CI gate pins — running with noise for ``2·ε2`` while claiming
``ε2`` — is injected through *epsilon2_scale*, not by monkeypatching.

The audit also checks *view privacy*: a single server's recorded opening
transcript must be statistically indistinguishable across the two
neighbouring inputs (every message a server sees is uniformly masked), which
is the empirical counterpart of the paper's simulation argument.

Caveats (see ``docs/verification.md``): this is a lower-bound audit over the
released count alone.  Passing is necessary, never sufficient, for the
claimed guarantee, and the noisy max degree — itself ε1-DP — is treated as
part of the mechanism's internal randomness rather than audited as a second
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.cargo import Cargo
from repro.core.config import CargoConfig
from repro.core.node_dp import NodeDpCargo
from repro.dp.auditing import epsilon_lower_bound_from_samples
from repro.dp.budget import PrivacyBudget
from repro.exceptions import AuditFailedError, ConfigurationError
from repro.graph.graph import Graph
from repro.utils.rng import derive_rng

__all__ = [
    "ProtocolAuditResult",
    "audit_experiment",
    "audit_protocol",
    "neighbouring_graphs",
    "worst_case_graph",
]


def worst_case_graph(num_nodes: int = 12) -> Graph:
    """The complete graph — the audit's distinguishing-power-maximising input.

    On ``K_n`` the worst-case edge has ``n - 2`` common neighbours and the
    hub node touches every triangle, so the neighbouring count gap sits at
    the sensitivity bound instead of far below it; auditing a sparse random
    graph would under-estimate the realized loss of correct *and* broken
    implementations alike.
    """
    if num_nodes < 3:
        raise ConfigurationError(f"num_nodes must be at least 3, got {num_nodes}")
    edges = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    return Graph(num_nodes, edges=edges)


def neighbouring_graphs(graph: Graph, mode: str = "edge"):
    """A deterministic worst-case neighbouring pair ``(D, D')`` of *graph*.

    ``mode="edge"`` removes the edge whose endpoints share the most common
    neighbours; ``mode="node"`` isolates the highest-degree node (node
    adjacency keeps the vertex set fixed — the standard remove-all-edges
    formulation).  Ties break towards the smallest edge/node, so the pair is
    a pure function of the input graph.
    """
    if mode == "edge":
        best = None
        best_common = -1
        for u, v in graph.edge_list():
            common = len(graph.neighbors(u) & graph.neighbors(v))
            if common > best_common:
                best, best_common = (u, v), common
        if best is None:
            raise ConfigurationError("graph has no edges; cannot form an edge-neighbour")
        neighbour = graph.copy()
        neighbour.remove_edge(*best)
        return graph, neighbour
    if mode == "node":
        degrees = graph.degrees()
        target = max(range(graph.num_nodes), key=lambda node: (degrees[node], -node))
        if degrees[target] == 0:
            raise ConfigurationError("graph has no edges; cannot form a node-neighbour")
        neighbour = graph.copy()
        for other in sorted(graph.neighbors(target)):
            neighbour.remove_edge(target, other)
        return graph, neighbour
    raise ConfigurationError(f"mode must be 'edge' or 'node', got {mode!r}")


@dataclass(frozen=True)
class ProtocolAuditResult:
    """Outcome of one end-to-end protocol audit."""

    epsilon_lower_bound: float
    claimed_epsilon: float
    realized_epsilon: float
    num_trials: int
    num_bins: int
    mode: str
    statistic: str
    backend: str
    node_dp: bool
    #: Kolmogorov–Smirnov distance between one server's flattened opening
    #: views on the two inputs (``None`` when view auditing was skipped).
    view_divergence: Optional[float] = None
    #: KS acceptance threshold the divergence was compared against.
    view_threshold: Optional[float] = None

    @property
    def passes(self) -> bool:
        """Audited loss within the claimed ε (same tolerance as AuditResult)."""
        return self.epsilon_lower_bound <= self.claimed_epsilon * 1.05 + 0.05

    @property
    def view_passes(self) -> bool:
        """Server views indistinguishable across the neighbouring inputs."""
        if self.view_divergence is None:
            return True
        return self.view_divergence <= self.view_threshold


def _run_release(graph: Graph, config: CargoConfig, node_dp: bool) -> float:
    orchestrator = NodeDpCargo(config) if node_dp else Cargo(config)
    return float(orchestrator.run(graph).noisy_triangle_count)


def _flatten_view(graph: Graph, config_kwargs: dict, node_dp: bool, server: int):
    """One server's opening view of a single run, as floats in ``[0, 1)``.

    ``NodeDpCargo`` runs the Edge-DP secure kernel (and hence produces the
    Edge-DP server views) — only the noise scales differ — so view auditing
    records through ``Cargo`` for both variants.
    """
    del node_dp
    config = CargoConfig(record_views=True, **config_kwargs)
    orchestrator = Cargo(config)
    orchestrator.run(graph)
    parts = []
    for entry in orchestrator.views.view(server).entries:
        parts.append(np.atleast_1d(np.asarray(entry.value, dtype=np.uint64)).ravel())
    if not parts:
        return np.zeros(0)
    flat = np.concatenate(parts).astype(np.float64)
    return flat / float(1 << 64)


def _ks_distance(samples_a: np.ndarray, samples_b: np.ndarray) -> float:
    """Two-sample Kolmogorov–Smirnov statistic (dependency-free)."""
    pooled = np.sort(np.concatenate([samples_a, samples_b]))
    cdf_a = np.searchsorted(np.sort(samples_a), pooled, side="right") / samples_a.size
    cdf_b = np.searchsorted(np.sort(samples_b), pooled, side="right") / samples_b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def audit_protocol(
    graph: Optional[Graph] = None,
    *,
    mode: str = "edge",
    statistic: str = "triangles",
    backend: str = "matrix",
    epsilon: float = 2.0,
    num_trials: int = 800,
    num_bins: int = 24,
    seed: int = 0,
    node_dp: bool = False,
    epsilon2_scale: float = 1.0,
    audit_views: bool = True,
) -> ProtocolAuditResult:
    """Monte-Carlo lower bound on the realized ε of the full release.

    Runs the whole protocol *num_trials* times on each of a neighbouring
    graph pair (fresh independent seeds per trial, derived from *seed*) and
    lower-bounds the privacy loss from the released counts with the same
    discounted-histogram estimator the mechanism auditor uses.

    *epsilon2_scale* is the planted-bug knob: the runs execute with budget
    ``(ε1, scale·ε2)`` — so ``scale=2`` halves the `Perturb` noise — while
    the audit still compares against the **claimed** ``ε1 + ε2``.  The CI
    gate pins both directions: ``scale=1`` must pass, ``scale=2`` must fail.
    """
    if num_trials < 10:
        raise ConfigurationError(f"num_trials must be at least 10, got {num_trials}")
    if epsilon2_scale <= 0:
        raise ConfigurationError(
            f"epsilon2_scale must be positive, got {epsilon2_scale}"
        )
    if graph is None:
        graph = worst_case_graph()
    graph_a, graph_b = neighbouring_graphs(graph, mode=mode)
    claimed = PrivacyBudget.from_total(epsilon)
    run_budget = PrivacyBudget(
        epsilon1=claimed.epsilon1, epsilon2=claimed.epsilon2 * epsilon2_scale
    )

    seed_rng = derive_rng(seed)
    trial_seeds = seed_rng.integers(0, 2**31 - 1, size=2 * num_trials)

    def release(target: Graph, trial_seed: int) -> float:
        config = CargoConfig(
            budget=run_budget,
            seed=int(trial_seed),
            statistic=statistic,
            counting_backend=backend,
        )
        return _run_release(target, config, node_dp)

    samples_a = np.array(
        [release(graph_a, s) for s in trial_seeds[:num_trials]]
    )
    samples_b = np.array(
        [release(graph_b, s) for s in trial_seeds[num_trials:]]
    )
    lower_bound = epsilon_lower_bound_from_samples(
        samples_a, samples_b, num_bins=num_bins
    )

    view_divergence = None
    view_threshold = None
    if audit_views:
        config_kwargs = dict(
            budget=run_budget,
            seed=seed,
            statistic=statistic,
            counting_backend=backend,
        )
        view_a = _flatten_view(graph_a, config_kwargs, node_dp, server=2)
        view_b = _flatten_view(graph_b, config_kwargs, node_dp, server=2)
        if view_a.size and view_b.size:
            view_divergence = _ks_distance(view_a, view_b)
            # 1% two-sample KS critical value: uniformly masked views on
            # neighbouring inputs should sit comfortably below it.
            view_threshold = 1.63 * float(
                np.sqrt((view_a.size + view_b.size) / (view_a.size * view_b.size))
            )

    return ProtocolAuditResult(
        epsilon_lower_bound=lower_bound,
        claimed_epsilon=claimed.total,
        realized_epsilon=claimed.epsilon1 + claimed.epsilon2 * epsilon2_scale,
        num_trials=num_trials,
        num_bins=num_bins,
        mode=mode,
        statistic=statistic,
        backend=backend,
        node_dp=node_dp,
        view_divergence=view_divergence,
        view_threshold=view_threshold,
    )


def audit_experiment(
    num_nodes: int = 12,
    epsilon: float = 2.0,
    num_trials: int = 800,
    seed: int = 0,
    statistic: Optional[str] = None,
    counting_backend: Optional[str] = None,
):
    """The CLI's ``audit`` experiment: honest pass + planted-bug failure.

    One row per audited configuration: the honest release on edge- and
    node-adjacent inputs (both must pass), and a deliberately broken release
    with half-scale `Perturb` noise (which must fail) — so a single
    invocation demonstrates the audit has teeth, not just green lights.
    Raises :class:`~repro.exceptions.AuditFailedError` (carrying the report)
    when any row's verdict differs from its expectation, so ``repro-cargo
    --audit`` exits 1 on a wrong verdict.  At low *num_trials* (≲ 200) the
    estimator starves and the planted bug passes, which fails the gate.
    """
    from repro.experiments.runner import ExperimentReport

    graph = worst_case_graph(num_nodes)
    statistic = statistic or "triangles"
    backend = counting_backend or "matrix"
    report = ExperimentReport(
        name="audit",
        description=(
            f"empirical privacy audit of the full release on K_{num_nodes} "
            f"(statistic={statistic}, backend={backend}, epsilon={epsilon})"
        ),
        columns=[
            "case",
            "mode",
            "audited_epsilon",
            "claimed_epsilon",
            "realized_epsilon",
            "passes",
            "expected",
            "view_divergence",
        ],
    )
    cases = (
        ("honest", "edge", 1.0, True),
        ("honest", "node", 1.0, True),
        ("half-noise bug", "edge", 2.0, False),
    )
    for label, mode, scale, expected_pass in cases:
        result = audit_protocol(
            graph,
            mode=mode,
            statistic=statistic,
            backend=backend,
            epsilon=epsilon,
            num_trials=num_trials,
            seed=seed,
            node_dp=(mode == "node"),
            epsilon2_scale=scale,
            audit_views=(label == "honest"),
        )
        report.add_row(
            case=label,
            mode=mode,
            audited_epsilon=round(result.epsilon_lower_bound, 4),
            claimed_epsilon=result.claimed_epsilon,
            realized_epsilon=round(result.realized_epsilon, 4),
            passes=result.passes and result.view_passes,
            expected=expected_pass,
            view_divergence=(
                None
                if result.view_divergence is None
                else round(result.view_divergence, 4)
            ),
        )
    wrong = [row for row in report.rows if row["passes"] != row["expected"]]
    if wrong:
        raise AuditFailedError(
            "privacy audit gate failed: "
            + "; ".join(
                f"{row['case']} ({row['mode']}) audited {row['audited_epsilon']} vs "
                f"claimed {row['claimed_epsilon']}: passes={row['passes']}, "
                f"expected {row['expected']}"
                for row in wrong
            ),
            report=report,
        )
    return report
