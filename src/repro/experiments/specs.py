"""Registry mapping paper artefacts to their regeneration functions.

Each entry names a table or figure from the paper, the function that
regenerates it, and the modules implementing the pieces, so the CLI (and a
reader of ``docs/architecture.md``) can go from "Figure 9" to runnable code
in one hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.exceptions import ExperimentError
from repro.experiments import figures, single_run, statistics, streaming, tables
from repro.experiments.runner import ExperimentReport
from repro.verify import audit as verify_audit


@dataclass(frozen=True)
class ExperimentSpec:
    """One regenerable paper artefact."""

    name: str
    paper_artifact: str
    description: str
    runner: Callable[..., ExperimentReport]
    modules: tuple

    def run(self, **overrides) -> ExperimentReport:
        """Execute the experiment, forwarding any keyword overrides."""
        return self.runner(**overrides)


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec(
            name="table2",
            paper_artifact="Table II",
            description="Theoretical comparison of the three models",
            runner=tables.table2_theoretical_summary,
            modules=("repro.core.cargo", "repro.baselines"),
        ),
        ExperimentSpec(
            name="table3",
            paper_artifact="Table III",
            description="Noisy max degree vs smooth/residual sensitivity",
            runner=tables.table3_sensitivity_comparison,
            modules=("repro.dp.smooth_sensitivity", "repro.core.max_degree"),
        ),
        ExperimentSpec(
            name="table4",
            paper_artifact="Table IV",
            description="Dataset statistics",
            runner=tables.table4_dataset_statistics,
            modules=("repro.graph.datasets", "repro.graph.statistics"),
        ),
        ExperimentSpec(
            name="table5",
            paper_artifact="Table V",
            description="Noisy maximum degree under varying epsilon",
            runner=tables.table5_noisy_max_degree,
            modules=("repro.core.max_degree",),
        ),
        ExperimentSpec(
            name="fig5",
            paper_artifact="Figure 5",
            description="l2 loss vs epsilon",
            runner=figures.figure5_l2_vs_epsilon,
            modules=("repro.core.cargo", "repro.baselines.central_lap", "repro.baselines.local_two_rounds"),
        ),
        ExperimentSpec(
            name="fig6",
            paper_artifact="Figure 6",
            description="relative error vs epsilon",
            runner=figures.figure6_relative_error_vs_epsilon,
            modules=("repro.core.cargo", "repro.baselines.central_lap", "repro.baselines.local_two_rounds"),
        ),
        ExperimentSpec(
            name="fig7",
            paper_artifact="Figure 7",
            description="l2 loss vs number of users",
            runner=figures.figure7_l2_vs_n,
            modules=("repro.core.cargo", "repro.baselines"),
        ),
        ExperimentSpec(
            name="fig8",
            paper_artifact="Figure 8",
            description="relative error vs number of users",
            runner=figures.figure8_relative_error_vs_n,
            modules=("repro.core.cargo", "repro.baselines"),
        ),
        ExperimentSpec(
            name="fig9",
            paper_artifact="Figure 9",
            description="projection l2 loss vs theta",
            runner=figures.figure9_projection_l2,
            modules=("repro.core.projection", "repro.baselines.random_projection"),
        ),
        ExperimentSpec(
            name="fig10",
            paper_artifact="Figure 10",
            description="projection relative error vs theta",
            runner=figures.figure10_projection_relative_error,
            modules=("repro.core.projection", "repro.baselines.random_projection"),
        ),
        ExperimentSpec(
            name="fig11",
            paper_artifact="Figure 11",
            description="running time vs number of users (Facebook)",
            runner=figures.figure11_running_time,
            modules=("repro.core.cargo", "repro.core.backends", "repro.baselines"),
        ),
        ExperimentSpec(
            name="fig12",
            paper_artifact="Figure 12",
            description="running time vs number of users (Wiki)",
            runner=figures.figure12_running_time_wiki,
            modules=("repro.core.cargo", "repro.core.backends", "repro.baselines"),
        ),
        ExperimentSpec(
            name="stream",
            paper_artifact="(extension)",
            description="continual private statistic release over an edge stream",
            runner=streaming.streaming_accuracy_over_time,
            modules=("repro.stream", "repro.core.backends", "repro.dp.accountant"),
        ),
        ExperimentSpec(
            name="run",
            paper_artifact="(extension)",
            description="one fully-instrumented protocol release (any backend x statistic)",
            runner=single_run.single_release,
            modules=("repro.core.cargo", "repro.telemetry"),
        ),
        ExperimentSpec(
            name="audit",
            paper_artifact="(extension)",
            description="empirical privacy audit of the full release (honest pass + planted-bug fail)",
            runner=verify_audit.audit_experiment,
            modules=("repro.verify.audit", "repro.dp.auditing", "repro.core.cargo"),
        ),
        ExperimentSpec(
            name="stats",
            paper_artifact="(extension)",
            description="private subgraph statistics (triangles, k-stars, 4-cycles) vs epsilon",
            runner=statistics.statistics_accuracy,
            modules=("repro.stats", "repro.core.cargo", "repro.analysis.subgraphs"),
        ),
    )
}


def list_experiments() -> List[str]:
    """Names of all registered experiments, in registry order."""
    return list(EXPERIMENTS)


def get_experiment(name: str) -> ExperimentSpec:
    """Look up an experiment by name (``table3``, ``fig5``, …)."""
    key = name.lower()
    if key not in EXPERIMENTS:
        raise ExperimentError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key]
