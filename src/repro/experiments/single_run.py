"""One fully-instrumented protocol release — the CLI's ``run`` experiment.

Every other experiment aggregates error metrics over many trials; this one
executes a *single* release of the configured statistic through the
configured backend with communication tracking engaged, so one invocation
exercises the entire observability surface: the run's span tree, the
metric registry and the ledger-reconciled per-phase communication totals.
It is what ``repro-cargo run --trace-out trace.json --metrics-out
metrics.prom`` drives, and what the telemetry smoke benchmark loops over
every backend × statistic.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cargo import Cargo
from repro.core.config import CargoConfig
from repro.experiments.runner import ExperimentReport
from repro.graph.datasets import load_dataset

__all__ = ["single_release"]


def single_release(
    dataset: str = "facebook",
    num_nodes: int = 60,
    epsilon: float = 4.0,
    seed: int = 0,
    counting_backend: Optional[str] = None,
    statistic: Optional[str] = None,
    star_k: Optional[int] = None,
    workers: Optional[int] = None,
    sparse: Optional[str] = None,
    tile_window: Optional[int] = None,
    authenticate: bool = False,
    distributed: bool = False,
    telemetry: Optional[object] = None,
    resilience: Optional[object] = None,
) -> ExperimentReport:
    """Run one private release end to end and report what it did.

    The report has exactly one row.  Scalar columns render in the text
    table; the row additionally carries the full per-run ``telemetry``
    block (phase table, opening rounds) and the
    ``communication_phases`` map for JSON consumers — the CLI's ``--json``
    output and the manifest-reconciliation smoke checks read them from
    here.  With *distributed* the release runs on the process-separated
    runtime and the row gains a ``transport`` block with wire-frame counts,
    payload bytes, framing overhead, and per-process wall times.
    """
    graph = load_dataset(dataset, num_nodes=num_nodes)
    config = CargoConfig(
        epsilon=epsilon,
        seed=seed,
        track_communication=True,
        authenticate=authenticate,
        distributed=distributed,
        telemetry=telemetry,
        resilience=resilience,
        **({} if counting_backend is None else {"counting_backend": counting_backend}),
        **({} if statistic is None else {"statistic": statistic}),
        **({} if star_k is None else {"star_k": star_k}),
        **({} if workers is None else {"workers": workers}),
        **({} if sparse is None else {"sparse": sparse}),
        **({} if tile_window is None else {"tile_window": tile_window}),
    )
    result = Cargo(config).run(graph)
    comm_bytes = sum(
        entry.get("bytes", 0) for entry in result.communication_phases.values()
    )
    comm_messages = sum(
        entry.get("messages", 0) for entry in result.communication_phases.values()
    )
    report = ExperimentReport(
        name="run",
        description=(
            f"one private {result.statistic} release on {dataset} "
            f"(n={num_nodes}, backend={result.backend}, epsilon={epsilon})"
        ),
        columns=[
            "dataset",
            "statistic",
            "backend",
            "noisy_count",
            "true_count",
            "seconds",
            "comm_bytes",
            "comm_messages",
        ],
    )
    report.add_row(
        dataset=dataset,
        statistic=result.statistic,
        backend=result.backend,
        noisy_count=result.noisy_triangle_count,
        true_count=result.true_triangle_count,
        seconds=result.timings.get("total", 0.0),
        comm_bytes=comm_bytes,
        comm_messages=comm_messages,
        communication_phases=result.communication_phases,
        telemetry=result.telemetry,
        **(
            {"transport": result.telemetry["transport"]}
            if result.telemetry and "transport" in result.telemetry
            else {}
        ),
    )
    return report
