"""Command-line entry point: regenerate any paper table or figure.

Usage::

    repro-cargo list
    repro-cargo table4
    repro-cargo fig5 --num-nodes 200 --trials 2
    repro-cargo run --backend blocked --statistic 4cycles \
        --trace-out trace.json --metrics-out metrics.prom
    python -m repro.cli fig9 --num-nodes 300

Every experiment accepts a few common overrides (number of nodes, number of
trials, seed) so a quick run and a paper-scale run use the same entry point.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.exceptions import ReproError
from repro.experiments.specs import get_experiment, list_experiments


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-cargo",
        description="Regenerate tables and figures from the CARGO paper (ICDE 2024).",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="experiment name (e.g. table4, fig5) or 'list' to enumerate them; "
        "may be omitted when --stream is given",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="run the continual-release streaming experiment (shorthand for "
        "the 'stream' experiment name)",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="run the empirical privacy audit of the full release (shorthand "
        "for the 'audit' experiment name)",
    )
    parser.add_argument(
        "--authenticate",
        action="store_true",
        help="run with MAC-authenticated openings (CargoConfig authenticate; "
        "a cheating server aborts the run with a typed error instead of "
        "biasing the count — honest releases are bit-identical)",
    )
    parser.add_argument(
        "--distributed",
        action="store_true",
        help="run CARGO releases on the process-separated runtime "
        "(CargoConfig distributed; dealer and both servers fork as OS "
        "processes and every protocol message crosses a socket — releases "
        "and ledgers are bit-identical to the in-process engine)",
    )
    parser.add_argument(
        "--release-every",
        type=int,
        default=None,
        help="streaming: publish a DP release every this many edge events",
    )
    parser.add_argument(
        "--anchor-every",
        type=int,
        default=None,
        help="streaming: re-run the secure Count phase every this many "
        "releases (0 disables anchoring)",
    )
    parser.add_argument("--num-nodes", type=int, default=None, help="override the graph size")
    parser.add_argument("--trials", type=int, default=None, help="override the number of trials")
    parser.add_argument("--epsilon", type=float, default=None, help="override the privacy budget")
    parser.add_argument("--seed", type=int, default=None, help="override the base random seed")
    parser.add_argument(
        "--backend",
        default=None,
        help="secure counting backend for experiments that run CARGO "
        "(a registered name, e.g. matrix, blocked, batched, faithful)",
    )
    parser.add_argument(
        "--statistic",
        default=None,
        help="subgraph statistic for experiments that run CARGO "
        "(a registered name, e.g. triangles, kstars, wedges, 4cycles)",
    )
    parser.add_argument(
        "--star-k",
        type=int,
        default=None,
        help="star size for the kstars statistic (default 2, i.e. wedges)",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="run sweep cells on this many worker threads (deterministic; "
        "identical rows to a serial run)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker threads for each secure count (CargoConfig/"
        "StreamingConfig workers; default 1; transcripts are bit-identical "
        "for any count, so this is purely a wall-clock knob)",
    )
    parser.add_argument(
        "--sparse",
        choices=("auto", "never", "force"),
        default=None,
        help="degree-local execution policy for CARGO runs (CargoConfig "
        "sparse; 'auto' runs degree statistics on O(n) degree vectors, "
        "'force' errors on statistics that cannot run sparse)",
    )
    parser.add_argument(
        "--tile-window",
        type=int,
        default=None,
        help="tile groups per schedule chunk for the blocked backend "
        "(CargoConfig tile_window; a triple store and a checkpoint work one "
        "chunk at a time, with bit-identical transcripts)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="FILE",
        help="journal run progress to FILE (atomic write-then-rename) so a "
        "killed run can be resumed; supported by the streaming and "
        "tile-window experiments",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from the --checkpoint file when it exists; the resumed "
        "run's releases and ledgers are bit-identical to an uninterrupted run",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retry transient I/O failures (triple-store reads, checkpoint "
        "writes, pool tasks, anchors) up to N attempts per operation",
    )
    parser.add_argument(
        "--strict-integrity",
        action="store_true",
        help="raise IntegrityError on corrupted persisted material instead "
        "of silently re-dealing it",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE",
        help="install a deterministic fault-injection plan (JSON produced by "
        "FaultPlan.to_json) for the run — chaos-testing aid",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a schema-versioned JSON run manifest (span tree, metrics, "
        "releases) to FILE after the experiment",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the run's metric registry in Prometheus text format to FILE",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the result rows as JSON instead of a table"
    )
    return parser


def _build_resilience(args: argparse.Namespace):
    """A ResilienceConfig from the CLI flags, or ``None`` when all are off."""
    if not (
        args.checkpoint
        or args.resume
        or args.retries is not None
        or args.strict_integrity
    ):
        return None
    from repro.resilience import ResilienceConfig, RetryPolicy

    retry = None
    if args.retries is not None:
        if args.retries < 1:
            raise ReproError(f"--retries must be at least 1, got {args.retries}")
        retry = RetryPolicy(max_attempts=args.retries, seed=args.seed or 0)
    return ResilienceConfig(
        retry=retry,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        strict_integrity=args.strict_integrity,
    )


def _collect_overrides(
    args: argparse.Namespace, runner, telemetry=None, resilience=None
) -> dict:
    """Map CLI flags onto the experiment function's keyword parameters."""
    import inspect

    accepted = set(inspect.signature(runner).parameters)
    overrides = {}
    if telemetry is not None and "telemetry" in accepted:
        overrides["telemetry"] = telemetry
    if resilience is not None:
        if "resilience" not in accepted:
            raise ReproError(
                f"experiment {args.experiment!r} does not support "
                "--checkpoint/--resume/--retries/--strict-integrity"
            )
        overrides["resilience"] = resilience
    if args.num_nodes is not None and "num_nodes" in accepted:
        overrides["num_nodes"] = args.num_nodes
    if args.trials is not None and "num_trials" in accepted:
        overrides["num_trials"] = args.trials
    if args.epsilon is not None:
        if "epsilon" in accepted:
            overrides["epsilon"] = args.epsilon
        elif "epsilons" in accepted:
            overrides["epsilons"] = (args.epsilon,)
    if args.seed is not None and "seed" in accepted:
        overrides["seed"] = args.seed
    if args.backend is not None and "counting_backend" in accepted:
        overrides["counting_backend"] = args.backend
    if args.statistic is not None and "statistic" in accepted:
        overrides["statistic"] = args.statistic
    if args.star_k is not None and "star_k" in accepted:
        overrides["star_k"] = args.star_k
    if args.max_workers is not None and "max_workers" in accepted:
        overrides["max_workers"] = args.max_workers
    if args.workers is not None and "workers" in accepted:
        overrides["workers"] = args.workers
    if args.sparse is not None and "sparse" in accepted:
        overrides["sparse"] = args.sparse
    if args.tile_window is not None and "tile_window" in accepted:
        overrides["tile_window"] = args.tile_window
    if args.authenticate and "authenticate" in accepted:
        overrides["authenticate"] = True
    if args.distributed:
        if "distributed" not in accepted:
            raise ReproError(
                f"experiment {args.experiment!r} does not support --distributed"
            )
        overrides["distributed"] = True
    if args.release_every is not None and "release_every" in accepted:
        overrides["release_every"] = args.release_every
    if args.anchor_every is not None and "anchor_every" in accepted:
        overrides["anchor_every"] = args.anchor_every
    return overrides


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.stream and args.audit:
        parser.error("--stream and --audit are mutually exclusive")
    if args.experiment is None:
        if args.stream:
            args.experiment = "stream"
        elif args.audit:
            args.experiment = "audit"
        else:
            parser.error("an experiment name is required (or pass --stream/--audit)")
    elif args.stream and args.experiment.lower() != "stream":
        parser.error(
            f"--stream conflicts with the explicit experiment name {args.experiment!r}"
        )
    elif args.audit and args.experiment.lower() != "audit":
        parser.error(
            f"--audit conflicts with the explicit experiment name {args.experiment!r}"
        )

    if args.experiment.lower() == "list":
        for name in list_experiments():
            spec = get_experiment(name)
            print(f"{name:<8} {spec.paper_artifact:<11} {spec.description}")
        return 0

    # A telemetry session is created whenever an exporter (or the JSON
    # payload, which embeds a summary block) can consume it; experiments
    # that do not accept a ``telemetry`` parameter simply run untraced.
    telemetry = None
    if args.trace_out or args.metrics_out or args.json:
        from repro.telemetry import Telemetry

        telemetry = Telemetry()

    # Fault plans are a chaos-testing aid: injected crashes exit with a
    # distinct code (2) so a harness can tell "killed as planned" from a
    # typed protocol failure (1).
    from contextlib import nullcontext

    fault_context = nullcontext()
    if args.fault_plan:
        from repro.resilience import FaultPlan, install_fault_plan

        try:
            plan = FaultPlan.from_json(Path(args.fault_plan).read_text())
        except (OSError, ValueError, KeyError) as error:
            print(f"error: unreadable fault plan: {error}", file=sys.stderr)
            return 1
        fault_context = install_fault_plan(plan)

    from repro.resilience.faults import InjectedCrash

    try:
        with fault_context:
            resilience = _build_resilience(args)
            spec = get_experiment(args.experiment)
            overrides = _collect_overrides(
                args, spec.runner, telemetry=telemetry, resilience=resilience
            )
            report = spec.run(**overrides)

            if args.trace_out:
                from repro.telemetry import write_trace

                write_trace(
                    telemetry,
                    args.trace_out,
                    experiment=args.experiment,
                    description=report.description,
                )
            if args.metrics_out:
                from repro.telemetry import write_metrics

                write_metrics(telemetry.metrics, args.metrics_out)
    except InjectedCrash as error:
        print(f"crashed (injected): {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        # Untyped I/O failures (including injected transient ones that
        # exhausted no retry policy) still exit with a one-line message.
        print(f"error: {error}", file=sys.stderr)
        return 1

    if args.json:
        import json

        from repro.telemetry import summary_block

        payload = {
            "name": report.name,
            "description": report.description,
            "rows": report.rows,
            "telemetry": summary_block(telemetry),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(report.to_text())
    return 0


if __name__ == "__main__":
    sys.exit(main())
