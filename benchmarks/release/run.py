"""Release benchmark: full CARGO releases (Max -> Project -> Count -> Perturb), timed from outside.

Run from the repository root::

    python3 benchmarks/release/run.py --seed 0                  # every workload, one interpreter each
    python3 benchmarks/release/run.py --workload tri-blocked-1024 --seed 0 --seconds 10 --trace 1
    python3 benchmarks/release/run.py --seed 0 --smoke          # n=64, one release per workload

Each run prints the host record as ``# ...`` lines, every metric as
``workload metric value unit``, the per-layer self-time table when traced,
and, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics of
``BENCHMARK.json`` untraced, its per-layer metrics traced.  The same rows,
the checks and the spans are written under ``benchmarks/release/results/``.
The exit code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
RESULTS = HERE / "results"
BENCHMARK = ROOT / "BENCHMARK.json"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="generates graphs and release seeds")
    parser.add_argument("--workload", help="run only this workload (default: all, one process each)")
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed loop")
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="add one traced release and report per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="n=64 and one release per workload")
    return parser.parse_args(argv)


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "commit": git_commit(),
    }


def warn_if_loaded(record: dict, key: str) -> None:
    if record[key] > record["nproc"]:
        print(
            f"warning: {key} {record[key]:.2f} exceeds nproc {record['nproc']}; "
            "timings are contended",
            file=sys.stderr,
        )


def print_layer_table(name: str, outcome) -> None:
    """Self time per layer of the traced release; the rows sum to its wall time."""
    rows = sorted(outcome.layers.items(), key=lambda item: -item[1]["self_s"])
    covered = sum(row["self_s"] for _, row in rows)
    print(f"# {name} traced release: {outcome.traced_wall_s:.4f} s wall")
    print(f"# {'layer':<14} {'self_s':>10} {'share':>7} {'calls':>7}")
    for layer, row in rows:
        label = "orchestration" if layer == "release" else layer
        share = row["self_s"] / covered if covered else 0.0
        print(f"# {label:<14} {row['self_s']:>10.4f} {share:>7.1%} {row['calls']:>7}")
    named = covered - outcome.layers.get("release", {}).get("self_s", 0.0)
    print(f"# {'sum':<14} {covered:>10.4f}  named layers {named / covered if covered else 0:.1%}")


def run_one(args: argparse.Namespace, declared: dict) -> int:
    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    seconds = args.seconds
    if args.smoke:
        workload, seconds = workload.smoke(), 0.0
    record = host_record(args.seed)
    warn_if_loaded(record, "loadavg_start")
    outcome = measure.measure(workload, args.seed, seconds, bool(args.trace))
    record["loadavg_end"] = os.getloadavg()[0]
    warn_if_loaded(record, "loadavg_end")

    for key, value in record.items():
        print(f"# {key} {value}")
    for metric, (value, unit) in outcome.metrics.items():
        print(f"{workload.name} {metric} {value:.6g} {unit}")
    for check in outcome.checks:
        if not check["ok"]:
            print(f"# CHECK FAILED {check['name']}: {check['detail']}", file=sys.stderr)
    for release in outcome.releases:
        if release.error:
            print(f"# RELEASE FAILED {release.kind} seed={release.seed}: {release.error}", file=sys.stderr)
    if args.trace:
        print_layer_table(workload.name, outcome)

    emitted = {name: {"value": v, "unit": u} for name, (v, u) in outcome.metrics.items()}
    listed = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {entry["name"]: emitted[entry["name"]] for entry in listed}
    stem = f"{workload.name}-seed{args.seed}{'-smoke' if args.smoke else ''}{'-trace' if args.trace else ''}"
    RESULTS.mkdir(exist_ok=True)
    report = {
        "workload": workload.name,
        "host": record,
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": emitted,
        "checks": outcome.checks,
        "releases": [dataclasses.asdict(release) for release in outcome.releases],
        "layers": outcome.layers,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if args.trace:
        origin = min((span.start for span in outcome.spans), default=0.0)
        spans = [
            dict(dataclasses.asdict(span), start=span.start - origin, end=span.end - origin)
            for span in outcome.spans
        ]
        (RESULTS / f"{stem}-spans.json").write_text(
            json.dumps({"workload": workload.name, "host": record, "spans": spans}) + "\n"
        )
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if outcome.correct else 1


def run_all(args: argparse.Namespace, declared: dict) -> int:
    """Every declared workload in turn, each in a fresh interpreter."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for entry in declared["workloads"]:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", entry["name"],
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        status = status or child.returncode
        summary["correct"] = summary["correct"] and result["correct"] and child.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"][entry["name"]] = result["metrics"]
    print(json.dumps(summary))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(
            f"error: {SOURCE / 'repro'} or {BENCHMARK.name} is missing; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SOURCE))
    declared = json.loads(BENCHMARK.read_text())
    if args.workload is None:
        return run_all(args, declared)
    return run_one(args, declared)


if __name__ == "__main__":
    sys.exit(main())
