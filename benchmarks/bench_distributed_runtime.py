"""In-process vs process-separated runtime wall-clock comparison.

Runs the same matrix-backend release twice per graph size — once on the
in-process engine (one Python process computes both servers' halves
serially) and once on a persistent :class:`~repro.runtime.DistributedRuntime`
(dealer and both servers as forked OS processes, every protocol message on
a socket) — and reports the wall-clock ratio.  Releases are asserted
bit-identical before any timing is trusted, so the ratio compares the same
computation, not two different protocols.

On a multi-core host the two server processes overlap their halves of the
secure count, which is where process separation pays: the committed gate
requires a ``SPEEDUP_TARGET`` speedup at ``n = 256`` whenever the host has
at least two CPUs.  On a single-core host no overlap is physically possible
— the distributed run then measures pure transport overhead — so the row is
reported informationally (``gated: false``) instead of failing, and every
row records ``host_cpus`` and the 1-minute load average so a reader can
tell which regime produced it.

Rows are emitted as JSON (``benchmarks/results/distributed_runtime.json``
by default, override with ``REPRO_BENCH_DISTRIBUTED_OUTPUT``).

Usage::

    PYTHONPATH=src python benchmarks/bench_distributed_runtime.py
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from repro.core.cargo import Cargo
from repro.core.config import CargoConfig
from repro.graph.datasets import load_dataset
from repro.runtime import DistributedRuntime
from repro.telemetry import Telemetry
from repro.utils.atomic import atomic_write_json

#: Graph sizes compared; the gate applies to the largest.
USER_COUNTS = (128, 256)
BACKEND = "matrix"
TIMING_REPS = 3
#: Required distributed/in-process speedup at two server processes — only
#: enforced when the host can actually run the servers concurrently.
SPEEDUP_TARGET = 1.3
#: The gate applies from this many CPUs upward.
MIN_GATED_CPUS = 2


def _load_average() -> float:
    try:
        return os.getloadavg()[0]
    except (AttributeError, OSError):  # pragma: no cover - non-POSIX hosts
        return -1.0


def _config(distributed: bool) -> CargoConfig:
    return CargoConfig(
        epsilon=2.0, seed=7, counting_backend=BACKEND, distributed=distributed
    )


def run_distributed_runtime(user_counts=USER_COUNTS, reps: int = TIMING_REPS):
    """One row per graph size: in-process vs distributed best-of-*reps*."""
    host_cpus = os.cpu_count() or 1
    rows = []
    for num_users in user_counts:
        graph = load_dataset("facebook", num_nodes=num_users)

        reference = Cargo(_config(False)).run(graph)
        in_process_best = float("inf")
        for _ in range(max(reps, 1)):
            started = time.perf_counter()
            Cargo(_config(False)).run(graph)
            in_process_best = min(in_process_best, time.perf_counter() - started)

        with DistributedRuntime(_config(True)) as runtime:
            warm = runtime.run(graph)  # warm-up: forks already standing, caches hot
            assert (
                warm.noisy_triangle_count == reference.noisy_triangle_count
            ), "distributed release diverged from the in-process engine"
            distributed_best = float("inf")
            for _ in range(max(reps, 1)):
                started = time.perf_counter()
                runtime.run(graph)
                distributed_best = min(
                    distributed_best, time.perf_counter() - started
                )

        # One extra instrumented run for the transport summary (frames,
        # payload/overhead bytes, per-process wall time and BLAS threads),
        # kept out of the timed repetitions.
        telemetry = Telemetry()
        config = CargoConfig(
            epsilon=2.0,
            seed=7,
            counting_backend=BACKEND,
            distributed=True,
            telemetry=telemetry,
        )
        with DistributedRuntime(config) as runtime:
            instrumented = runtime.run(graph)
        transport = instrumented.telemetry["transport"]

        speedup = in_process_best / distributed_best if distributed_best else 0.0
        rows.append(
            {
                "backend": BACKEND,
                "num_users": num_users,
                "server_processes": 2,
                "in_process_seconds": in_process_best,
                "distributed_seconds": distributed_best,
                "speedup": speedup,
                "host_cpus": host_cpus,
                "load_average": _load_average(),
                "gated": host_cpus >= MIN_GATED_CPUS,
                "speedup_target": SPEEDUP_TARGET,
                "transport": transport,
            }
        )
    return rows


def write_json(rows, path=None) -> Path:
    if path is None:
        path = os.environ.get(
            "REPRO_BENCH_DISTRIBUTED_OUTPUT",
            str(
                Path(__file__).resolve().parent
                / "results"
                / "distributed_runtime.json"
            ),
        )
    output = Path(path)
    atomic_write_json(output, {"benchmark": "distributed_runtime", "rows": rows})
    return output


def gate(rows) -> int:
    """Apply the speedup gate; returns a process exit code."""
    failures = 0
    for row in rows:
        label = (
            f"{row['backend']}/n={row['num_users']}: "
            f"in-process {row['in_process_seconds']*1e3:8.2f} ms, "
            f"distributed {row['distributed_seconds']*1e3:8.2f} ms "
            f"({row['speedup']:.2f}x, {row['host_cpus']} cpu(s), "
            f"load {row['load_average']:.2f}, "
            f"blas threads {row['transport'].get('blas_threads')})"
        )
        if not row["gated"]:
            print(f"  info {label} — single-CPU host, speedup gate not applied")
            continue
        if row["num_users"] != max(r["num_users"] for r in rows):
            print(f"  info {label}")
            continue
        if row["speedup"] >= SPEEDUP_TARGET:
            print(f"  ok   {label} >= {SPEEDUP_TARGET}x")
        else:
            print(f"  FAIL {label} < {SPEEDUP_TARGET}x")
            failures += 1
    return 1 if failures else 0


def test_distributed_runtime(benchmark):
    """Bit-identical releases; the speedup gate holds on multi-core hosts."""
    rows = benchmark.pedantic(run_distributed_runtime, rounds=1, iterations=1)
    output = write_json(rows)
    print(f"\n  wrote {output}")
    assert gate(rows) == 0


if __name__ == "__main__":
    output_rows = run_distributed_runtime()
    destination = write_json(output_rows)
    print(json.dumps(output_rows, indent=2))
    print(f"wrote {destination}")
    sys.exit(gate(output_rows))
