"""Tile-parallel engine micro-benchmark: worker scaling.

Measures the wall-clock and peak memory of the blocked/matrix secure count
at several worker counts (the engine's transcripts are bit-identical across
worker counts, so any delta is pure scheduling).  On a single-core host the
speedup is bounded by 1.0 by construction; each row records the host's CPU
count so the number can be read in context.

Rows are emitted as JSON (``benchmarks/results/parallel_engine.json`` by
default, override with ``REPRO_BENCH_PARALLEL_OUTPUT``).  Set
``REPRO_BENCH_QUICK=1`` for the small CI smoke sweep.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.backends import BlockedMatrixTriangleCounter
from repro.core.backends.blocked import DEFAULT_BLOCK_SIZE
from repro.crypto.beaver import BeaverTripleDealer
from repro.graph.datasets import load_dataset
from repro.telemetry.profiling import measure_peak_bytes
from repro.utils.atomic import atomic_write_json

DEFAULT_USER_COUNTS = (256,)
QUICK_USER_COUNTS = (96,)
WORKER_COUNTS = (1, 2, 4)
BLOCK_SIZE = 64
TIMING_REPS = 3


def _build(backend: str, workers: int, block_size: int):
    # ``matrix`` is the blocked kernel at its default tile width.
    return BlockedMatrixTriangleCounter(
        dealer=BeaverTripleDealer(seed=0),
        block_size=block_size if backend == "blocked" else DEFAULT_BLOCK_SIZE,
        workers=workers,
    )


def run_parallel_engine(
    user_counts=None,
    worker_counts=WORKER_COUNTS,
    block_size: int = BLOCK_SIZE,
    reps: int = TIMING_REPS,
):
    """One row per (backend, n, workers)."""
    if user_counts is None:
        quick = os.environ.get("REPRO_BENCH_QUICK", "").strip() not in ("", "0")
        user_counts = QUICK_USER_COUNTS if quick else DEFAULT_USER_COUNTS
    rows = []
    for num_users in user_counts:
        graph = load_dataset("facebook", num_nodes=num_users)
        adjacency = graph.adjacency_matrix()
        counts = {}
        for backend in ("blocked", "matrix"):
            for workers in worker_counts:
                best = None
                for _ in range(max(reps, 1)):
                    counter = _build(backend, workers, block_size)
                    inputs = counter.upload(adjacency, rng=num_users).inputs
                    start = time.perf_counter()
                    result = counter.count_from_shares(*inputs)
                    best = min(best or float("inf"), time.perf_counter() - start)
                counts[(backend, workers)] = result.reconstruct()
                counter = _build(backend, workers, block_size)
                inputs = counter.upload(adjacency, rng=num_users).inputs
                peak_bytes = measure_peak_bytes(
                    lambda counter=counter, inputs=inputs: counter.count_from_shares(*inputs)
                )
                rows.append(
                    {
                        "backend": backend,
                        "num_users": num_users,
                        "workers": workers,
                        "block_size": block_size if backend == "blocked" else num_users,
                        "seconds": best,
                        "peak_bytes": peak_bytes,
                        "count": counts[(backend, workers)],
                        "host_cpus": os.cpu_count(),
                    }
                )
        assert len(set(counts.values())) == 1, counts
    return rows


def write_json(rows, path=None) -> Path:
    """Persist the benchmark rows for cross-commit trajectory tracking."""
    if path is None:
        path = os.environ.get(
            "REPRO_BENCH_PARALLEL_OUTPUT",
            str(Path(__file__).resolve().parent / "results" / "parallel_engine.json"),
        )
    output = Path(path)
    atomic_write_json(output, {"benchmark": "parallel_engine", "rows": rows})
    return output


def test_parallel_engine(benchmark):
    """All worker counts agree on the count."""
    rows = benchmark.pedantic(run_parallel_engine, rounds=1, iterations=1)
    output = write_json(rows)
    print(f"\n  wrote {output}")
    for row in rows:
        print(
            "  backend={backend:<8} n={num_users:<5} workers={workers} "
            "time={seconds:8.4f}s".format(**row)
        )
    assert len({row["count"] for row in rows}) == 1


if __name__ == "__main__":
    output_rows = run_parallel_engine()
    destination = write_json(output_rows)
    print(json.dumps(output_rows, indent=2))
    print(f"wrote {destination}")
