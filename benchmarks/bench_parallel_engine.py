"""Tile-parallel engine + triple-store micro-benchmark.

Measures the two quantities the parallel execution engine exists for:

* **worker scaling** — wall-clock of the blocked/matrix secure count at
  several worker counts (the engine's transcripts are bit-identical across
  worker counts, so any delta is pure scheduling).  On a single-core host
  the speedup is bounded by 1.0 by construction; the row records the host's
  CPU count so the number can be read in context.
* **offline reuse** — a cold vs a warm-store blocked ``count_from_shares``
  (dealing every tile triple into a
  :class:`~repro.parallel.store.TripleStore` vs fetching it back): the
  whole count's wall-clock, the traced ``offline`` span of each, and the
  fraction of offline time a warm rerun skips.

Rows are emitted as JSON (``benchmarks/results/parallel_engine.json`` by
default, override with ``REPRO_BENCH_PARALLEL_OUTPUT``).  Set
``REPRO_BENCH_QUICK=1`` for the small CI smoke sweep.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.backends import (
    BlockedMatrixTriangleCounter,
    MatrixTriangleCounter,
    share_adjacency_rows,
)
from repro.crypto.beaver import BeaverTripleDealer
from repro.graph.datasets import load_dataset
from repro.parallel import TripleStore
from repro.telemetry import Telemetry
from repro.telemetry.profiling import measure_peak_bytes
from repro.utils.atomic import atomic_write_json

DEFAULT_USER_COUNTS = (256,)
QUICK_USER_COUNTS = (96,)
WORKER_COUNTS = (1, 2, 4)
BLOCK_SIZE = 64
TIMING_REPS = 3


def _build(backend: str, workers: int, block_size: int, store=None):
    dealer = BeaverTripleDealer(seed=0)
    if backend == "blocked":
        return BlockedMatrixTriangleCounter(
            dealer=dealer, block_size=block_size, workers=workers, triple_store=store
        )
    return MatrixTriangleCounter(dealer=dealer, workers=workers, triple_store=store)


def _stored_count(store, block_size: int, share1, share2):
    """``(count seconds, offline-span seconds)`` of one blocked count on *store*."""
    telemetry = Telemetry()
    counter = BlockedMatrixTriangleCounter(
        dealer=BeaverTripleDealer(seed=0),
        block_size=block_size,
        triple_store=store,
        telemetry=telemetry,
    )
    start = time.perf_counter()
    counter.count_from_shares(share1, share2)
    return time.perf_counter() - start, telemetry.tracer.timings()["offline"]


def run_parallel_engine(
    user_counts=None,
    worker_counts=WORKER_COUNTS,
    block_size: int = BLOCK_SIZE,
    reps: int = TIMING_REPS,
):
    """One row per (backend, n, workers), plus offline cold/warm rows per n."""
    if user_counts is None:
        quick = os.environ.get("REPRO_BENCH_QUICK", "").strip() not in ("", "0")
        user_counts = QUICK_USER_COUNTS if quick else DEFAULT_USER_COUNTS
    rows = []
    for num_users in user_counts:
        graph = load_dataset("facebook", num_nodes=num_users)
        share1, share2 = share_adjacency_rows(graph.adjacency_matrix(), rng=num_users)
        counts = {}
        for backend in ("blocked", "matrix"):
            for workers in worker_counts:
                best = None
                for _ in range(max(reps, 1)):
                    counter = _build(backend, workers, block_size)
                    start = time.perf_counter()
                    result = counter.count_from_shares(share1, share2)
                    best = min(best or float("inf"), time.perf_counter() - start)
                counts[(backend, workers)] = result.reconstruct()
                peak_bytes = measure_peak_bytes(
                    lambda backend=backend, workers=workers: _build(
                        backend, workers, block_size
                    ).count_from_shares(share1, share2)
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

        # Offline reuse: a cold count deals into the store, warm ones fetch.
        store = TripleStore()
        cold_seconds, cold_offline = _stored_count(store, block_size, share1, share2)
        warm_seconds, warm_offline = min(
            _stored_count(store, block_size, share1, share2)
            for _ in range(max(reps, 1))
        )
        assert store.hits >= 1, store.stats()
        rows.append(
            {
                "backend": "blocked",
                "num_users": num_users,
                "block_size": block_size,
                "count_cold_seconds": cold_seconds,
                "count_warm_seconds": warm_seconds,
                "offline_cold_seconds": cold_offline,
                "offline_warm_seconds": warm_offline,
                "offline_skip_fraction": 1.0 - warm_offline / max(cold_offline, 1e-12),
                "store": store.stats(),
            }
        )
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
    """All worker counts agree; a warm store skips ≥90% of offline dealing."""
    rows = benchmark.pedantic(run_parallel_engine, rounds=1, iterations=1)
    output = write_json(rows)
    print(f"\n  wrote {output}")
    for row in rows:
        if "workers" in row:
            print(
                "  backend={backend:<8} n={num_users:<5} workers={workers} "
                "time={seconds:8.4f}s".format(**row)
            )
        else:
            print(
                "  offline  n={num_users:<5} cold={offline_cold_seconds:8.4f}s "
                "warm={offline_warm_seconds:8.4f}s "
                "skip={offline_skip_fraction:6.1%}".format(**row)
            )
    counts = {row["count"] for row in rows if "count" in row}
    assert len(counts) == 1
    for row in rows:
        if "offline_skip_fraction" in row:
            assert row["offline_skip_fraction"] >= 0.90, row


if __name__ == "__main__":
    output_rows = run_parallel_engine()
    destination = write_json(output_rows)
    print(json.dumps(output_rows, indent=2))
    print(f"wrote {destination}")
