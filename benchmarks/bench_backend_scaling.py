"""Scaling micro-benchmark — every registered built-in counting backend.

Sweeps the user count ``n`` and records, per backend, the secure-count
runtime plus the dealer-side accounting that explains it:

* ``matrix`` vs ``blocked`` — the mask-once kernel at its default tile width
  and at ``BLOCK_SIZE``: one opening round at any tiling (the users upload
  ``E`` masked), and a largest dealer issue of one user's row of ``X`` or
  one group tile, ``O(n + block_size^2)``.
* ``batched`` (and, at small ``n``, ``faithful``) — the loop-free online
  phase of the per-triple protocol: vectorised candidate-triple blocks, one
  fused gather per opening round, and an offline phase that draws the
  groups of many blocks at once (``groups_issued`` counts those draws).
  These rows are the before/after evidence for the loop-free online phase
  optimisation and the input to the CI perf-smoke regression gate.

The rows are emitted as JSON (``benchmarks/results/backend_scaling.json`` by
default, override with ``REPRO_BENCH_OUTPUT``) so future changes can track
the runtime/memory trajectory across commits.  Set ``REPRO_BENCH_QUICK=1``
for the small CI smoke-test sweep.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Optional

from repro.core import Cargo, CargoConfig
from repro.core.backends import BlockedMatrixTriangleCounter, FaithfulTriangleCounter
from repro.core.backends.blocked import DEFAULT_BLOCK_SIZE, packed_length, tile_schedule
from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.multiplication_groups import MultiplicationGroupDealer
from repro.graph.datasets import load_dataset
from repro.graph.generators import sparse_random_graph
from repro.telemetry.profiling import measure_peak_bytes
from repro.utils.atomic import atomic_write_json

#: Default n sweep and tile width; the quick mode keeps CI under a minute.
DEFAULT_USER_COUNTS = (64, 128, 256, 384)
QUICK_USER_COUNTS = (64, 128)
BLOCK_SIZE = 32
BATCH_SIZE = 4096
#: The faithful (batch_size=1) schedule runs one opening round per candidate
#: triple; past this n the cubic round count stops being a useful data point.
FAITHFUL_MAX_USERS = 64
#: Timing repetitions per cell (minimum is reported, standard for
#: microbenchmarks on shared hardware where noise is one-sided).
TIMING_REPS = 3
#: Sparse tier: full degree-local k-star releases at graph sizes the dense
#: n x n pipeline cannot touch (n=10^5 dense rows would be 80 GB).
SPARSE_NODE_COUNTS = (10_000, 100_000)
QUICK_SPARSE_NODE_COUNTS = (10_000,)
SPARSE_EDGE_FACTOR = 3
SPARSE_STAR_K = 3


def _backend_builders(num_users: int, block_size: int, workers: int = 1):
    """Name -> (dealer, counter) builders applicable at this n.

    *workers* sets the blocked counters' worker count (``REPRO_BENCH_WORKERS``
    from the CLI; the per-triple counters run their blocks serially);
    outputs and opening schedules are bit-identical for any count, so the
    sweep stays comparable.
    """
    builders = {
        "matrix": lambda: _with_dealer(
            BeaverTripleDealer(seed=0),
            lambda dealer: BlockedMatrixTriangleCounter(dealer=dealer, workers=workers),
        ),
        "blocked": lambda: _with_dealer(
            BeaverTripleDealer(seed=0),
            lambda dealer: BlockedMatrixTriangleCounter(
                dealer=dealer, block_size=block_size, workers=workers
            ),
        ),
        "batched": lambda: _with_dealer(
            MultiplicationGroupDealer(seed=0),
            lambda dealer: FaithfulTriangleCounter(dealer=dealer, batch_size=BATCH_SIZE),
        ),
    }
    if num_users <= FAITHFUL_MAX_USERS:
        builders["faithful"] = lambda: _with_dealer(
            MultiplicationGroupDealer(seed=0),
            lambda dealer: FaithfulTriangleCounter(dealer=dealer, batch_size=1),
        )
    return builders


def _with_dealer(dealer, make_counter):
    if isinstance(make_counter, type):
        return dealer, make_counter(dealer=dealer)
    return dealer, make_counter(dealer)


def run_backend_scaling(
    user_counts=None,
    block_size: int = BLOCK_SIZE,
    reps: int = TIMING_REPS,
    workers: Optional[int] = None,
):
    """Return one row per (n, backend) with runtime and dealer stats."""
    if user_counts is None:
        quick = os.environ.get("REPRO_BENCH_QUICK", "").strip() not in ("", "0")
        user_counts = QUICK_USER_COUNTS if quick else DEFAULT_USER_COUNTS
    if workers is None:
        workers = int(os.environ.get("REPRO_BENCH_WORKERS", "1") or 1)
    rows = []
    for num_users in user_counts:
        graph = load_dataset("facebook", num_nodes=num_users)
        adjacency = graph.adjacency_matrix()
        counts = {}
        for name, build in _backend_builders(num_users, block_size, workers).items():
            best = None
            for _ in range(max(reps, 1)):
                dealer, counter = build()
                inputs = counter.upload(adjacency, rng=num_users).inputs
                start = time.perf_counter()
                result = counter.count_from_shares(*inputs)
                seconds = time.perf_counter() - start
                best = seconds if best is None else min(best, seconds)
            counts[name] = result.reconstruct()
            # Peak working memory of one secure count, measured in its own
            # pass (tracemalloc slows the timed reps) and excluding the
            # pre-built users' upload, so the number is the backend's own
            # footprint.
            _, counter = build()
            inputs = counter.upload(adjacency, rng=num_users).inputs
            peak_bytes = measure_peak_bytes(
                lambda counter=counter, inputs=inputs: counter.count_from_shares(*inputs)
            )
            row = {
                "backend": name,
                "num_users": num_users,
                "seconds": best,
                "peak_bytes": peak_bytes,
                "opening_rounds": result.opening_rounds,
                "count": counts[name],
            }
            if isinstance(dealer, BeaverTripleDealer):
                row["block_size"] = block_size if name == "blocked" else DEFAULT_BLOCK_SIZE
                row["largest_triple_elements"] = dealer.largest_triple_elements
                row["total_triple_elements"] = dealer.total_triple_elements
            else:
                row["batch_size"] = 1 if name == "faithful" else BATCH_SIZE
                row["groups_issued"] = dealer.groups_issued
            rows.append(row)
        assert len(set(counts.values())) == 1, counts
    return rows


def run_sparse_scaling(
    node_counts=None,
    edge_factor: int = SPARSE_EDGE_FACTOR,
    star_k: int = SPARSE_STAR_K,
    reps: int = 1,
):
    """Sparse tier: one full degree-local k-star release per graph size.

    Each row runs the complete CARGO pipeline (Max → Project → Count →
    Perturb) with ``sparse="force"`` on an Erdős–Rényi-style sparse graph of
    ``edge_factor · n`` edges — end to end through the secret-shared degree
    vector, never materialising any ``n x n`` view.  ``seconds`` is the
    fastest of *reps* untraced runs; ``peak_bytes`` is a separate
    tracemalloc pass covering graph construction plus the release, so the
    row is direct evidence that a 10^5-node release stays ``O(n)`` (dense
    rows would be 80 GB).
    """
    if node_counts is None:
        quick = os.environ.get("REPRO_BENCH_QUICK", "").strip() not in ("", "0")
        node_counts = QUICK_SPARSE_NODE_COUNTS if quick else SPARSE_NODE_COUNTS
    rows = []
    for num_nodes in node_counts:
        num_edges = edge_factor * num_nodes

        def release():
            graph = sparse_random_graph(num_nodes, num_edges, seed=num_nodes)
            config = CargoConfig(
                epsilon=2.0,
                statistic="kstars",
                star_k=star_k,
                sparse="force",
                seed=num_nodes,
            )
            return Cargo(config).run(graph)

        best = None
        for _ in range(max(reps, 1)):
            start = time.perf_counter()
            result = release()
            best = min(best or float("inf"), time.perf_counter() - start)
        peak_bytes = measure_peak_bytes(release)
        rows.append(
            {
                "tier": "sparse",
                "statistic": "kstars",
                "star_k": star_k,
                "num_nodes": num_nodes,
                "num_edges": num_edges,
                "seconds": best,
                "peak_bytes": peak_bytes,
                "noisy_count": result.noisy_triangle_count,
                "true_count": result.true_triangle_count,
            }
        )
    return rows


def write_json(rows, path=None) -> Path:
    """Persist the benchmark rows for cross-commit trajectory tracking."""
    if path is None:
        path = os.environ.get(
            "REPRO_BENCH_OUTPUT",
            str(Path(__file__).resolve().parent / "results" / "backend_scaling.json"),
        )
    output = Path(path)
    atomic_write_json(output, {"benchmark": "backend_scaling", "rows": rows})
    return output


def test_backend_scaling(benchmark):
    """Every backend agrees; blocked bounds the peak triple size."""
    rows = benchmark.pedantic(run_backend_scaling, rounds=1, iterations=1)
    output = write_json(rows)
    print(f"\n  wrote {output}")
    for row in rows:
        print(
            "  backend={backend:<8} n={num_users:<5} time={seconds:8.4f}s "
            "rounds={opening_rounds}".format(**row)
        )
    for row in rows:
        if row["backend"] in ("matrix", "blocked"):
            # One round at any tiling; the largest issue is one user's row
            # of X or one group tile of Y' or Z, O(n + block_size^2).
            n = row["num_users"]
            tiles = [
                packed_length(k0, k1, j1) - j0 * (k1 - k0)
                for j0, j1, k0, k1 in tile_schedule(n, row["block_size"])
            ]
            assert row["opening_rounds"] == 1
            assert row["largest_triple_elements"] == max([n - 1, *tiles])
    # The loop-free batched schedule opens C(n,3)/batch_size rounds, never
    # one round per triple.
    for row in rows:
        if row["backend"] == "batched":
            n = row["num_users"]
            total = n * (n - 1) * (n - 2) // 6
            assert row["opening_rounds"] == -(-total // BATCH_SIZE)


if __name__ == "__main__":
    output_rows = run_backend_scaling() + run_sparse_scaling()
    destination = write_json(output_rows)
    print(json.dumps(output_rows, indent=2))
    print(f"wrote {destination}")
