"""CI scale-smoke gate: bounded-memory behaviour at out-of-core sizes.

Two checks, both asserting *absolute peak-memory ceilings* (tracemalloc):

1. **Sparse release** — a full secure k-star release on a ~50k-node sparse
   graph through the degree-local path.  The dense pipeline would allocate
   an ``n x n`` int64 view (20 GB at this n); the gate asserts the whole
   release — graph construction included — peaks under
   ``SPARSE_PEAK_CEILING_MB``.

2. **Windowed blocked backend** — a blocked triangle count at n=2048 with a
   small tile window and an mmap-backed triple store.  The gate asserts the
   cold run peaks under ``WINDOW_PEAK_CEILING_MB``, that the peak is set by
   the window rather than the graph (the cold n=2048 peak is at most
   ``WINDOW_GROWTH_LIMIT``x the cold n=1024 peak of the same store-filling
   pipeline while the dealt material grows ~8x), and that a warm rerun —
   loading one chunk of offline material at a time from disk — peaks under
   ``WARM_PEAK_CEILING_MB``.  Both growth arms fill a store because only a
   store makes the backend deal a chunk up front; without one it deals each
   tile just before its product.

Peak-memory ceilings are machine-independent (allocation sizes do not vary
with host speed), so unlike the perf-smoke timing gate there is no
calibration: a blown ceiling means an algorithmic change, e.g. a sparse
path silently going dense or the window ceasing to bound the pipeline.

Usage::

    PYTHONPATH=src python benchmarks/scale_smoke.py    # exit 1 on violation
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from repro.core import Cargo, CargoConfig
from repro.core.backends import BlockedMatrixTriangleCounter, share_adjacency_rows
from repro.crypto.beaver import BeaverTripleDealer
from repro.graph.generators import sparse_random_graph
from repro.graph.triangles import count_triangles
from repro.parallel import TripleStore
from repro.telemetry import traced_call
from repro.utils.atomic import atomic_write_json

OUTPUT_PATH = Path(__file__).resolve().parent / "results" / "scale_smoke.json"

#: Sparse-release check: ~50k nodes, 3 edges per node, k=3 stars.
SPARSE_NODES = 50_000
SPARSE_EDGE_FACTOR = 3
SPARSE_STAR_K = 3
#: Measured ~57 MB on a 2-vCPU host (graph construction, degree vectors and
#: the O(n) share/noise columns; per-user substreams are derived loop-free and
#: build no per-user objects); the dense rows this path replaces would be 20 GB.
SPARSE_PEAK_CEILING_MB = 96.0

#: Windowed-blocked check: n=2048 and n=1024 at the same window geometry.
WINDOW_USERS = 2048
WINDOW_REFERENCE_USERS = 1024
TILE_WINDOW = 4
BLOCK_SIZE = 128
#: Measured ~54 MB cold / ~4 MB warm at n=2048 (window=4, block=128); the
#: unwindowed store path holds every group's material at once (~750 MB).
WINDOW_PEAK_CEILING_MB = 128.0
WARM_PEAK_CEILING_MB = 32.0
#: Peak is O(window * block * n): doubling n may at most double the peak
#: (plus slack), while total dealt material grows ~8x.
WINDOW_GROWTH_LIMIT = 3.0


#: (result, seconds, peak_bytes) of one tracemalloc-instrumented call —
#: the telemetry layer's single measurement path for all benchmark gates.
_traced = traced_call


def check_sparse_release(failures: list) -> dict:
    """Full degree-local k-star release at SPARSE_NODES under tracemalloc."""

    def release():
        graph = sparse_random_graph(
            SPARSE_NODES, SPARSE_EDGE_FACTOR * SPARSE_NODES, seed=1
        )
        config = CargoConfig(
            epsilon=2.0,
            statistic="kstars",
            star_k=SPARSE_STAR_K,
            sparse="force",
            seed=1,
        )
        return Cargo(config).run(graph)

    result, seconds, peak = _traced(release)
    ceiling = SPARSE_PEAK_CEILING_MB * 1e6
    status = "ok" if peak <= ceiling else "FAIL"
    print(
        f"  {status:4s} sparse kstar release n={SPARSE_NODES}: "
        f"peak {peak/1e6:.1f} MB (ceiling {SPARSE_PEAK_CEILING_MB:.0f} MB), "
        f"{seconds:.1f}s traced, noisy={result.noisy_triangle_count:.1f}"
    )
    if peak > ceiling:
        failures.append("sparse_release_peak")
    return {
        "check": "sparse_release",
        "num_nodes": SPARSE_NODES,
        "num_edges": SPARSE_EDGE_FACTOR * SPARSE_NODES,
        "seconds_traced": seconds,
        "peak_bytes": peak,
        "peak_ceiling_bytes": int(ceiling),
        "noisy_count": result.noisy_triangle_count,
        "true_count": result.true_triangle_count,
    }


def _windowed_count(num_users: int, store) -> tuple:
    graph = sparse_random_graph(num_users, 4 * num_users, seed=3)
    expected = count_triangles(graph)
    share1, share2 = share_adjacency_rows(graph.adjacency_matrix(), rng=num_users)

    def count():
        counter = BlockedMatrixTriangleCounter(
            dealer=BeaverTripleDealer(seed=0),
            block_size=BLOCK_SIZE,
            tile_window=TILE_WINDOW,
            triple_store=store,
        )
        return counter.count_from_shares(share1, share2)

    # Shares (the statistic's inherent O(n^2) input) are built before tracing
    # starts, so the peak isolates the windowed pipeline's own working set.
    result, seconds, peak = _traced(count)
    assert result.reconstruct() == expected, (result.reconstruct(), expected)
    return seconds, peak


def check_windowed_blocked(failures: list) -> dict:
    """Windowed blocked counts at two sizes plus a warm mmap-store rerun."""
    with tempfile.TemporaryDirectory() as tmp:
        _, reference_peak = _windowed_count(
            WINDOW_REFERENCE_USERS,
            TripleStore(cache_dir=f"{tmp}/reference", mmap=True),
        )
        store = TripleStore(cache_dir=f"{tmp}/chunks", mmap=True)
        cold_seconds, cold_peak = _windowed_count(WINDOW_USERS, store)
        warm_store = TripleStore(cache_dir=f"{tmp}/chunks", mmap=True)
        warm_seconds, warm_peak = _windowed_count(WINDOW_USERS, warm_store)
        assert warm_store.hits > 0, warm_store.stats()

    ceiling = WINDOW_PEAK_CEILING_MB * 1e6
    warm_ceiling = WARM_PEAK_CEILING_MB * 1e6
    growth = cold_peak / max(reference_peak, 1)
    checks = [
        ("windowed_cold_peak", cold_peak <= ceiling,
         f"cold n={WINDOW_USERS} peak {cold_peak/1e6:.1f} MB "
         f"(ceiling {WINDOW_PEAK_CEILING_MB:.0f} MB)"),
        ("windowed_growth", growth <= WINDOW_GROWTH_LIMIT,
         f"peak growth n={WINDOW_REFERENCE_USERS}->{WINDOW_USERS}: {growth:.2f}x "
         f"(limit {WINDOW_GROWTH_LIMIT}x; dealt material grows ~8x)"),
        ("windowed_warm_peak", warm_peak <= warm_ceiling,
         f"warm n={WINDOW_USERS} peak {warm_peak/1e6:.1f} MB "
         f"(ceiling {WARM_PEAK_CEILING_MB:.0f} MB)"),
    ]
    for name, passed, message in checks:
        print(f"  {'ok' if passed else 'FAIL':4s} {message}")
        if not passed:
            failures.append(name)
    return {
        "check": "windowed_blocked",
        "num_users": WINDOW_USERS,
        "tile_window": TILE_WINDOW,
        "block_size": BLOCK_SIZE,
        "reference_num_users": WINDOW_REFERENCE_USERS,
        "reference_peak_bytes": reference_peak,
        "cold_seconds_traced": cold_seconds,
        "cold_peak_bytes": cold_peak,
        "warm_seconds_traced": warm_seconds,
        "warm_peak_bytes": warm_peak,
        "peak_growth": growth,
        "peak_ceiling_bytes": int(ceiling),
        "warm_peak_ceiling_bytes": int(warm_ceiling),
    }


def main() -> int:
    failures: list = []
    rows = [check_sparse_release(failures), check_windowed_blocked(failures)]
    atomic_write_json(OUTPUT_PATH, {"benchmark": "scale_smoke", "rows": rows})
    print(f"wrote {OUTPUT_PATH}")
    if failures:
        print(f"scale-smoke FAILED: {', '.join(failures)}")
        return 1
    print("scale-smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
