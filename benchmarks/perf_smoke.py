"""CI perf-smoke gate: quick benchmarks vs the committed baseline.

Runs the small-n backend-scaling sweep, the crypto-primitive timings (among
them ``ring_matmul_768``, one n=768 ``Ring.matmul`` of random ring elements,
which a fall-back to numpy's int64 loop slows ~7x), the n=256
blocked/matrix rows of the tile-parallel engine (serial plus a ``--workers
N`` parallel variant, default 2), and the n=10^4 sparse-tier k-star
release, writes the fresh rows to
``benchmarks/results/perf_smoke.json`` (the CI artifact), and compares each
timed row against ``BENCH_baseline.json`` at the repository root.  Two
conditions fail the gate, each with the ``TOLERANCE`` factor (3x):

* the **median** current/baseline ratio across all rows exceeds it — an
  across-the-board slowdown that no host difference explains, or
* any single row exceeds it **after dividing out the median ratio** — a
  localised algorithmic regression (e.g. a backend silently falling back to
  a per-element loop is 10-100x), measured machine-independently because the
  median calibrates away how much slower/faster the CI host is than the
  machine the baseline was committed from.

The factor is deliberately loose; the gate exists to catch algorithmic
regressions, not scheduler noise.

Every report and baseline records the host's CPU count and load average.
On a single-CPU host the multi-worker engine rows time contention rather
than the engine, so a blown bound there is reported as a warning instead
of failing the gate.

Every row also records its tracemalloc ``peak_bytes`` (measured by the
bench modules in a separate pass, never inside a timed repetition), gated
against ``memory_rows`` with the tighter ``MEMORY_TOLERANCE`` (2x) and no
host calibration — allocation sizes are machine-independent, so a blown
ceiling is an algorithmic change (e.g. a backend silently going dense), not
noise.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py               # gate (exit 1 on regression)
    PYTHONPATH=src python benchmarks/perf_smoke.py --workers 2   # explicit parallel-row workers
    PYTHONPATH=src python benchmarks/perf_smoke.py --rebase      # rewrite the baseline
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from bench_backend_scaling import (
    QUICK_SPARSE_NODE_COUNTS,
    QUICK_USER_COUNTS,
    run_backend_scaling,
    run_sparse_scaling,
)
from bench_crypto_primitives import run_crypto_primitives
from bench_parallel_engine import run_parallel_engine
from repro.utils.atomic import atomic_write_json

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_baseline.json"
OUTPUT_PATH = Path(__file__).resolve().parent / "results" / "perf_smoke.json"
TOLERANCE = 3.0
#: Peak-memory gate factor: allocation sizes do not vary with host speed, so
#: the bound is tighter than the timing gate and applied without calibration.
MEMORY_TOLERANCE = 2.0
#: n for the engine rows; serial (workers=1) plus one parallel variant.
ENGINE_USERS = 256
DEFAULT_ENGINE_WORKERS = 2
#: Disabled-telemetry overhead gate: an explicitly disabled Telemetry
#: session must cost at most this factor over no session at all (or at most
#: the absolute slack, whichever is looser — tiny runs are timer-noise
#: bound).  Interleaved in-process A/B with min-of-reps, so the check is
#: machine-independent and needs no committed baseline.
TELEMETRY_OVERHEAD_LIMIT = 1.02
TELEMETRY_OVERHEAD_ABS_SECONDS = 0.002
TELEMETRY_USERS = 128
TELEMETRY_REPS = 7
#: Disabled-resilience overhead gate, same A/B discipline: carrying the
#: all-off ResilienceConfig (every fault_point and retry hook on its fast
#: path) must cost at most this factor over the default ``resilience=None``.
RESILIENCE_OVERHEAD_LIMIT = 1.02
RESILIENCE_OVERHEAD_ABS_SECONDS = 0.002
#: Disabled-authentication overhead gate, same A/B discipline: carrying an
#: inert ``OpeningAuthenticator.disabled()`` (every opening routed through
#: ``exchange`` hitting its plain-reconstruction fast path) must cost at
#: most this factor over the default ``authenticator=None``.
AUTH_OVERHEAD_LIMIT = 1.02
AUTH_OVERHEAD_ABS_SECONDS = 0.002


def host_block() -> dict:
    """CPU count and load average, recorded in every report and baseline.

    Parallel rows (``workers > 1``) only mean something on a host that can
    actually run the workers concurrently; recording the context lets a
    reader — and the gate itself — interpret them correctly.
    """
    try:
        load_average = os.getloadavg()[0]
    except (AttributeError, OSError):  # pragma: no cover - non-POSIX hosts
        load_average = -1.0
    return {"host_cpus": os.cpu_count() or 1, "load_average": load_average}


def _is_parallel_row(key: str) -> bool:
    """Whether *key* times a multi-worker run (meaningless on one CPU)."""
    _, _, workers = key.rpartition("/workers=")
    return workers.isdigit() and int(workers) > 1


def check_telemetry_overhead(failures: list) -> dict:
    """A/B the matrix-backend release with and without a disabled session.

    Both arms run the identical protocol (``telemetry=None`` resolves to the
    same no-op bundle as ``Telemetry.disabled()``); the gate pins the cost of
    carrying the instrumentation — every span call hitting the disabled
    fast path — to under ``TELEMETRY_OVERHEAD_LIMIT``.  Arms are interleaved
    and summarised by their minimum, which discards scheduler noise.
    """
    from repro.core import Cargo, CargoConfig
    from repro.graph.datasets import load_dataset
    from repro.telemetry import Telemetry

    graph = load_dataset("facebook", num_nodes=TELEMETRY_USERS)

    def one_run(telemetry) -> float:
        config = CargoConfig(
            epsilon=2.0, seed=11, counting_backend="matrix", telemetry=telemetry
        )
        started = time.perf_counter()
        Cargo(config).run(graph)
        return time.perf_counter() - started

    one_run(None)  # warm-up: imports, dataset and ground-truth caches
    without_session = []
    with_disabled = []
    for _ in range(TELEMETRY_REPS):
        without_session.append(one_run(None))
        with_disabled.append(one_run(Telemetry.disabled()))
    best_without = min(without_session)
    best_disabled = min(with_disabled)
    ratio = best_disabled / best_without if best_without > 0 else float("inf")
    delta = best_disabled - best_without
    passed = ratio <= TELEMETRY_OVERHEAD_LIMIT or delta <= TELEMETRY_OVERHEAD_ABS_SECONDS
    status = "ok" if passed else "FAIL"
    print(
        f"  {status:4s} telemetry_overhead/matrix/n={TELEMETRY_USERS}: "
        f"{best_disabled*1e3:.2f} ms disabled-session vs {best_without*1e3:.2f} ms bare "
        f"({ratio:.3f}x, limit {TELEMETRY_OVERHEAD_LIMIT}x or "
        f"{TELEMETRY_OVERHEAD_ABS_SECONDS*1e3:.0f} ms abs)"
    )
    if not passed:
        failures.append("telemetry_overhead")
    return {
        "name": "telemetry_overhead",
        "backend": "matrix",
        "num_users": TELEMETRY_USERS,
        "reps": TELEMETRY_REPS,
        "seconds_without_session": best_without,
        "seconds_disabled_session": best_disabled,
        "ratio": ratio,
        "limit": TELEMETRY_OVERHEAD_LIMIT,
        "abs_slack_seconds": TELEMETRY_OVERHEAD_ABS_SECONDS,
    }


def check_resilience_overhead(failures: list) -> dict:
    """A/B the blocked-backend release with and without a no-op resilience.

    The blocked backend crosses the densest set of fault sites per release
    (``dealer.provision`` per tile group, ``pool.task`` per task), so it
    upper-bounds what the disabled machinery — ``fault_point`` reading one
    module global, ``resolve_resilience`` returning the shared no-op —
    costs a run that never opted in.
    """
    from repro.core import Cargo, CargoConfig
    from repro.graph.datasets import load_dataset
    from repro.resilience import NULL_RESILIENCE

    graph = load_dataset("facebook", num_nodes=TELEMETRY_USERS)

    def one_run(resilience) -> float:
        config = CargoConfig(
            epsilon=2.0,
            seed=11,
            counting_backend="blocked",
            block_size=32,
            resilience=resilience,
        )
        started = time.perf_counter()
        Cargo(config).run(graph)
        return time.perf_counter() - started

    one_run(None)  # warm-up: imports, dataset and ground-truth caches
    without_config = []
    with_null = []
    for _ in range(TELEMETRY_REPS):
        without_config.append(one_run(None))
        with_null.append(one_run(NULL_RESILIENCE))
    best_without = min(without_config)
    best_null = min(with_null)
    ratio = best_null / best_without if best_without > 0 else float("inf")
    delta = best_null - best_without
    passed = (
        ratio <= RESILIENCE_OVERHEAD_LIMIT
        or delta <= RESILIENCE_OVERHEAD_ABS_SECONDS
    )
    status = "ok" if passed else "FAIL"
    print(
        f"  {status:4s} resilience_overhead/blocked/n={TELEMETRY_USERS}: "
        f"{best_null*1e3:.2f} ms all-off config vs {best_without*1e3:.2f} ms bare "
        f"({ratio:.3f}x, limit {RESILIENCE_OVERHEAD_LIMIT}x or "
        f"{RESILIENCE_OVERHEAD_ABS_SECONDS*1e3:.0f} ms abs)"
    )
    if not passed:
        failures.append("resilience_overhead")
    return {
        "name": "resilience_overhead",
        "backend": "blocked",
        "num_users": TELEMETRY_USERS,
        "reps": TELEMETRY_REPS,
        "seconds_without_config": best_without,
        "seconds_null_config": best_null,
        "ratio": ratio,
        "limit": RESILIENCE_OVERHEAD_LIMIT,
        "abs_slack_seconds": RESILIENCE_OVERHEAD_ABS_SECONDS,
    }


def check_authentication_overhead(failures: list) -> dict:
    """A/B the matrix-backend release with and without an inert authenticator.

    ``authenticate=False`` must stay free: the only cost an unauthenticated
    run may pay for the MAC layer's existence is the ``authenticator=None``
    argument plumbing plus — in this deliberately pessimistic arm — a
    disabled authenticator whose ``exchange`` falls straight through to
    plain reconstruction.  Same interleaved min-of-reps discipline as the
    telemetry and resilience gates.
    """
    from repro.core import Cargo, CargoConfig
    from repro.crypto.mac import OpeningAuthenticator
    from repro.graph.datasets import load_dataset

    graph = load_dataset("facebook", num_nodes=TELEMETRY_USERS)

    def one_run(authenticator) -> float:
        config = CargoConfig(
            epsilon=2.0,
            seed=11,
            counting_backend="matrix",
            authenticator=authenticator,
        )
        started = time.perf_counter()
        Cargo(config).run(graph)
        return time.perf_counter() - started

    one_run(None)  # warm-up: imports, dataset and ground-truth caches
    without_auth = []
    with_disabled = []
    for _ in range(TELEMETRY_REPS):
        without_auth.append(one_run(None))
        with_disabled.append(one_run(OpeningAuthenticator.disabled()))
    best_without = min(without_auth)
    best_disabled = min(with_disabled)
    ratio = best_disabled / best_without if best_without > 0 else float("inf")
    delta = best_disabled - best_without
    passed = ratio <= AUTH_OVERHEAD_LIMIT or delta <= AUTH_OVERHEAD_ABS_SECONDS
    status = "ok" if passed else "FAIL"
    print(
        f"  {status:4s} auth_overhead/matrix/n={TELEMETRY_USERS}: "
        f"{best_disabled*1e3:.2f} ms disabled-auth vs {best_without*1e3:.2f} ms bare "
        f"({ratio:.3f}x, limit {AUTH_OVERHEAD_LIMIT}x or "
        f"{AUTH_OVERHEAD_ABS_SECONDS*1e3:.0f} ms abs)"
    )
    if not passed:
        failures.append("auth_overhead")
    return {
        "name": "auth_overhead",
        "backend": "matrix",
        "num_users": TELEMETRY_USERS,
        "reps": TELEMETRY_REPS,
        "seconds_without_auth": best_without,
        "seconds_disabled_auth": best_disabled,
        "ratio": ratio,
        "limit": AUTH_OVERHEAD_LIMIT,
        "abs_slack_seconds": AUTH_OVERHEAD_ABS_SECONDS,
    }


def _key(row: dict) -> str:
    if row.get("tier") == "sparse":
        return f"sparse_scaling/{row['statistic']}/n={row['num_nodes']}"
    if "workers" in row:
        return (
            f"parallel_engine/{row['backend']}/n={row['num_users']}"
            f"/workers={row['workers']}"
        )
    if "backend" in row:
        return f"backend_scaling/{row['backend']}/n={row['num_users']}"
    return f"crypto_primitives/{row['name']}"


def collect_rows(engine_workers: int = DEFAULT_ENGINE_WORKERS) -> dict:
    """Run the quick benchmarks and index the timed rows by comparison key.

    The gated engine rows always cover workers ∈ {1, DEFAULT}, matching the
    committed baseline keys; a different *engine_workers* adds an extra
    exploratory row (ignored by the gate, which only iterates baseline keys).
    """
    rows = {}
    for row in run_backend_scaling(user_counts=QUICK_USER_COUNTS):
        rows[_key(row)] = row
    for row in run_crypto_primitives():
        rows[_key(row)] = row
    worker_counts = tuple(sorted({1, DEFAULT_ENGINE_WORKERS, engine_workers}))
    for row in run_parallel_engine(
        user_counts=(ENGINE_USERS,), worker_counts=worker_counts
    ):
        if "workers" in row:  # the offline cold/warm row is not a gated timing
            rows[_key(row)] = row
    for row in run_sparse_scaling(node_counts=QUICK_SPARSE_NODE_COUNTS):
        rows[_key(row)] = row
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--rebase", action="store_true", help="rewrite BENCH_baseline.json from this run"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=DEFAULT_ENGINE_WORKERS,
        help="worker count for the parallel engine rows (workers=1 and the "
        f"default {DEFAULT_ENGINE_WORKERS} are always measured for the gate)",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    rows = collect_rows(args.workers)
    overhead_failures: list = []
    overhead_rows = [
        check_telemetry_overhead(overhead_failures),
        check_resilience_overhead(overhead_failures),
        check_authentication_overhead(overhead_failures),
    ]
    host = host_block()
    atomic_write_json(
        OUTPUT_PATH,
        {
            "benchmark": "perf_smoke",
            "host": host,
            "rows": list(rows.values()) + overhead_rows,
        },
    )
    print(f"wrote {OUTPUT_PATH}")

    if args.rebase:
        baseline = {
            "note": (
                "Committed perf baseline for the CI perf-smoke gate "
                "(benchmarks/perf_smoke.py).  Regenerate with --rebase on a "
                "quiet machine when the expected performance changes."
            ),
            "machine": platform.platform(),
            "python": platform.python_version(),
            "host_cpus": host["host_cpus"],
            "load_average": host["load_average"],
            "tolerance": TOLERANCE,
            "memory_tolerance": MEMORY_TOLERANCE,
            "rows": {key: row["seconds"] for key, row in rows.items()},
            "memory_rows": {
                key: row["peak_bytes"]
                for key, row in rows.items()
                if "peak_bytes" in row
            },
        }
        if BASELINE_PATH.exists():
            previous = json.loads(BASELINE_PATH.read_text())
            if "reference" in previous:
                baseline["reference"] = previous["reference"]
        atomic_write_json(BASELINE_PATH, baseline)
        print(f"rebased {BASELINE_PATH}")
        return 0

    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run with --rebase to create one")
        return 1
    baseline = json.loads(BASELINE_PATH.read_text())
    tolerance = float(baseline.get("tolerance", TOLERANCE))
    regressions = list(overhead_failures)
    ratios = {}
    for key, expected in baseline["rows"].items():
        row = rows.get(key)
        if row is None:
            print(f"  MISSING {key} (baseline has it, current run does not)")
            regressions.append(key)
            continue
        ratios[key] = row["seconds"] / expected if expected > 0 else float("inf")
    if not ratios:
        print("perf-smoke FAILED: no comparable rows")
        return 1
    # The median ratio estimates how much slower/faster this host is than
    # the baseline machine; dividing it out makes the per-row check
    # machine-independent.  The median itself is still capped so a uniform
    # algorithmic slowdown cannot hide behind the calibration.
    ordered = sorted(ratios.values())
    median_ratio = ordered[len(ordered) // 2]
    print(f"  host calibration: median current/baseline ratio {median_ratio:.2f}x")
    if median_ratio > tolerance:
        print(f"  FAIL across-the-board slowdown: median {median_ratio:.2f}x > {tolerance}x")
        regressions.append("median")
    for key, ratio in ratios.items():
        normalised = ratio / median_ratio if median_ratio > 0 else float("inf")
        over = normalised > tolerance
        # Multi-worker rows on a single-CPU host time contention, not the
        # engine: the workers cannot run concurrently, so a blown bound is a
        # property of the runner, not the code.  Warn instead of failing.
        soft = over and _is_parallel_row(key) and host["host_cpus"] == 1
        status = "warn" if soft else ("FAIL" if over else "ok")
        print(
            f"  {status:4s} {key}: {rows[key]['seconds']*1e3:8.2f} ms vs baseline "
            f"{baseline['rows'][key]*1e3:8.2f} ms ({ratio:.2f}x raw, {normalised:.2f}x calibrated)"
            + (" — parallel row on a 1-CPU host, not gated" if soft else "")
        )
        if over and not soft:
            regressions.append(key)
    # Peak-memory gate: absolute ratios, no host calibration (allocation
    # sizes are machine-independent; a blown ceiling means an algorithmic
    # change, e.g. a sparse path silently going dense).
    memory_tolerance = float(baseline.get("memory_tolerance", MEMORY_TOLERANCE))
    memory_rows = baseline.get("memory_rows", {})
    if not memory_rows:
        print("  (no memory_rows in baseline; run --rebase to add peak-memory gating)")
    for key, expected in memory_rows.items():
        row = rows.get(key)
        if row is None or "peak_bytes" not in row:
            print(f"  MISSING mem/{key} (baseline has it, current run does not)")
            regressions.append(f"mem/{key}")
            continue
        ratio = row["peak_bytes"] / expected if expected > 0 else float("inf")
        status = "FAIL" if ratio > memory_tolerance else "ok"
        print(
            f"  {status:4s} mem/{key}: {row['peak_bytes']/1e6:8.2f} MB vs baseline "
            f"{expected/1e6:8.2f} MB ({ratio:.2f}x)"
        )
        if ratio > memory_tolerance:
            regressions.append(f"mem/{key}")
    if regressions:
        print(f"perf-smoke FAILED: {len(regressions)} check(s) regressed")
        return 1
    print("perf-smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
