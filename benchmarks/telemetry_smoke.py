"""CI telemetry-smoke gate: traced releases across every backend × statistic.

For each counting backend (at a size where its strategy is exercised — the
per-triple ``faithful`` path stays tiny, the matrix/blocked paths get
several tiles) and each registered statistic, the gate runs one release
twice: once untraced and once under a fresh :class:`~repro.telemetry.
Telemetry` session.  Three properties must hold per cell:

1. **Transcript bit-identity** — noisy/true/projected counts, the
   communication ledger (per channel and per phase), and both servers'
   recorded views are byte-for-byte identical with telemetry on or off.
   Observability must never perturb the protocol.
2. **Manifest validity** — the traced run's exported JSON manifest passes
   :func:`~repro.telemetry.validate_manifest` (schema version, release
   record shape, span-tree shape).
3. **Exact ledger reconciliation** — the manifest's per-phase byte and
   message totals equal the ``comm_bytes`` / ``comm_messages`` metric
   counters exactly, both directions
   (:func:`~repro.telemetry.verify_ledger_reconciliation`).
4. **Ring width** — the release record and the result carry ``ring_bits``:
   the width :func:`~repro.core.cargo.release_ring` derives from the
   release's public values, and 64 on a MAC-checked release of the same
   cell.

Artifacts (one manifest per backend plus a combined Prometheus dump and a
summary JSON) land under ``benchmarks/results/telemetry/`` and are uploaded
by the ``telemetry-smoke`` CI job.

Usage::

    PYTHONPATH=src python benchmarks/telemetry_smoke.py    # exit 1 on violation
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from repro.core import Cargo, CargoConfig
from repro.core.cargo import release_ring
from repro.graph.datasets import load_dataset
from repro.stats import create_statistic
from repro.telemetry import (
    Telemetry,
    to_prometheus_text,
    validate_manifest,
    verify_ledger_reconciliation,
    write_trace,
)
from repro.utils.atomic import atomic_write_json, atomic_write_text

RESULTS_DIR = Path(__file__).resolve().parent / "results" / "telemetry"

#: Backend → graph size.  The faithful path is O(C(n,3)) openings, so it
#: stays small; the tiled paths need several blocks to exercise grouping.
BACKEND_SIZES = {"faithful": 36, "batched": 48, "matrix": 96, "blocked": 96}
STATISTICS = ("triangles", "kstars", "wedges", "4cycles")
BLOCK_SIZE = 16
BATCH_SIZE = 64


def _freeze(value):
    if isinstance(value, (tuple, list)):
        return tuple(_freeze(part) for part in value)
    array = np.atleast_1d(np.asarray(value, dtype=np.uint64))
    return (array.shape, array.tobytes())


def _view_streams(views):
    """Both servers' recorded observations as comparable byte tuples."""
    streams = []
    for server_index in (1, 2):
        for entry in views.view(server_index).entries:
            streams.append((entry.server_index, entry.label, _freeze(entry.value)))
    return streams


def _config(backend: str, statistic: str, telemetry, authenticate: bool = False):
    return CargoConfig(
        epsilon=2.0,
        seed=7,
        statistic=statistic,
        counting_backend=backend,
        batch_size=BATCH_SIZE,
        block_size=BLOCK_SIZE,
        record_views=True,
        track_communication=True,
        telemetry=telemetry,
        authenticate=authenticate,
    )


def _ring_bits_ok(backend: str, statistic: str, telemetry, result) -> bool:
    """Check 4 on the traced *result*: the derived width; MAC-checked, 64."""
    record = telemetry.releases[-1]
    graph = load_dataset("facebook", num_nodes=BACKEND_SIZES[backend])
    config = _config(backend, statistic, None)
    stat = create_statistic(statistic, config)
    derived = release_ring(
        config,
        stat,
        num_users=graph.num_nodes,
        degree_bound=result.noisy_max_degree,
        sensitivity=stat.secure_output_sensitivity(result.noisy_max_degree),
        epsilon2=result.epsilon2,
    )
    authed = Cargo(_config(backend, statistic, telemetry, authenticate=True)).run(graph)
    return (
        result.ring_bits == record["ring_bits"] == derived.bits < 64
        and authed.ring_bits == telemetry.releases[-1]["ring_bits"] == 64
    )


def _run_release(backend: str, statistic: str, telemetry):
    graph = load_dataset("facebook", num_nodes=BACKEND_SIZES[backend])
    config = _config(backend, statistic, telemetry)
    cargo = Cargo(config)
    result = cargo.run(graph)
    transcript = (
        result.noisy_triangle_count,
        result.true_triangle_count,
        result.projected_triangle_count,
        tuple(sorted((k, tuple(sorted(v.items()))) for k, v in result.communication.items())),
        tuple(sorted((k, tuple(sorted(v.items()))) for k, v in result.communication_phases.items())),
        _view_streams(cargo.views),
    )
    return result, transcript


def main() -> int:
    failures: list = []
    summary_rows = []
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    for backend in BACKEND_SIZES:
        telemetry = Telemetry()
        for statistic in STATISTICS:
            _, untraced = _run_release(backend, statistic, None)
            result, traced = _run_release(backend, statistic, telemetry)
            cell = f"{backend}/{statistic}"
            identical = traced == untraced
            if not identical:
                failures.append(f"transcript/{cell}")
            print(f"  {'ok' if identical else 'FAIL':4s} transcript {cell}")
            ring_ok = _ring_bits_ok(backend, statistic, telemetry, result)
            if not ring_ok:
                failures.append(f"ring_bits/{cell}")
            print(f"  {'ok' if ring_ok else 'FAIL':4s} ring_bits {cell} ({result.ring_bits})")
            summary_rows.append(
                {
                    "backend": backend,
                    "statistic": statistic,
                    "num_nodes": BACKEND_SIZES[backend],
                    "transcript_identical": identical,
                    "ring_bits": result.ring_bits,
                    "noisy_count": result.noisy_triangle_count,
                    "phases": sorted(result.communication_phases),
                }
            )
        manifest = write_trace(
            telemetry,
            RESULTS_DIR / f"trace_{backend}.json",
            benchmark="telemetry_smoke",
            backend=backend,
        )
        problems = validate_manifest(manifest)
        mismatches = verify_ledger_reconciliation(manifest)
        for label, issues in (("manifest", problems), ("reconcile", mismatches)):
            status = "ok" if not issues else "FAIL"
            print(f"  {status:4s} {label} {backend}: {issues or 'clean'}")
            if issues:
                failures.append(f"{label}/{backend}")
        atomic_write_text(
            RESULTS_DIR / f"metrics_{backend}.prom",
            to_prometheus_text(telemetry.metrics),
        )
    atomic_write_json(
        RESULTS_DIR / "telemetry_smoke.json",
        {"benchmark": "telemetry_smoke", "rows": summary_rows},
    )
    print(f"wrote {RESULTS_DIR}")
    if failures:
        print(f"telemetry-smoke FAILED: {', '.join(failures)}")
        return 1
    print("telemetry-smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
