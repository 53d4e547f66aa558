"""Exporters: JSON trace manifest, Prometheus text, and summary tables.

Three consumption formats for one run's telemetry:

* :func:`write_trace` — the schema-versioned JSON run manifest
  (see :mod:`repro.telemetry.manifest`) for machine consumption;
* :func:`to_prometheus_text` / :func:`write_metrics` — the metric registry
  in the Prometheus text exposition format, ready for a file-based scrape;
* :func:`format_phase_table` / :func:`build_result_telemetry` — the
  human-readable per-phase summary attached to ``CargoResult.telemetry``.

Examples
--------
>>> from repro.telemetry.metrics import MetricsRegistry
>>> metrics = MetricsRegistry()
>>> metrics.increment("comm_bytes", 96, phase="count")
>>> print(to_prometheus_text(metrics))
# TYPE comm_bytes counter
comm_bytes{phase="count"} 96
<BLANKLINE>
>>> rows = [{"phase": "count", "seconds": 0.5, "bytes": 96, "messages": 2}]
>>> print(format_phase_table(rows))  # doctest: +NORMALIZE_WHITESPACE
phase         seconds        bytes   messages
count        0.500000           96          2
total        0.500000           96          2
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.telemetry.manifest import build_manifest
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.session import Telemetry
from repro.utils.atomic import atomic_write_text

#: Canonical phase order for the per-phase summary table.
PHASE_ORDER = ("max", "project", "count", "perturb", "anchor", "release")


def _format_value(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:g}"
    return str(int(value))


def to_prometheus_text(metrics: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: List[str] = []

    seen = set()
    for name, value in metrics.counters().items():
        bare = name.split("{", 1)[0]
        if bare not in seen:
            seen.add(bare)
            lines.append(f"# TYPE {bare} counter")
        lines.append(f"{name} {_format_value(value)}")
    seen = set()
    for name, stats in metrics.histograms().items():
        bare, brace, labels = name.partition("{")
        suffix = brace + labels
        if bare not in seen:
            seen.add(bare)
            lines.append(f"# TYPE {bare} summary")
        lines.append(f"{bare}_count{suffix} {_format_value(stats['count'])}")
        lines.append(f"{bare}_sum{suffix} {stats['sum']:g}")
        lines.append(f"{bare}_min{suffix} {stats['min']:g}")
        lines.append(f"{bare}_max{suffix} {stats['max']:g}")
    return "\n".join(lines) + "\n"


def write_metrics(metrics: MetricsRegistry, path) -> Path:
    """Write the Prometheus text export to *path* and return it.

    The write is atomic (write-then-rename): a crash mid-export never
    leaves a truncated metrics file behind.
    """
    target = Path(path)
    atomic_write_text(target, to_prometheus_text(metrics))
    return target


def write_trace(telemetry: Telemetry, path, **context) -> Dict:
    """Write the JSON run manifest to *path* atomically; returns the dict."""
    manifest = build_manifest(telemetry, **context)
    target = Path(path)
    atomic_write_text(target, json.dumps(manifest, indent=2) + "\n")
    return manifest


def format_phase_table(rows: List[Dict]) -> str:
    """Aligned per-phase summary table (seconds / bytes / messages)."""
    header = f"{'phase':<10s} {'seconds':>12s} {'bytes':>12s} {'messages':>10s}"
    lines = [header]
    totals = {"seconds": 0.0, "bytes": 0, "messages": 0}
    for row in rows:
        lines.append(
            f"{row['phase']:<10s} {row['seconds']:>12.6f} "
            f"{row['bytes']:>12d} {row['messages']:>10d}"
        )
        totals["seconds"] += row["seconds"]
        totals["bytes"] += row["bytes"]
        totals["messages"] += row["messages"]
    lines.append(
        f"{'total':<10s} {totals['seconds']:>12.6f} "
        f"{totals['bytes']:>12d} {totals['messages']:>10d}"
    )
    return "\n".join(lines)


def phase_rows(
    timings: Dict[str, float], communication_phases: Dict[str, Dict[str, int]]
) -> List[Dict]:
    """Join phase timings with the ledger's per-phase byte/message totals.

    Phases appear in :data:`PHASE_ORDER` first, then any remaining timed or
    ledgered names in sorted order; the synthetic ``total`` timing key is
    excluded (the table prints its own total line).
    """
    names = [name for name in PHASE_ORDER if name in timings or name in communication_phases]
    extras = sorted(
        (set(timings) | set(communication_phases)) - set(names) - {"total"}
    )
    rows = []
    for name in names + extras:
        comm = communication_phases.get(name, {})
        rows.append(
            {
                "phase": name,
                "seconds": float(timings.get(name, 0.0)),
                "bytes": int(comm.get("bytes", 0)),
                "messages": int(comm.get("messages", 0)),
            }
        )
    return rows


def build_result_telemetry(
    timings: Dict[str, float],
    communication_phases: Dict[str, Dict[str, int]],
    *,
    opening_rounds: Optional[int] = None,
    candidates: Optional[int] = None,
) -> Dict:
    """The ``CargoResult.telemetry`` block: rows + rendered summary table."""
    rows = phase_rows(timings, communication_phases)
    block: Dict[str, object] = {
        "phases": rows,
        "summary": format_phase_table(rows),
    }
    if opening_rounds is not None:
        block["opening_rounds"] = opening_rounds
    if candidates is not None:
        block["candidates"] = candidates
    return block


def summary_block(telemetry: Telemetry) -> Dict:
    """The ``--json`` telemetry block: metric snapshot + release records."""
    return {
        "enabled": telemetry.enabled,
        "releases": telemetry.releases,
        "metrics": telemetry.metrics.as_dict(),
    }
