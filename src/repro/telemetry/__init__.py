"""Protocol telemetry: hierarchical spans, metrics, and run manifests.

The package has three accumulation surfaces and three exports:

* :class:`Tracer` / :class:`Span` — the hierarchical span tree
  (run → phase → backend step / tile group / stream anchor), thread-safe
  under the worker pool via the same shard-merge discipline as
  :class:`~repro.crypto.views.ViewRecorder`;
* :class:`MetricsRegistry` — labelled counters/histograms fed by the
  protocol (bytes and messages per phase, triples dealt,
  opening rounds, ε per ledger entry, stream events and anchor latency);
* :class:`Telemetry` — the per-run bundle configs carry
  (``CargoConfig(telemetry=Telemetry())``), off by default;
* exporters — JSON run manifest (:func:`write_trace`), Prometheus text
  (:func:`write_metrics`), and the per-phase summary table attached to
  ``CargoResult.telemetry``.

Telemetry never perturbs a transcript: outputs, ledgers, and recorded
views are bit-identical with telemetry on or off, and the disabled path
(the default) is a handful of attribute checks.
"""

from repro.telemetry.exporters import (
    build_result_telemetry,
    format_phase_table,
    phase_rows,
    summary_block,
    to_prometheus_text,
    write_metrics,
    write_trace,
)
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    validate_manifest,
    verify_ledger_reconciliation,
)
from repro.telemetry.metrics import NULL_METRICS, MetricsRegistry
from repro.telemetry.profiling import measure_peak_bytes, traced_call
from repro.telemetry.session import NULL_TELEMETRY, Telemetry, resolve_telemetry
from repro.telemetry.spans import NULL_TRACER, Span, Tracer

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "Span",
    "Telemetry",
    "Tracer",
    "build_manifest",
    "build_result_telemetry",
    "format_phase_table",
    "measure_peak_bytes",
    "phase_rows",
    "resolve_telemetry",
    "summary_block",
    "to_prometheus_text",
    "traced_call",
    "validate_manifest",
    "verify_ledger_reconciliation",
    "write_metrics",
    "write_trace",
]
