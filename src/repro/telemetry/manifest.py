"""Schema-versioned run manifests: build, validate, reconcile.

A *run manifest* is the structured JSON export of one traced run: the
release records, the metric snapshot, and the span tree, under a pinned
``schema_version``.  Every fuzz case (:mod:`repro.verify.fuzz`) runs a
traced release's manifest through :func:`validate_manifest` and
:func:`verify_ledger_reconciliation`, so the schema here is load-bearing —
bump :data:`MANIFEST_SCHEMA_VERSION` on any breaking field change.

Validation is hand-rolled (no ``jsonschema`` dependency in the image): it
walks the documented shape and returns a list of human-readable problems,
empty when the manifest is valid.

Examples
--------
>>> from repro.telemetry.session import Telemetry
>>> telemetry = Telemetry()
>>> telemetry.metrics.increment("comm_bytes", 8, phase="max")
>>> telemetry.metrics.increment("comm_messages", 1, phase="max")
>>> telemetry.record_release({
...     "kind": "cargo", "statistic": "triangles", "backend": "matrix",
...     "noisy_count": 1.0, "true_count": 1.0,
...     "communication_phases": {"max": {"bytes": 8, "messages": 1}},
... })
>>> manifest = build_manifest(telemetry)
>>> manifest["schema_version"]
1
>>> validate_manifest(manifest)
[]
>>> verify_ledger_reconciliation(manifest)
[]
"""

from __future__ import annotations

from typing import Dict, List

from repro.telemetry.session import Telemetry

#: Bump on any breaking change to the manifest layout.
MANIFEST_SCHEMA_VERSION = 1

MANIFEST_KIND = "repro-run-manifest"

#: Keys every release record must carry (further keys are free-form).
_RELEASE_REQUIRED = ("kind", "statistic", "backend", "noisy_count")

#: A detected cheat aborts the release, so its record carries the failed
#: round instead of a count — same schema version, different required keys.
_CHEATER_REQUIRED = ("kind", "statistic", "backend", "round_index", "label")


def build_manifest(telemetry: Telemetry, **context) -> Dict:
    """Assemble the manifest for everything *telemetry* accumulated.

    Extra keyword arguments land in the manifest's ``context`` block —
    the CLI records the experiment name and arguments there.
    """
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "kind": MANIFEST_KIND,
        "context": dict(context),
        "releases": telemetry.releases,
        "metrics": telemetry.metrics.as_dict(),
        "trace": telemetry.tracer.to_dicts(),
    }


def _check_span(span, path: str, problems: List[str]) -> None:
    if not isinstance(span, dict):
        problems.append(f"{path}: span is not an object")
        return
    if not isinstance(span.get("name"), str) or not span.get("name"):
        problems.append(f"{path}: span name missing or not a string")
    if not isinstance(span.get("attributes"), dict):
        problems.append(f"{path}: span attributes missing or not an object")
    if not isinstance(span.get("seconds"), (int, float)):
        problems.append(f"{path}: span seconds missing or not a number")
    children = span.get("children")
    if not isinstance(children, list):
        problems.append(f"{path}: span children missing or not a list")
        return
    for index, child in enumerate(children):
        _check_span(child, f"{path}.children[{index}]", problems)


def _check_phase_map(phases, path: str, problems: List[str]) -> None:
    if not isinstance(phases, dict):
        problems.append(f"{path}: not an object")
        return
    for phase, stats in phases.items():
        if not isinstance(stats, dict):
            problems.append(f"{path}[{phase!r}]: not an object")
            continue
        for field in ("bytes", "messages"):
            if not isinstance(stats.get(field), int):
                problems.append(f"{path}[{phase!r}].{field}: missing or not an int")


def validate_manifest(manifest) -> List[str]:
    """All schema violations in *manifest* (empty list ⇒ valid)."""
    problems: List[str] = []
    if not isinstance(manifest, dict):
        return ["manifest is not an object"]
    if manifest.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        problems.append(
            f"schema_version: expected {MANIFEST_SCHEMA_VERSION}, "
            f"got {manifest.get('schema_version')!r}"
        )
    if manifest.get("kind") != MANIFEST_KIND:
        problems.append(f"kind: expected {MANIFEST_KIND!r}, got {manifest.get('kind')!r}")
    if not isinstance(manifest.get("context"), dict):
        problems.append("context: missing or not an object")

    releases = manifest.get("releases")
    if not isinstance(releases, list):
        problems.append("releases: missing or not a list")
        releases = []
    for index, release in enumerate(releases):
        path = f"releases[{index}]"
        if not isinstance(release, dict):
            problems.append(f"{path}: not an object")
            continue
        if release.get("kind") == "cheater_detected":
            for key in _CHEATER_REQUIRED:
                if key not in release:
                    problems.append(f"{path}.{key}: missing")
            if "round_index" in release and not isinstance(
                release["round_index"], int
            ):
                problems.append(f"{path}.round_index: not an int")
            continue
        for key in _RELEASE_REQUIRED:
            if key not in release:
                problems.append(f"{path}.{key}: missing")
        if "noisy_count" in release and not isinstance(
            release["noisy_count"], (int, float)
        ):
            problems.append(f"{path}.noisy_count: not a number")
        if "communication_phases" in release:
            _check_phase_map(
                release["communication_phases"], f"{path}.communication_phases", problems
            )

    metrics = manifest.get("metrics")
    if not isinstance(metrics, dict):
        problems.append("metrics: missing or not an object")
    else:
        for family in ("counters", "histograms"):
            if not isinstance(metrics.get(family), dict):
                problems.append(f"metrics.{family}: missing or not an object")

    trace = manifest.get("trace")
    if not isinstance(trace, list):
        problems.append("trace: missing or not a list")
    else:
        for index, span in enumerate(trace):
            _check_span(span, f"trace[{index}]", problems)
    return problems


def verify_ledger_reconciliation(manifest) -> List[str]:
    """Cross-check per-phase bytes/messages against the metric counters.

    Every release record carries the ``CommunicationLedger`` phase summary
    it was built from, and the run also feeds the same summary into the
    ``comm_bytes``/``comm_messages`` counters.  Summing the release-side
    numbers per phase must reproduce the counters **exactly** — any drift
    means a phase was double-counted or dropped.  Returns the list of
    mismatches (empty ⇒ reconciled).
    """
    problems: List[str] = []
    if not isinstance(manifest, dict):
        return ["manifest is not an object"]
    totals: Dict[str, Dict[str, int]] = {}
    for release in manifest.get("releases", []):
        for phase, stats in (release.get("communication_phases") or {}).items():
            entry = totals.setdefault(phase, {"bytes": 0, "messages": 0})
            entry["bytes"] += stats.get("bytes", 0)
            entry["messages"] += stats.get("messages", 0)
    counters = (manifest.get("metrics") or {}).get("counters") or {}
    for family, unit in (("comm_bytes", "bytes"), ("comm_messages", "messages")):
        counted = {
            series: value
            for series, value in counters.items()
            if series.startswith(f'{family}{{phase="')
        }
        expected = {
            f'{family}{{phase="{phase}"}}': stats[unit]
            for phase, stats in totals.items()
        }
        for series, value in sorted(expected.items()):
            if counters.get(series) != value:
                problems.append(
                    f"{series}: releases total {value}, counter {counters.get(series)!r}"
                )
        for series in sorted(set(counted) - set(expected)):
            problems.append(f"{series}: counter present but no release accounts for it")
    return problems
