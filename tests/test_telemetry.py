"""Telemetry layer: spans, metrics, manifests, exporters, profiling.

The layer's central contracts, each covered here:

* spans — hierarchy, counter attributes, shard-merge determinism, and the
  disabled tracer being a true no-op;
* metrics — label-keyed counters/histograms with sorted snapshots;
* session — config-level resolution to the shared no-op bundle;
* manifest — schema validation catches each documented violation, and
  ledger reconciliation is exact in both directions;
* exporters — Prometheus text shape, phase tables, and the summary block;
* integration — a traced Cargo release feeds every surface and reconciles,
  while the transcript stays bit-identical to an untraced run (the full
  backend × statistic × worker-count sweep lives in
  ``test_parallel_engine.py``; every fuzz case re-checks it on a traced
  rerun, invariant 1 of ``repro.verify.fuzz``).
"""

from __future__ import annotations

import json

import pytest

from repro.core import Cargo, CargoConfig
from repro.graph import load_dataset
from repro.telemetry import (
    MANIFEST_SCHEMA_VERSION,
    NULL_TELEMETRY,
    MetricsRegistry,
    Span,
    Telemetry,
    Tracer,
    build_manifest,
    build_result_telemetry,
    format_phase_table,
    phase_rows,
    resolve_telemetry,
    summary_block,
    to_prometheus_text,
    traced_call,
    validate_manifest,
    verify_ledger_reconciliation,
    write_metrics,
    write_trace,
)
from repro.telemetry.spans import NULL_TRACER


class TestSpans:
    def test_hierarchy_and_attributes(self):
        tracer = Tracer()
        with tracer.span("total", statistic="triangles"):
            with tracer.span("count", backend="matrix") as span:
                span.add("opening_rounds", 2)
                span.add("opening_rounds")
                span.annotate(num_users=30)
        (root,) = tracer.roots
        assert root.name == "total"
        assert root.attributes == {"statistic": "triangles"}
        (child,) = root.children
        assert child.attributes == {
            "backend": "matrix",
            "opening_rounds": 3,
            "num_users": 30,
        }
        assert root.seconds >= child.seconds >= 0.0

    def test_timings_aggregate_by_name(self):
        tracer = Tracer()
        with tracer.span("total"):
            with tracer.span("tile"):
                pass
            with tracer.span("tile"):
                pass
        timings = tracer.timings()
        assert set(timings) == {"total", "tile"}
        # Two sibling "tile" spans sum into one key, bounded by the parent.
        assert 0.0 <= timings["tile"] <= timings["total"]

    def test_structure_excludes_nondeterministic_fields(self):
        tracer = Tracer()
        with tracer.span("total"):
            with tracer.span("count", backend="matrix"):
                pass
        (structure,) = tracer.structure()
        assert structure == {
            "name": "total",
            "attributes": {},
            "children": [
                {"name": "count", "attributes": {"backend": "matrix"}, "children": []}
            ],
        }
        (payload,) = tracer.to_dicts()
        assert "seconds" in payload and "seconds" in payload["children"][0]

    def test_shard_merge_preserves_canonical_order(self):
        """Merging shards in schedule order rebuilds the serial tree exactly,
        no matter which 'worker' recorded which shard."""
        serial = Tracer()
        with serial.span("backend"):
            for j0 in (0, 16, 32):
                with serial.span("tile_group", j0=j0):
                    pass

        merged = Tracer()
        shards = []
        for j0 in (0, 16, 32):
            shard = merged.shard()
            with shard.span("tile_group", j0=j0):
                pass
            shards.append(shard)
        with merged.span("backend"):
            for shard in reversed(shards):  # completion order != schedule order
                pass
            for shard in shards:  # coordinator merges canonically
                merged.merge_shard(shard)
        assert merged.structure() == serial.structure()

    def test_disabled_tracer_is_stateless_noop(self):
        with NULL_TRACER.span("ignored", attr=1) as span:
            span.add("counter")
            span.annotate(x=2)
        assert NULL_TRACER.roots == []
        assert NULL_TRACER.structure() == []
        assert NULL_TRACER.timings() == {}
        # Shards of a disabled tracer are the shared null tracer, and
        # merging them back (or merging None) is a no-op everywhere.
        assert NULL_TRACER.shard() is NULL_TRACER
        enabled = Tracer()
        enabled.merge_shard(NULL_TRACER)
        enabled.merge_shard(None)
        assert enabled.roots == []

    def test_span_to_dict_roundtrips_through_json(self):
        span = Span(name="count", attributes={"backend": "matrix"}, seconds=0.5)
        span.children.append(Span(name="tile"))
        payload = json.loads(json.dumps(span.to_dict()))
        assert payload["name"] == "count"
        assert payload["children"][0]["name"] == "tile"


class TestMetrics:
    def test_counters_accumulate_per_label_set(self):
        metrics = MetricsRegistry()
        metrics.increment("comm_bytes", 96, phase="count")
        metrics.increment("comm_bytes", 4, phase="count")
        metrics.increment("comm_bytes", 8, phase="max")
        assert metrics.counters() == {
            'comm_bytes{phase="count"}': 100,
            'comm_bytes{phase="max"}': 8,
        }
        assert metrics.counter_value("comm_bytes", phase="count") == 100
        assert metrics.counter_value("comm_bytes", phase="perturb") == 0

    def test_histograms_track_count_sum_min_max(self):
        metrics = MetricsRegistry()
        for value in (0.25, 0.75, 0.5):
            metrics.observe("anchor_seconds", value, statistic="triangles")
        (stats,) = metrics.histograms().values()
        assert stats == {"count": 3, "sum": 1.5, "min": 0.25, "max": 0.75}

    def test_label_order_is_canonical(self):
        metrics = MetricsRegistry()
        metrics.increment("runs", backend="matrix", statistic="triangles")
        metrics.increment("runs", statistic="triangles", backend="matrix")
        assert metrics.counters() == {
            'runs{backend="matrix",statistic="triangles"}': 2
        }

    def test_disabled_registry_ignores_everything(self):
        metrics = MetricsRegistry(enabled=False)
        metrics.increment("runs")
        metrics.observe("seconds", 0.5)
        assert metrics.as_dict() == {"counters": {}, "histograms": {}}


class TestSession:
    def test_resolution_defaults_to_shared_noop(self):
        assert resolve_telemetry(object()) is NULL_TELEMETRY
        assert resolve_telemetry(CargoConfig()) is NULL_TELEMETRY
        assert Telemetry.disabled() is NULL_TELEMETRY
        assert not NULL_TELEMETRY.enabled
        assert NULL_TELEMETRY.tracer is NULL_TRACER

    def test_config_carries_session_through(self):
        telemetry = Telemetry()
        config = CargoConfig(telemetry=telemetry)
        assert resolve_telemetry(config) is telemetry

    def test_disabled_session_drops_releases(self):
        NULL_TELEMETRY.record_release({"kind": "cargo"})
        assert NULL_TELEMETRY.releases == []


def _seeded_session() -> Telemetry:
    """A session holding one hand-built, fully-reconciled release."""
    telemetry = Telemetry()
    telemetry.metrics.increment("comm_bytes", 96, phase="count")
    telemetry.metrics.increment("comm_messages", 2, phase="count")
    with telemetry.tracer.span("total"):
        pass
    telemetry.record_release(
        {
            "kind": "cargo",
            "statistic": "triangles",
            "backend": "matrix",
            "noisy_count": 3.5,
            "communication_phases": {"count": {"bytes": 96, "messages": 2}},
        }
    )
    return telemetry


class TestManifest:
    def test_valid_manifest_round_trips(self, tmp_path):
        manifest = write_trace(_seeded_session(), tmp_path / "trace.json", run="x")
        assert validate_manifest(manifest) == []
        assert verify_ledger_reconciliation(manifest) == []
        reloaded = json.loads((tmp_path / "trace.json").read_text())
        assert reloaded == manifest
        assert reloaded["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert reloaded["context"] == {"run": "x"}

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda m: m.update(schema_version=99), "schema_version"),
            (lambda m: m.update(kind="other"), "kind"),
            (lambda m: m.pop("context"), "context"),
            (lambda m: m.update(releases="nope"), "releases"),
            (lambda m: m["releases"][0].pop("noisy_count"), "noisy_count"),
            (
                lambda m: m["releases"][0]["communication_phases"]["count"].pop("bytes"),
                "bytes",
            ),
            (lambda m: m["metrics"].pop("counters"), "counters"),
            (lambda m: m["trace"][0].pop("name"), "name"),
            (lambda m: m["trace"][0].pop("children"), "children"),
        ],
    )
    def test_each_violation_is_reported(self, mutate, fragment):
        manifest = build_manifest(_seeded_session())
        mutate(manifest)
        problems = validate_manifest(manifest)
        assert problems and any(fragment in problem for problem in problems)

    def test_reconciliation_catches_drift_both_directions(self):
        # Release claims more bytes than the counter recorded.
        manifest = build_manifest(_seeded_session())
        manifest["releases"][0]["communication_phases"]["count"]["bytes"] += 1
        assert any("comm_bytes" in p for p in verify_ledger_reconciliation(manifest))
        # Counter exists for a phase no release accounts for.
        telemetry = _seeded_session()
        telemetry.metrics.increment("comm_bytes", 8, phase="orphan")
        problems = verify_ledger_reconciliation(build_manifest(telemetry))
        assert any("orphan" in p for p in problems)


class TestExporters:
    def test_prometheus_text_families(self):
        telemetry = _seeded_session()
        telemetry.metrics.observe("anchor_seconds", 0.5)
        text = to_prometheus_text(telemetry.metrics)
        assert "# TYPE comm_bytes counter" in text
        assert 'comm_bytes{phase="count"} 96' in text
        assert " gauge" not in text
        assert "# TYPE anchor_seconds summary" in text
        assert "anchor_seconds_count 1" in text
        assert "anchor_seconds_sum 0.5" in text

    def test_write_metrics(self, tmp_path):
        path = write_metrics(_seeded_session().metrics, tmp_path / "sub" / "m.prom")
        assert path.read_text().endswith("\n")

    def test_phase_rows_canonical_order_and_total(self):
        timings = {"total": 1.0, "perturb": 0.1, "count": 0.6, "extra": 0.05}
        phases = {"count": {"bytes": 96, "messages": 2}}
        rows = phase_rows(timings, phases)
        assert [row["phase"] for row in rows] == ["count", "perturb", "extra"]
        table = format_phase_table(rows)
        assert table.splitlines()[-1].startswith("total")
        assert "96" in table

    def test_build_result_telemetry_optional_blocks(self):
        block = build_result_telemetry(
            {"count": 0.5},
            {},
            opening_rounds=3,
            candidates=10,
        )
        assert block["opening_rounds"] == 3
        assert block["candidates"] == 10
        assert "summary" in block and block["phases"][0]["phase"] == "count"

    def test_summary_block_shape(self):
        telemetry = _seeded_session()
        block = summary_block(telemetry)
        assert set(block) == {"enabled", "releases", "metrics"}
        assert block["enabled"] is True
        assert block["releases"][0]["statistic"] == "triangles"
        assert json.loads(json.dumps(block)) == block


class TestProfiling:
    def test_traced_call_returns_result_seconds_peak(self):
        result, seconds, peak = traced_call(lambda: [0] * 10_000)
        assert len(result) == 10_000
        assert seconds >= 0.0
        assert isinstance(peak, int) and peak > 0


class TestTracedRunIntegration:
    """One traced release feeds every surface without perturbing outputs."""

    @pytest.fixture(scope="class")
    def traced(self):
        graph = load_dataset("facebook", num_nodes=24)
        telemetry = Telemetry()

        def run(session):
            config = CargoConfig(
                epsilon=2.0,
                seed=7,
                counting_backend="matrix",
                block_size=16,
                track_communication=True,
                telemetry=session,
            )
            return Cargo(config).run(graph)

        return run(telemetry), run(None), telemetry

    def test_outputs_identical_traced_vs_untraced(self, traced):
        result, untraced, _ = traced
        assert result.noisy_triangle_count == untraced.noisy_triangle_count
        assert result.true_triangle_count == untraced.true_triangle_count
        assert result.communication_phases == untraced.communication_phases
        # Traced runs report the legacy phase keys plus the deeper span
        # names (backend/offline/online/...); the legacy keys never vanish.
        assert set(untraced.timings) <= set(result.timings)
        assert set(untraced.timings) == {"total", "max", "project", "count", "perturb"}

    def test_result_telemetry_block_only_when_traced(self, traced):
        result, untraced, _ = traced
        assert untraced.telemetry is None
        assert result.telemetry is not None
        assert {row["phase"] for row in result.telemetry["phases"]} >= {
            "max",
            "count",
            "perturb",
        }

    def test_manifest_validates_and_reconciles(self, traced, tmp_path):
        _, _, telemetry = traced
        manifest = write_trace(telemetry, tmp_path / "trace.json", test="integration")
        assert validate_manifest(manifest) == []
        assert verify_ledger_reconciliation(manifest) == []
        (release,) = manifest["releases"]
        assert release["kind"] == "cargo" and release["backend"] == "matrix"

    def test_metrics_fed(self, traced):
        _, _, telemetry = traced
        counters = telemetry.metrics.counters()
        assert counters['runs{backend="matrix",statistic="triangles"}'] == 1
        assert any(series.startswith("comm_bytes{") for series in counters)
        assert any(series.startswith("epsilon_spent{") for series in counters)

    def test_trace_tree_has_run_and_phase_spans(self, traced):
        _, _, telemetry = traced
        (root,) = telemetry.tracer.roots
        assert root.name == "total"
        assert root.attributes["backend"] == "matrix"
        phase_names = [child.name for child in root.children]
        assert phase_names == ["max", "project", "count", "perturb"]
        count_span = root.children[2]
        assert any(span.name == "backend" for span in count_span.children)
