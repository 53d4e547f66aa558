"""CLI telemetry surface: ``--trace-out``, ``--metrics-out``, ``--json``.

`test_experiments_specs_cli.py` covers the registry and the basic flag
plumbing; this module covers the observability flags end to end — a real
``run`` invocation writing a schema-valid manifest and a Prometheus dump,
and the ``--json`` payload carrying the telemetry summary block (metric
snapshot, release records) through a full serialise/parse round trip.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.telemetry import validate_manifest, verify_ledger_reconciliation


def _run_json(capsys, *argv) -> dict:
    assert main([*argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


class TestTraceExport:
    def test_run_writes_valid_reconciled_manifest(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert (
            main(
                [
                    "run",
                    "--backend",
                    "matrix",
                    "--num-nodes",
                    "24",
                    "--trace-out",
                    str(trace),
                ]
            )
            == 0
        )
        capsys.readouterr()
        manifest = json.loads(trace.read_text())
        assert validate_manifest(manifest) == []
        assert verify_ledger_reconciliation(manifest) == []
        assert manifest["context"]["experiment"] == "run"
        (release,) = manifest["releases"]
        assert release["backend"] == "matrix"
        assert release["statistic"] == "triangles"
        # The span tree reached the manifest: one root run span with the
        # four protocol phases underneath.
        (root,) = manifest["trace"]
        assert root["name"] == "total"
        assert [s["name"] for s in root["children"]] == [
            "max",
            "project",
            "count",
            "perturb",
        ]

    def test_metrics_out_writes_prometheus_text(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        assert (
            main(
                [
                    "run",
                    "--backend",
                    "batched",
                    "--num-nodes",
                    "24",
                    "--metrics-out",
                    str(metrics),
                ]
            )
            == 0
        )
        capsys.readouterr()
        text = metrics.read_text()
        assert "# TYPE runs counter" in text
        assert 'runs{backend="batched",statistic="triangles"} 1' in text
        assert 'comm_bytes{phase="adjacency_share"}' in text

    def test_exporters_do_not_change_rendered_report(self, tmp_path, capsys):
        assert main(["run", "--num-nodes", "24", "--seed", "3"]) == 0
        plain = capsys.readouterr().out
        assert (
            main(
                [
                    "run",
                    "--num-nodes",
                    "24",
                    "--seed",
                    "3",
                    "--trace-out",
                    str(tmp_path / "t.json"),
                ]
            )
            == 0
        )
        traced = capsys.readouterr().out
        # Identical released numbers; only the wall-clock column may move.
        pick = lambda text: [line.split()[:5] for line in text.splitlines()]
        assert pick(traced)[:2] == pick(plain)[:2]


class TestJsonTelemetryBlock:
    @pytest.fixture()
    def payload(self, capsys):
        return _run_json(
            capsys, "run", "--backend", "blocked", "--num-nodes", "24", "--seed", "5"
        )

    def test_round_trip_carries_summary_block(self, payload):
        block = payload["telemetry"]
        assert block["enabled"] is True
        (release,) = block["releases"]
        assert release["kind"] == "cargo"
        assert release["backend"] == "blocked"
        counters = block["metrics"]["counters"]
        assert counters['runs{backend="blocked",statistic="triangles"}'] == 1
        assert any(series.startswith("epsilon_spent{") for series in counters)

    def test_row_carries_phase_table(self, payload):
        (row,) = payload["rows"]
        assert {p["phase"] for p in row["telemetry"]["phases"]} >= {"max", "count"}
        # The scalar columns agree with the ledger the row embeds.
        assert row["comm_bytes"] == sum(
            entry["bytes"] for entry in row["communication_phases"].values()
        )

    def test_json_without_telemetry_capable_experiment(self, capsys):
        """Experiments that take no ``telemetry`` kwarg still produce the
        block — it just reports an empty (but enabled) session."""
        payload = _run_json(capsys, "table4", "--num-nodes", "30")
        block = payload["telemetry"]
        assert block["enabled"] is True
        assert block["releases"] == []
        assert block["metrics"]["counters"] == {}


class TestResilienceFlags:
    def test_typed_error_exits_one_with_one_line_message(self, capsys):
        # An unknown statistic raises ConfigurationError (a ReproError):
        # the CLI prints a single-line error and exits nonzero.
        assert main(["run", "--statistic", "not-a-statistic"]) == 1
        captured = capsys.readouterr()
        error_lines = [line for line in captured.err.splitlines() if line]
        assert len(error_lines) == 1
        assert error_lines[0].startswith("error:")

    def test_retries_flag_rejects_bad_value(self, capsys):
        assert main(["run", "--num-nodes", "24", "--retries", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_resilience_flags_on_unsupporting_experiment_fail_typed(self, capsys):
        assert main(["table4", "--num-nodes", "30", "--retries", "2"]) == 1
        err = capsys.readouterr().err
        assert "does not support" in err

    def test_injected_crash_exits_two_and_resume_completes(
        self, tmp_path, capsys
    ):
        plan_file = tmp_path / "plan.json"
        from repro.resilience import FaultKind, FaultPlan, FaultSpec

        plan = FaultPlan([FaultSpec("stream.anchor", FaultKind.CRASH, at=2)])
        plan_file.write_text(plan.to_json())
        ckpt = tmp_path / "stream.ckpt"
        argv = [
            "stream",
            "--num-nodes",
            "80",
            "--release-every",
            "40",
            "--anchor-every",
            "3",
            "--checkpoint",
            str(ckpt),
            "--resume",
        ]
        assert main([*argv, "--fault-plan", str(plan_file)]) == 2
        assert "crashed (injected)" in capsys.readouterr().err
        # Resumed run completes and emits exactly the uninterrupted rows.
        resumed = _run_json(capsys, *argv)
        reference = _run_json(
            capsys,
            "stream",
            "--num-nodes",
            "80",
            "--release-every",
            "40",
            "--anchor-every",
            "3",
        )
        assert resumed["rows"] == reference["rows"]

    def test_unreadable_fault_plan_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "plan.json"
        bad.write_text("{not json")
        assert main(["run", "--num-nodes", "24", "--fault-plan", str(bad)]) == 1
        assert "unreadable fault plan" in capsys.readouterr().err

    def test_retries_flag_passes_through(self, capsys):
        # Smoke: the flag reaches CargoConfig.resilience without changing a
        # clean run's exit code or rows.
        payload = _run_json(
            capsys, "run", "--num-nodes", "24", "--seed", "5", "--retries", "2"
        )
        reference = _run_json(capsys, "run", "--num-nodes", "24", "--seed", "5")
        pick = lambda rows: [
            {k: v for k, v in row.items() if k not in ("seconds", "telemetry")}
            for row in rows
        ]
        assert pick(payload["rows"]) == pick(reference["rows"])


class TestVerificationFlags:
    def test_authenticated_run_is_bit_identical_and_exits_zero(self, capsys):
        authed = _run_json(
            capsys, "run", "--num-nodes", "24", "--seed", "5", "--authenticate"
        )
        plain = _run_json(capsys, "run", "--num-nodes", "24", "--seed", "5")
        (authed_row,) = authed["rows"]
        (plain_row,) = plain["rows"]
        assert authed_row["noisy_count"] == plain_row["noisy_count"]
        # The MAC block only appears on the authenticated run's release.
        (authed_release,) = authed["telemetry"]["releases"]
        (plain_release,) = plain["telemetry"]["releases"]
        assert authed_release["mac"]["rounds_checked"] >= 1
        assert "mac" not in plain_release

    def test_cheating_run_exits_one_with_typed_message(self, capsys, monkeypatch):
        # A corrupted opening aborts with CheaterDetectedError, which is a
        # ReproError — the CLI maps it to exit code 1 and a one-line error.
        import repro.experiments.single_run as single_run
        from repro.crypto.mac import OpeningAuthenticator
        from repro.core.config import CargoConfig

        original = CargoConfig

        def lie(opening):
            opening.messages[0].values[0] ^= 1

        def corrupted_config(*args, **kwargs):
            kwargs.pop("authenticate", None)
            kwargs["authenticator"] = OpeningAuthenticator(seed=0, tamper=lie)
            return original(*args, **kwargs)

        monkeypatch.setattr(single_run, "CargoConfig", corrupted_config)
        assert main(["run", "--num-nodes", "24", "--authenticate"]) == 1
        err = capsys.readouterr().err
        assert "MAC check failed" in err
        assert "cheated" in err

    def test_audit_shorthand_resolves_experiment(self, capsys):
        # 40 trials starve the estimator, so the planted bug passes and the
        # audit gate exits 1 naming it.
        assert main(["--audit", "--num-nodes", "6", "--trials", "40"]) == 1
        err = capsys.readouterr().err
        assert "privacy audit gate failed: half-noise bug" in err

    def test_audit_shorthand_conflicts_with_other_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["table4", "--audit"])
        assert "--audit conflicts" in capsys.readouterr().err

    def test_stream_and_audit_flags_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["--stream", "--audit"])
        assert "mutually exclusive" in capsys.readouterr().err
