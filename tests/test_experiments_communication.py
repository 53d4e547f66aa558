"""Tests for repro.experiments.communication and CLI JSON output."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.communication import communication_overhead


class TestCommunicationOverhead:
    @pytest.fixture(scope="class")
    def report(self):
        return communication_overhead(dataset="grqc", user_counts=(30, 60), epsilon=2.0, seed=0)

    def test_one_row_per_user_count(self, report):
        assert [row["num_users"] for row in report.rows] == [30, 60]

    def test_bytes_grow_superlinearly(self, report):
        by_n = {row["num_users"]: row["total_bytes"] for row in report.rows}
        assert by_n[60] > 2 * by_n[30]

    def test_adjacency_upload_dominates(self, report):
        for row in report.rows:
            assert row["adjacency_share_bytes"] > row["noise_share_bytes"]

    def test_message_count_scales_with_users(self, report):
        by_n = {row["num_users"]: row["total_messages"] for row in report.rows}
        assert by_n[60] > by_n[30]

    def test_bytes_per_user_reported(self, report):
        for row in report.rows:
            assert row["bytes_per_user"] == pytest.approx(
                row["total_bytes"] / row["num_users"]
            )

    def test_phase_split_is_exact_not_heuristic(self):
        """The adjacency/noise split comes from send-time phase labels."""
        from repro.core.cargo import Cargo
        from repro.core.config import CargoConfig
        from repro.graph.datasets import load_dataset

        graph = load_dataset("grqc", num_nodes=40)
        result = Cargo(CargoConfig(epsilon=2.0, seed=0, track_communication=True)).run(graph)
        phases = result.communication_phases
        n = graph.num_nodes
        # The default (matrix) backend masks the upload: the dealer sends
        # each user her two 32-byte row seeds, and each user uploads her
        # n - 1 - i masked elements of C to both servers.
        assert phases["input_masks"] == {"messages": n, "bytes": 64 * n}
        assert phases["adjacency_share"]["messages"] == 2 * n
        assert phases["adjacency_share"]["bytes"] == 8 * n * (n - 1)
        # Each user uploads one scalar noise share to each server.
        assert phases["noise_share"]["messages"] == 2 * n
        assert phases["noise_share"]["bytes"] == 2 * n * 8
        # Phase totals reconcile exactly with the channel totals.
        assert sum(entry["bytes"] for entry in phases.values()) == sum(
            entry["bytes"] for entry in result.communication.values()
        )
        assert sum(entry["messages"] for entry in phases.values()) == sum(
            entry["messages"] for entry in result.communication.values()
        )


class TestCliJsonOutput:
    def test_json_flag_emits_parseable_rows(self, capsys):
        assert main(["table2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "table2"
        assert len(payload["rows"]) == 4

    def test_json_flag_with_overrides(self, capsys):
        assert main(["table4", "--num-nodes", "60", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {row["graph"] for row in payload["rows"]} == {"facebook", "wiki", "hepph", "enron"}
