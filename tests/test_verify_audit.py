"""Tests for repro.verify.audit — the protocol-level privacy audit.

The expensive, discriminating runs (honest passes / planted half-noise bug
fails at the tuned defaults) are the CI ``verify`` job's
``repro-cargo --audit --seed 0`` and ``--seed 1``; these tests pin the
machinery at small scale: neighbouring-graph construction, the audit
result's pass rules, parameter validation, that a small honest audit runs
end to end with views attached, and that a starved audit fails its gate.
"""

from __future__ import annotations

import pytest

from repro.exceptions import AuditFailedError, ConfigurationError
from repro.graph.graph import Graph
from repro.verify import (
    ProtocolAuditResult,
    audit_experiment,
    audit_protocol,
    neighbouring_graphs,
    worst_case_graph,
)


class TestNeighbouringGraphs:
    def test_worst_case_graph_is_complete(self):
        graph = worst_case_graph(6)
        assert graph.num_nodes == 6
        assert len(graph.edge_list()) == 15

    def test_worst_case_graph_too_small(self):
        with pytest.raises(ConfigurationError):
            worst_case_graph(2)

    def test_edge_neighbour_drops_exactly_one_edge(self):
        graph = worst_case_graph(6)
        original, neighbour = neighbouring_graphs(graph, mode="edge")
        assert original is graph
        assert len(neighbour.edge_list()) == len(graph.edge_list()) - 1
        assert graph.num_nodes == neighbour.num_nodes

    def test_edge_neighbour_targets_max_common_neighbours(self):
        # A triangle plus a pendant edge: only the triangle edges share a
        # common neighbour, so one of them must be the removed edge.
        graph = Graph(5, edges=[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        _, neighbour = neighbouring_graphs(graph, mode="edge")
        removed = set(graph.edge_list()) - set(neighbour.edge_list())
        assert removed.issubset({(0, 1), (0, 2), (1, 2)})
        assert len(removed) == 1

    def test_node_neighbour_isolates_highest_degree_node(self):
        graph = Graph(5, edges=[(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)])
        _, neighbour = neighbouring_graphs(graph, mode="node")
        assert neighbour.degrees()[0] == 0
        assert neighbour.num_nodes == graph.num_nodes

    def test_original_graph_untouched(self):
        graph = worst_case_graph(5)
        before = graph.edge_list()
        neighbouring_graphs(graph, mode="edge")
        neighbouring_graphs(graph, mode="node")
        assert graph.edge_list() == before

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            neighbouring_graphs(worst_case_graph(5), mode="triangle")

    def test_empty_graph_rejected(self):
        with pytest.raises(ConfigurationError):
            neighbouring_graphs(Graph(4, edges=[]), mode="edge")


class TestProtocolAuditResult:
    def _result(self, bound: float, claimed: float = 2.0, **kwargs) -> ProtocolAuditResult:
        defaults = dict(
            epsilon_lower_bound=bound,
            claimed_epsilon=claimed,
            realized_epsilon=claimed,
            num_trials=100,
            num_bins=24,
            mode="edge",
            statistic="triangles",
            backend="matrix",
            node_dp=False,
        )
        defaults.update(kwargs)
        return ProtocolAuditResult(**defaults)

    def test_pass_rule_tolerates_estimator_slack(self):
        assert self._result(2.0).passes
        assert self._result(2.15).passes  # 2.0 * 1.05 + 0.05
        assert not self._result(2.16).passes

    def test_view_pass_rule(self):
        assert self._result(1.0).view_passes  # no view audit attached
        assert self._result(1.0, view_divergence=0.01, view_threshold=0.05).view_passes
        assert not self._result(
            1.0, view_divergence=0.2, view_threshold=0.05
        ).view_passes


class TestAuditProtocol:
    def test_small_honest_audit_runs(self):
        result = audit_protocol(
            worst_case_graph(6), num_trials=40, num_bins=8, seed=0
        )
        assert result.num_trials == 40
        assert result.epsilon_lower_bound >= 0.0
        assert result.claimed_epsilon == 2.0
        assert result.realized_epsilon == 2.0
        assert result.view_divergence is not None
        assert result.view_threshold > 0.0

    def test_node_mode_runs(self):
        result = audit_protocol(
            worst_case_graph(6),
            mode="node",
            node_dp=True,
            num_trials=40,
            num_bins=8,
            audit_views=False,
        )
        assert result.mode == "node"
        assert result.node_dp
        assert result.view_divergence is None

    def test_planted_bug_raises_realized_epsilon(self):
        result = audit_protocol(
            worst_case_graph(6),
            num_trials=40,
            num_bins=8,
            epsilon2_scale=2.0,
            audit_views=False,
        )
        assert result.realized_epsilon > result.claimed_epsilon

    def test_parameter_validation(self):
        graph = worst_case_graph(6)
        with pytest.raises(ConfigurationError):
            audit_protocol(graph, num_trials=5)
        with pytest.raises(ConfigurationError):
            audit_protocol(graph, epsilon2_scale=0.0)
        with pytest.raises(ConfigurationError):
            audit_protocol(graph, mode="bogus")


class TestAuditExperiment:
    def test_report_structure(self):
        # At toy scale the estimator starves and the planted bug passes, so
        # the gate fails typed and hands back the report it refused.
        with pytest.raises(AuditFailedError, match="half-noise bug") as failure:
            audit_experiment(num_nodes=6, num_trials=40)
        report = failure.value.report
        assert report.name == "audit"
        cases = [row["case"] for row in report.rows]
        assert cases == ["honest", "honest", "half-noise bug"]
        honest_rows = [row for row in report.rows if row["case"] == "honest"]
        assert {row["mode"] for row in honest_rows} == {"edge", "node"}
        for row in report.rows:
            assert row["claimed_epsilon"] == 2.0
            assert isinstance(row["audited_epsilon"], float)
        # The planted bug is flagged as such in the expectation column; the
        # verdict itself is only reliable at the tuned defaults.
        (bug_row,) = [row for row in report.rows if row["case"] == "half-noise bug"]
        assert bug_row["expected"] is False
        assert bug_row["passes"] is True
        assert bug_row["realized_epsilon"] == pytest.approx(
            bug_row["claimed_epsilon"] * 1.5, rel=0.3
        )
