"""Tests for the LDP baselines (Local2Rounds and one-round RR)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.central_lap import CentralLaplaceTriangleCounting
from repro.baselines.local_two_rounds import LocalTwoRoundsTriangleCounting
from repro.baselines.nonprivate import NonPrivateTriangleCounting
from repro.baselines.one_round_ldp import OneRoundLdpTriangleCounting
from repro.exceptions import PrivacyError
from repro.graph.datasets import load_dataset
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.triangles import count_triangles


class TestLocalTwoRounds:
    def test_runs_and_reports_fields(self):
        graph = load_dataset("facebook", num_nodes=150)
        result = LocalTwoRoundsTriangleCounting(epsilon=2.0).run(graph, rng=0)
        assert result.true_triangle_count == count_triangles(graph)
        assert result.epsilon == 2.0
        assert result.noisy_max_degree >= 1.0
        assert np.isfinite(result.noisy_triangle_count)

    def test_estimator_is_roughly_unbiased(self):
        """Averaged over many runs the estimate should approach the truth."""
        graph = powerlaw_cluster_graph(60, 4, 0.7, seed=1)
        true_count = count_triangles(graph)
        estimates = [
            LocalTwoRoundsTriangleCounting(epsilon=3.0).run(graph, rng=seed).noisy_triangle_count
            for seed in range(60)
        ]
        assert np.mean(estimates) == pytest.approx(true_count, rel=0.35)

    def test_much_noisier_than_central(self):
        """The utility gap the paper closes: LDP error far exceeds CDP error."""
        from repro.baselines.central_lap import CentralLaplaceTriangleCounting

        graph = load_dataset("wiki", num_nodes=150)
        local_losses = [
            LocalTwoRoundsTriangleCounting(epsilon=1.0).run(graph, rng=seed).l2_loss
            for seed in range(5)
        ]
        central_losses = [
            CentralLaplaceTriangleCounting(epsilon=1.0).run(graph, rng=seed).l2_loss
            for seed in range(5)
        ]
        assert np.mean(local_losses) > 10 * np.mean(central_losses)

    def test_deterministic_given_seed(self):
        graph = powerlaw_cluster_graph(50, 3, 0.6, seed=2)
        protocol = LocalTwoRoundsTriangleCounting(epsilon=2.0)
        assert (
            protocol.run(graph, rng=3).noisy_triangle_count
            == protocol.run(graph, rng=3).noisy_triangle_count
        )

    def test_timings_include_rounds(self):
        graph = powerlaw_cluster_graph(40, 3, 0.6, seed=4)
        result = LocalTwoRoundsTriangleCounting(epsilon=2.0).run(graph, rng=5)
        assert {"round1", "round2", "project", "total"} <= set(result.timings)

    def test_invalid_epsilon(self):
        with pytest.raises(PrivacyError):
            LocalTwoRoundsTriangleCounting(epsilon=0)

    def test_invalid_split(self):
        with pytest.raises(PrivacyError):
            LocalTwoRoundsTriangleCounting(epsilon=1.0, split=(0.5, 0.5, 0.5))
        with pytest.raises(PrivacyError):
            LocalTwoRoundsTriangleCounting(epsilon=1.0, split=(1.0, -0.5, 0.5))
        with pytest.raises(PrivacyError):
            LocalTwoRoundsTriangleCounting(epsilon=1.0, split=(0.5, 0.5))


class TestOneRoundLdp:
    def test_runs(self):
        graph = powerlaw_cluster_graph(60, 4, 0.7, seed=6)
        result = OneRoundLdpTriangleCounting(epsilon=2.0).run(graph, rng=7)
        assert result.true_triangle_count == count_triangles(graph)
        assert np.isfinite(result.noisy_triangle_count)

    def test_roughly_unbiased(self):
        graph = powerlaw_cluster_graph(50, 4, 0.7, seed=8)
        true_count = count_triangles(graph)
        estimates = [
            OneRoundLdpTriangleCounting(epsilon=4.0).run(graph, rng=seed).noisy_triangle_count
            for seed in range(40)
        ]
        assert np.mean(estimates) == pytest.approx(true_count, rel=0.4)

    def test_noisier_than_central(self):
        from repro.baselines.central_lap import CentralLaplaceTriangleCounting

        graph = load_dataset("hepph", num_nodes=150)
        one_round = [
            OneRoundLdpTriangleCounting(epsilon=1.0).run(graph, rng=seed).l2_loss
            for seed in range(5)
        ]
        central = [
            CentralLaplaceTriangleCounting(epsilon=1.0).run(graph, rng=seed).l2_loss
            for seed in range(5)
        ]
        assert np.mean(one_round) > np.mean(central)

    def test_invalid_epsilon(self):
        with pytest.raises(PrivacyError):
            OneRoundLdpTriangleCounting(epsilon=-1)


class TestNonPrivate:
    def test_exact(self, complete_graph):
        result = NonPrivateTriangleCounting().run(complete_graph)
        assert result.noisy_triangle_count == result.true_triangle_count == 20
        assert result.l2_loss == 0.0
        assert result.relative_error == 0.0


@pytest.mark.parametrize(
    "baseline, phases",
    [
        (CentralLaplaceTriangleCounting(epsilon=1.0), {"total", "count", "perturb"}),
        (LocalTwoRoundsTriangleCounting(epsilon=1.0), {"total", "project", "round1", "round2"}),
        (OneRoundLdpTriangleCounting(epsilon=1.0), {"total"}),
        (NonPrivateTriangleCounting(), {"total"}),
    ],
)
def test_timings_key_set_is_pinned(baseline, phases):
    """Each baseline times exactly its phases, one span per phase."""
    result = baseline.run(load_dataset("facebook", num_nodes=30), rng=0)
    assert set(result.timings) == phases
    assert all(seconds >= 0.0 for seconds in result.timings.values())
