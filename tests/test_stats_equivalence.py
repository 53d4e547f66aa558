"""Transcript-level equivalence of the statistic registry refactor.

Two guarantees pinned here:

* ``triangles`` through the statistic registry is **bit-identical** to the
  pre-registry pipeline for every counting backend — the golden values below
  were captured from the code before :class:`~repro.core.cargo.Cargo` was
  generalised, including the per-phase communication ledger;
* each new statistic's secure kernel agrees exactly with its plaintext
  kernel on the projected rows (protocol-level parity), and the private
  estimate converges to the brute-force ground truth as ε grows.
"""

from __future__ import annotations

import pytest

from repro.core import Cargo, CargoConfig
from repro.graph import load_dataset

BACKENDS = ("faithful", "batched", "matrix", "blocked")

#: Captured from the pre-refactor pipeline with
#: CargoConfig(batch_size=64, block_size=16, track_communication=True).
#: ``noisy`` was re-captured when `Perturb` moved to integer (discrete
#: Laplace) noise; every other value is the original capture.
GOLDEN_TRIANGLES = {
    (40, 7, 2.0): {
        "noisy": 2065.0,
        "true": 2041,
        "projected": 2041,
        "dmax": 39.0,
        "messages": {
            "adjacency_share": 80,
            "noise_share": 80,
            "noisy_count_share": 2,
            "noisy_degree": 40,
            "noisy_max_degree": 40,
        },
    },
    (60, 123, 1.0): {
        "noisy": 5092.0,
        "true": 5116,
        "projected": 5116,
        "dmax": 59.0,
        "messages": {
            "adjacency_share": 120,
            "noise_share": 120,
            "noisy_count_share": 2,
            "noisy_degree": 60,
            "noisy_max_degree": 60,
        },
    },
}


class TestTriangleBitIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("cell", sorted(GOLDEN_TRIANGLES))
    def test_matches_pre_registry_pipeline(self, backend, cell):
        num_nodes, seed, epsilon = cell
        golden = GOLDEN_TRIANGLES[cell]
        graph = load_dataset("facebook", num_nodes=num_nodes)
        result = Cargo(
            CargoConfig(
                epsilon=epsilon,
                seed=seed,
                counting_backend=backend,
                batch_size=64,
                block_size=16,
                track_communication=True,
            )
        ).run(graph)
        assert result.noisy_triangle_count == golden["noisy"]
        assert result.true_triangle_count == golden["true"]
        assert result.projected_triangle_count == golden["projected"]
        assert result.noisy_max_degree == golden["dmax"]
        assert result.statistic == "triangles"
        got_messages = {
            phase: counts["messages"]
            for phase, counts in result.communication_phases.items()
        }
        expected = dict(golden["messages"])
        if backend in ("matrix", "blocked"):
            # The mask-once backends' dealer sends each user her row seeds.
            expected["input_masks"] = num_nodes
        assert got_messages == expected

    def test_aliases_mirror_triangle_fields(self):
        graph = load_dataset("facebook", num_nodes=40)
        result = Cargo(CargoConfig(epsilon=2.0, seed=7)).run(graph)
        assert result.noisy_count == result.noisy_triangle_count
        assert result.true_count == result.true_triangle_count
        assert result.projected_count == result.projected_triangle_count


class TestSecurePlaintextParity:
    """The secure kernels compute exactly their plaintext counterparts."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("statistic", ("kstars", "wedges", "4cycles"))
    def test_secure_equals_projected_at_huge_epsilon(self, backend, statistic):
        # At ε = 1e6 the Laplace noise is ≪ 0.5 with overwhelming
        # probability at this seed, so the estimate must sit on the
        # projected count (which equals the plaintext kernel's value).
        graph = load_dataset("facebook", num_nodes=30)
        result = Cargo(
            CargoConfig(
                epsilon=1e6,
                seed=5,
                statistic=statistic,
                counting_backend=backend,
                batch_size=17,
                block_size=8,
            )
        ).run(graph)
        assert result.statistic == statistic
        assert abs(result.noisy_count - result.projected_count) < 0.5

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_four_cycle_shares_reconstruct_scaled_count(self, backend, small_random_graph):
        from repro.stats import FourCycleStatistic

        statistic = FourCycleStatistic()
        config = CargoConfig(
            statistic="4cycles", counting_backend=backend, batch_size=13, block_size=7
        )
        rows = small_random_graph.adjacency_matrix()
        count_result = statistic.secure_count(
            rows, config=config, share_rng=11, dealer_rng=13
        )
        raw = count_result.reconstruct(config.ring)
        assert raw == 4 * statistic.plain_count(small_random_graph)
        assert raw == 4 * statistic.projected_count(rows)
        assert count_result.num_triples_processed == statistic.num_candidates(
            small_random_graph.num_nodes
        )

    def test_kstar_shares_reconstruct_count(self, medium_cluster_graph):
        from repro.stats import KStarStatistic

        statistic = KStarStatistic(k=3)
        config = CargoConfig(statistic="kstars", star_k=3)
        rows = medium_cluster_graph.adjacency_matrix()
        count_result = statistic.secure_count(rows, config=config, share_rng=3)
        assert count_result.reconstruct(config.ring) == statistic.plain_count(
            medium_cluster_graph
        )
        assert count_result.opening_rounds == 0  # share-only kernel

    def test_four_cycle_pair_stream_matches_matrix_path(self, small_random_graph):
        """Same shares, same count, whichever execution strategy runs."""
        from repro.stats import FourCycleStatistic

        statistic = FourCycleStatistic()
        rows = small_random_graph.adjacency_matrix()
        reconstructed = set()
        for backend, batch, block in (
            ("faithful", 1, 8),
            ("batched", 29, 8),
            ("batched", 4096, 8),
            ("matrix", 1, 8),
            ("blocked", 1, 5),
            ("blocked", 1, 64),
        ):
            config = CargoConfig(
                statistic="4cycles",
                counting_backend=backend,
                batch_size=batch,
                block_size=block,
            )
            result = statistic.secure_count(rows, config=config, share_rng=7, dealer_rng=9)
            reconstructed.add(result.reconstruct(config.ring))
        assert reconstructed == {4 * statistic.plain_count(small_random_graph)}


class TestConvergenceWithEpsilon:
    @pytest.mark.parametrize("statistic", ("triangles", "kstars", "4cycles"))
    def test_relative_error_shrinks_as_epsilon_grows(self, statistic):
        graph = load_dataset("facebook", num_nodes=60)
        errors = {}
        for epsilon in (0.5, 8.0, 1e5):
            # Average a few seeds so a lucky small-ε draw cannot invert the
            # ordering between the extreme budgets.
            trials = [
                Cargo(
                    CargoConfig(epsilon=epsilon, seed=seed, statistic=statistic)
                ).run(graph)
                for seed in (1, 2, 3)
            ]
            errors[epsilon] = sum(
                abs(r.noisy_count - r.true_count) / max(r.true_count, 1)
                for r in trials
            ) / len(trials)
        assert errors[1e5] < errors[0.5]
        assert errors[1e5] < 0.01  # essentially exact once noise vanishes
