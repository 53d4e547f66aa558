"""Brute-force parity and sensitivity checks for the subgraph kernels.

The fast counting kernels (degree polynomials for k-stars, the co-degree
identity for 4-cycles) are validated against literal brute-force enumeration
on random graphs and on the structured edge cases (empty, star, complete),
and each statistic's sensitivity bound is checked empirically on neighbouring
degree-bounded graphs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro.analysis.subgraphs import (
    count_four_cycles,
    count_k_stars,
    four_cycle_sensitivity,
    private_four_cycle_count,
)
from repro.core.projection import projected_triangle_count
from repro.crypto.ring import BLAS_MIN_MULTIPLY_ADDS
from repro.graph.generators import erdos_renyi_graph
from repro.graph.graph import Graph
from repro.graph.triangles import count_triangles_matrix, count_triangles_node_iterator
from repro.stats import (
    FourCycleStatistic,
    KStarStatistic,
    TriangleStatistic,
    count_four_cycles_exact,
    count_k_stars_exact,
)


def brute_force_k_stars(graph: Graph, k: int) -> int:
    """Literal enumeration: every node with every k-subset of its neighbours."""
    total = 0
    for node in graph.nodes():
        total += sum(1 for _ in itertools.combinations(sorted(graph.neighbors(node)), k))
    return total


def brute_force_four_cycles(graph: Graph) -> int:
    """Literal enumeration over vertex 4-subsets and their three pairings."""
    total = 0
    for quad in itertools.combinations(range(graph.num_nodes), 4):
        # A 4-subset supports a 4-cycle for each way of splitting it into
        # two opposite (non-adjacent-in-the-cycle) pairs.
        for a, b, c, d in (
            (quad[0], quad[1], quad[2], quad[3]),
            (quad[0], quad[2], quad[1], quad[3]),
            (quad[0], quad[1], quad[3], quad[2]),
        ):
            if (
                graph.has_edge(a, b)
                and graph.has_edge(b, c)
                and graph.has_edge(c, d)
                and graph.has_edge(d, a)
            ):
                total += 1
    return total


EDGE_CASES = {
    "empty": Graph(8),
    "star": Graph(8, edges=[(0, leaf) for leaf in range(1, 8)]),
    "complete": Graph(
        6, edges=[(u, v) for u in range(6) for v in range(u + 1, 6)]
    ),
    "square": Graph(4, edges=[(0, 1), (1, 2), (2, 3), (3, 0)]),
    "path": Graph(5, edges=[(0, 1), (1, 2), (2, 3), (3, 4)]),
}


class TestBruteForceParity:
    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_k_stars_on_edge_cases(self, name, k):
        graph = EDGE_CASES[name]
        expected = brute_force_k_stars(graph, k)
        assert count_k_stars(graph, k) == expected
        assert count_k_stars_exact(graph.degrees(), k) == expected
        assert KStarStatistic(k=k).plain_count(graph) == expected

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_four_cycles_on_edge_cases(self, name):
        graph = EDGE_CASES[name]
        expected = brute_force_four_cycles(graph)
        assert count_four_cycles(graph) == expected
        assert count_four_cycles_exact(graph) == expected
        assert FourCycleStatistic().plain_count(graph) == expected

    def test_known_closed_forms(self):
        # K6: C(6,4) subsets × 3 cycles each = 45; star: no cycles at all.
        assert count_four_cycles(EDGE_CASES["complete"]) == 45
        assert count_four_cycles(EDGE_CASES["star"]) == 0
        # Star k-stars: hub alone contributes C(7, k), leaves C(1, k).
        assert count_k_stars(EDGE_CASES["star"], 3) == math.comb(7, 3)

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_random_graphs(self, seed):
        graph = erdos_renyi_graph(12, 0.4, seed=seed)
        assert count_four_cycles(graph) == brute_force_four_cycles(graph)
        for k in (2, 3):
            assert count_k_stars(graph, k) == brute_force_k_stars(graph, k)

    def test_projected_count_matches_plain_on_symmetric_rows(self):
        graph = erdos_renyi_graph(15, 0.35, seed=9)
        rows = graph.adjacency_matrix()
        assert FourCycleStatistic().projected_count(rows) == count_four_cycles(graph)
        assert KStarStatistic(k=2).projected_count(rows) == count_k_stars(graph, 2)


def brute_force_projected_triangles(rows: np.ndarray) -> int:
    """``sum_{i<j<k} a_ij a_ik a_jk`` by enumerating each row's later pairs."""
    total = 0
    for i in range(rows.shape[0]):
        later = [int(j) for j in np.flatnonzero(rows[i]) if j > i]
        for j, k in itertools.combinations(later, 2):
            total += int(rows[j, k])
    return total


def brute_force_cycle_walks(adjacency: np.ndarray) -> int:
    """4-cycles as closed walks on four distinct vertices, each counted 8 times."""
    neighbours = [set(np.flatnonzero(row).tolist()) for row in adjacency]
    walks = 0
    for a, around_a in enumerate(neighbours):
        for b in around_a:
            for c in neighbours[b] - {a}:
                walks += sum(1 for d in neighbours[c] - {a, b} if a in neighbours[d])
    return walks // 8


class TestEvaluationKernelsAboveCrossover:
    """The plaintext counts run their products on the BLAS ring kernel at this size."""

    NODES = 110

    def _asymmetric_rows(self, seed: int, nodes: int = NODES, density: float = 0.3) -> np.ndarray:
        rng = np.random.default_rng(seed)
        rows = (rng.random((nodes, nodes)) < density).astype(np.int64)
        assert not np.array_equal(rows, rows.T)
        return rows

    def test_size_is_above_the_crossover(self):
        assert self.NODES**3 >= BLAS_MIN_MULTIPLY_ADDS

    @pytest.mark.parametrize("seed", (0, 1))
    def test_projected_triangles_on_asymmetric_rows(self, seed):
        rows = self._asymmetric_rows(seed)
        expected = brute_force_projected_triangles(rows)
        assert projected_triangle_count(rows) == expected
        assert TriangleStatistic().projected_count(rows) == expected

    @pytest.mark.parametrize("nodes", (128, 129, 300))
    def test_projected_triangles_across_column_blocks(self, nodes):
        rows = self._asymmetric_rows(nodes, nodes=nodes, density=0.1)
        expected = brute_force_projected_triangles(rows)
        assert projected_triangle_count(rows) == expected
        assert TriangleStatistic().projected_count(rows) == expected

    @pytest.mark.parametrize("seed", (0, 1))
    def test_projected_four_cycles_on_asymmetric_rows(self, seed):
        rows = self._asymmetric_rows(seed)
        np.fill_diagonal(rows, 0)
        expected = brute_force_cycle_walks(rows * rows.T)
        assert expected > 0
        assert FourCycleStatistic().projected_count(rows) == expected

    def test_graph_counts(self):
        graph = erdos_renyi_graph(self.NODES, 0.1, seed=3)
        assert count_triangles_matrix(graph) == count_triangles_node_iterator(graph)
        assert count_four_cycles_exact(graph) == brute_force_cycle_walks(
            graph.adjacency_matrix()
        )


class TestSensitivityBounds:
    """Empirical check: one edge flip never exceeds the declared bound."""

    def _max_edge_delta(self, graph: Graph, count) -> int:
        base = count(graph)
        worst = 0
        for u in range(graph.num_nodes):
            for v in range(u + 1, graph.num_nodes):
                probe = graph.copy()
                if probe.has_edge(u, v):
                    probe.remove_edge(u, v)
                else:
                    probe.add_edge(u, v)
                worst = max(worst, abs(count(probe) - base))
        return worst

    @pytest.mark.parametrize("seed", (3, 4))
    def test_four_cycle_edge_delta_within_bound(self, seed):
        graph = erdos_renyi_graph(10, 0.5, seed=seed)
        # Adding an edge can raise a degree to d_max + 1; the bound must be
        # evaluated at the neighbouring graphs' joint degree bound.
        bound = four_cycle_sensitivity(graph.max_degree() + 1)
        assert self._max_edge_delta(graph, count_four_cycles) <= bound

    @pytest.mark.parametrize("seed", (3, 4))
    @pytest.mark.parametrize("k", (2, 3))
    def test_k_star_edge_delta_within_bound(self, seed, k):
        graph = erdos_renyi_graph(10, 0.5, seed=seed)
        statistic = KStarStatistic(k=k)
        bound = statistic.statistic_sensitivity(graph.max_degree() + 1)
        assert self._max_edge_delta(graph, statistic.plain_count) <= bound

    def test_triangle_sensitivity_passthrough(self):
        # The triangle bound must stay the raw d'_max CARGO always used —
        # the bit-identity of the refactor depends on it.
        assert TriangleStatistic().statistic_sensitivity(17.5) == 17.5

    def test_sensitivities_clamped_positive(self):
        assert four_cycle_sensitivity(0.0) == 1.0
        assert KStarStatistic(k=5).statistic_sensitivity(1.0) == 1.0
        assert FourCycleStatistic().node_sensitivity(0.0) == 1.0

    def test_private_four_cycle_release_converges(self):
        graph = erdos_renyi_graph(14, 0.5, seed=6)
        exact = count_four_cycles(graph)
        noisy = private_four_cycle_count(graph, epsilon=1e6, rng=0)
        assert abs(noisy - exact) < 0.5
