"""Users share C, not A: the packed strict upper triangle the triangle path holds.

Algorithm 4 reads ``a_ij`` only for ``j > i``, so user ``i`` shares just those
``n - 1 - i`` entries and each server holds one packed row-major vector of
``n (n - 1) / 2``.  These tests pin what the packing relies on: the closed-form
offset, that one-sided projected rows (``a_ij != a_ji``) still count exactly
``statistic.projected_count`` on every backend, in process and distributed,
and what crosses each link.
"""

from __future__ import annotations

import doctest

import numpy as np
import pytest

from repro.core.backends.base import (
    pack_upper,
    server1_share,
    upload_adjacency_shares,
    upper_offset,
)
from repro.core.backends.blocked import BlockedMatrixTriangleCounter
from repro.core.backends.registry import create_backend
from repro.core.cargo import Cargo
from repro.core.config import CargoConfig
from repro.core.projection import ProjectionResult, SimilarityProjection
from repro.crypto.protocol import TwoServerRuntime
from repro.crypto.ring import Ring
from repro.graph.datasets import load_dataset
from repro.graph.generators import erdos_renyi_graph
from repro.runtime import driver, run_distributed
from repro.stats.triangles import TriangleStatistic

SIZES = (3, 4, 5, 17, 40)

#: ``(registry name, config overrides)`` of every triangle backend.
BACKENDS = (
    ("faithful", {}),
    ("batched", {"batch_size": 7}),
    ("matrix", {}),
    ("blocked", {"block_size": 4}),
    ("blocked", {"block_size": 4, "tile_window": 1}),
    ("blocked", {"block_size": 4, "tile_window": 3}),
)


def one_sided_rows(n: int, seed: int = 0) -> np.ndarray:
    """Random projected rows with a zero diagonal: ``a_ij`` and ``a_ji`` independent."""
    rows = np.random.default_rng(seed).integers(0, 2, size=(n, n))
    np.fill_diagonal(rows, 0)
    return rows


def upper_rows(packed: np.ndarray, n: int) -> list:
    """The packed triangle's rows, one view per user (the last one empty)."""
    return [packed[upper_offset(n, i, i + 1) : upper_offset(n, i, n)] for i in range(n)]


class TestOffsets:
    def test_offset_doctest(self):
        tests = doctest.DocTestFinder().find(upper_offset, globs={"upper_offset": upper_offset})
        runner = doctest.DocTestRunner()
        for test in tests:
            runner.run(test)
        result = runner.summarize(verbose=False)
        assert result.attempted > 0 and result.failed == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 17])
    def test_offsets_walk_the_triangle_row_by_row(self, n):
        i, j = np.triu_indices(n, 1)
        assert np.array_equal(upper_offset(n, i, j), np.arange(n * (n - 1) // 2))

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17])
    def test_pack_unpack_round_trip(self, n):
        matrix = np.arange(n * n).reshape(n, n)
        packed = pack_upper(matrix)
        assert packed.shape == (n * (n - 1) // 2,)
        rows = upper_rows(packed, n)
        assert len(rows) == n
        unpacked = np.zeros_like(matrix)
        for i, row in enumerate(rows):
            assert np.array_equal(row, matrix[i, i + 1 :])
            unpacked[i, i + 1 :] = row
        assert np.array_equal(unpacked, np.triu(matrix, 1))


class TestUpload:
    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_server_two_gets_n_minus_1_minus_i_entries_per_user(self, n):
        runtime = TwoServerRuntime(n)
        seeds, share1, share2 = upload_adjacency_shares(
            one_sided_rows(n), Ring(bits=64), 1, runtime
        )
        assert share1.shape == share2.shape == (n * (n - 1) // 2,)
        rows = upper_rows(share2, n)
        assert [row.size for row in rows] == [n - 1 - i for i in range(n)]
        assert rows[-1].size == 0
        assert runtime.ledger.summary()["users->S2"] == {
            "messages": n,
            "bytes": 4 * n * (n - 1),
        }
        assert seeds.shape == (n, 4)

    @pytest.mark.parametrize("n", [3, 40])
    def test_spawn_counter_advances_by_exactly_n(self, n):
        generator = np.random.default_rng(8)
        upload_adjacency_shares(one_sided_rows(n), Ring(bits=64), generator)
        assert generator.bit_generator.seed_seq.n_children_spawned == n

    @pytest.mark.parametrize("bits", [64, 32, 17])
    @pytest.mark.parametrize("n", [3, 17, 40])
    def test_server_one_expands_the_users_share(self, n, bits):
        ring = Ring(bits=bits)
        rows = one_sided_rows(n)
        seeds, share1, share2 = upload_adjacency_shares(rows, ring, n + bits)
        assert np.array_equal(server1_share(seeds, ring), share1)
        assert np.array_equal(
            ring.add(share1, share2), ring.encode(rows[np.triu_indices(n, 1)])
        )


class TestOneSidedCounts:
    @pytest.mark.parametrize("name, overrides", BACKENDS)
    @pytest.mark.parametrize("n", SIZES)
    def test_every_backend_counts_the_projected_rows(self, n, name, overrides):
        rows = one_sided_rows(n, seed=n)
        assert np.any(rows != rows.T)
        config = CargoConfig(counting_backend=name, **overrides)
        counter = create_backend(name, config=config, dealer_rng=n)
        result = counter.count(rows, rng=n + 1)
        assert result.reconstruct() == TriangleStatistic().projected_count(rows)

    def test_cargo_hands_the_backend_packed_shares(self, monkeypatch):
        seen = []
        original = BlockedMatrixTriangleCounter.count_from_shares

        def spy(self, share1, share2):
            seen.append((share1.shape, share2.shape))
            return original(self, share1, share2)

        monkeypatch.setattr(BlockedMatrixTriangleCounter, "count_from_shares", spy)
        graph = load_dataset("facebook", num_nodes=30)
        Cargo(CargoConfig(seed=1, counting_backend="blocked", block_size=8)).run(graph)
        assert seen == [((30 * 29 // 2,), (30 * 29 // 2,))]


class TestDistributed:
    @pytest.mark.parametrize("backend", ["faithful", "batched", "matrix", "blocked"])
    @pytest.mark.parametrize("n", SIZES)
    def test_distributed_count_of_one_sided_rows(self, monkeypatch, n, backend):
        rows = one_sided_rows(n, seed=n)

        def project(self, graph, noisy_degrees=None):
            return ProjectionResult(rows, float(n), 0, 0)

        counts = []
        original = driver._LinkedServers.count

        def count(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            counts.append(result.reconstruct(Ring(bits=64)))
            return result

        monkeypatch.setattr(SimilarityProjection, "project_graph", project)
        monkeypatch.setattr(driver._LinkedServers, "count", count)
        # The rows bypass projection, so no degree bound holds them: the
        # ring is pinned at 64 bits instead of derived from d'_max.
        config = CargoConfig(
            seed=n, counting_backend=backend, batch_size=7, block_size=4, distributed=True,
            ring=Ring(bits=64),
        )
        result = run_distributed(erdos_renyi_graph(n, 0.5, seed=n), config)
        expected = TriangleStatistic().projected_count(rows)
        assert counts == [expected]
        assert result.projected_triangle_count == expected
