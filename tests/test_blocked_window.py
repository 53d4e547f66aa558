"""Windowed blocked backend: bounded memory, bit-identical transcripts.

The ``tile_window`` pipeline deals, evaluates, and releases one chunk of
``(J, K)`` tile groups at a time, so peak offline-material memory is set by
the window and not by ``n``.  Determinism rests on two invariants these
tests pin: group ``g`` always draws from the ``g``-th sub-dealer spawned
from the dealer's seed (regardless of which chunk it lands in or whether a
chunk runs warm from a store), and subtotals plus view shards reduce in
canonical schedule order.  Under those invariants every window size — and
every cold/warm store combination — must reproduce the unwindowed engine's
transcript bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Cargo, CargoConfig
from repro.core.backends import BlockedMatrixTriangleCounter, share_adjacency_rows
from repro.core.backends import blocked
from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.views import ViewRecorder
from repro.exceptions import ConfigurationError, ProtocolError
from repro.graph.datasets import load_dataset
from repro.graph.triangles import count_triangles
from repro.parallel import TripleStore

NUM_USERS = 70
BLOCK_SIZE = 16


def leaves_equal(x, y):
    """Element-wise equality over nested containers of arrays/scalars."""
    if isinstance(x, (tuple, list)):
        return len(x) == len(y) and all(leaves_equal(a, b) for a, b in zip(x, y))
    return np.array_equal(x, y)


@pytest.fixture(scope="module")
def shares():
    graph = load_dataset("facebook", num_nodes=NUM_USERS)
    share1, share2 = share_adjacency_rows(graph.adjacency_matrix(), rng=NUM_USERS)
    return graph, share1, share2


def _run(shares, tile_window=None, store=None, record_views=True, seed=0):
    _, share1, share2 = shares
    views = ViewRecorder() if record_views else None
    counter = BlockedMatrixTriangleCounter(
        dealer=BeaverTripleDealer(seed=seed),
        block_size=BLOCK_SIZE,
        views=views,
        workers=1,
        triple_store=store,
        tile_window=tile_window,
    )
    result = counter.count_from_shares(share1, share2)
    return result, views, counter


def _assert_same_transcript(lhs, rhs):
    result_l, views_l, _ = lhs
    result_r, views_r, _ = rhs
    assert result_l.share1 == result_r.share1
    assert result_l.share2 == result_r.share2
    assert result_l.reconstruct() == result_r.reconstruct()
    assert result_l.opening_rounds == result_r.opening_rounds
    assert result_l.num_triples_processed == result_r.num_triples_processed
    for server in (1, 2):
        entries_l = views_l.view(server).entries
        entries_r = views_r.view(server).entries
        assert [e.label for e in entries_l] == [e.label for e in entries_r]
        for entry_l, entry_r in zip(entries_l, entries_r):
            assert leaves_equal(entry_l.value, entry_r.value), (server, entry_l.label)


class TestWindowedTranscripts:
    @pytest.mark.parametrize("tile_window", [1, 3, 7, 64])
    def test_bit_identical_to_unwindowed_engine(self, shares, tile_window):
        baseline = _run(shares, tile_window=None)
        windowed = _run(shares, tile_window=tile_window)
        _assert_same_transcript(baseline, windowed)

    def test_count_matches_ground_truth(self, shares):
        graph, _, _ = shares
        result, _, _ = _run(shares, tile_window=2, record_views=False)
        assert result.reconstruct() == count_triangles(graph)

    def test_window_sizes_agree_with_each_other(self, shares):
        first = _run(shares, tile_window=2)
        second = _run(shares, tile_window=5)
        _assert_same_transcript(first, second)

    def test_dealer_accounting_matches_engine(self, shares):
        _, _, counter_engine = _run(shares, tile_window=None, record_views=False)
        _, _, counter_windowed = _run(shares, tile_window=3, record_views=False)
        engine_dealer = counter_engine._dealer
        windowed_dealer = counter_windowed._dealer
        assert (
            windowed_dealer.total_triple_elements
            == engine_dealer.total_triple_elements
        )
        assert (
            windowed_dealer.largest_triple_elements
            == engine_dealer.largest_triple_elements
        )


class TestWindowedStore:
    def test_warm_chunked_rerun_is_bit_identical(self, shares, tmp_path):
        store = TripleStore(cache_dir=str(tmp_path / "chunks"))
        cold = _run(shares, tile_window=3, store=store)
        assert store.stats()["stores"] > 0
        warm_store = TripleStore(cache_dir=str(tmp_path / "chunks"))
        warm = _run(shares, tile_window=3, store=warm_store)
        assert warm_store.hits > 0
        _assert_same_transcript(cold, warm)

    def test_mmap_store_cold_then_warm(self, shares, tmp_path):
        cache = tmp_path / "mmap-chunks"
        cold = _run(shares, tile_window=3, store=TripleStore(cache_dir=str(cache), mmap=True))
        npk_files = sorted(cache.glob("*.npk"))
        bin_files = sorted(cache.glob("*.bin"))
        assert npk_files and len(npk_files) == len(bin_files)
        warm_store = TripleStore(cache_dir=str(cache), mmap=True)
        warm = _run(shares, tile_window=3, store=warm_store)
        assert warm_store.hits > 0
        _assert_same_transcript(cold, warm)

    def test_window_geometry_keys_are_distinct(self, shares, tmp_path):
        """Different window sizes chunk the schedule differently and must
        never serve each other's material."""
        store = TripleStore(cache_dir=str(tmp_path / "chunks"))
        first = _run(shares, tile_window=2, store=store)
        second_store = TripleStore(cache_dir=str(tmp_path / "chunks"))
        second = _run(shares, tile_window=4, store=second_store)
        assert second_store.hits == 0  # no cross-geometry reuse
        _assert_same_transcript(first, second)

    def test_material_and_journal_keyed_by_fused_depth(self, shares, monkeypatch):
        """Material or a journal written under another I-range layout (a
        different fused depth) must miss cleanly, never replay."""
        signatures = []

        class RecordingStore(TripleStore):
            def get(self, signature):
                signatures.append(signature)
                return super().get(signature)

        depth = blocked.FUSED_DEPTH
        _, _, counter = _run(shares, tile_window=3, store=RecordingStore())
        assert signatures
        assert all(("fused_depth", depth) in sig.geometry for sig in signatures)
        token = counter._journal_token(NUM_USERS, "dealer")
        monkeypatch.setattr(blocked, "FUSED_DEPTH", depth // 2)
        assert counter._journal_token(NUM_USERS, "dealer") != token


class TestConfiguration:
    def test_tile_window_validation(self):
        with pytest.raises(ProtocolError, match="tile_window"):
            BlockedMatrixTriangleCounter(tile_window=0)
        with pytest.raises(ConfigurationError, match="tile_window"):
            CargoConfig(tile_window=0)

    def test_from_config_threads_window(self):
        config = CargoConfig(
            counting_backend="blocked", block_size=BLOCK_SIZE, tile_window=5
        )
        counter = BlockedMatrixTriangleCounter.from_config(config, dealer_rng=0)
        assert counter.tile_window == 5
        assert counter.block_size == BLOCK_SIZE

    def test_full_pipeline_windowed_release_matches(self, shares):
        graph, _, _ = shares
        base = CargoConfig(
            epsilon=2.0, counting_backend="blocked", block_size=BLOCK_SIZE, seed=11
        )
        windowed = CargoConfig(
            epsilon=2.0,
            counting_backend="blocked",
            block_size=BLOCK_SIZE,
            tile_window=2,
            seed=11,
        )
        result_base = Cargo(base).run(graph)
        result_windowed = Cargo(windowed).run(graph)
        assert (
            result_windowed.noisy_triangle_count == result_base.noisy_triangle_count
        )
