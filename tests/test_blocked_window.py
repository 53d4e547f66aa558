"""Windowed blocked backend: bounded memory, bit-identical openings.

The ``tile_window`` pipeline deals, opens, and releases one chunk of
``(J, K)`` tile groups at a time, two opening rounds per chunk, so peak
offline-material memory is set by the window and not by ``n``.  Determinism
rests on two invariants these tests pin: column block ``c``'s mask always
comes from the same rewound sub-dealer and group ``g``'s finish material
from the ``g``-th one (regardless of which chunk they land in or whether a
chunk runs warm from a store), and subtotals plus views reduce in canonical
schedule order.  Under those invariants every window size — and every
cold/warm store combination — must reproduce the unwindowed engine's output
shares, each group's opened ``F`` tile and every opened ``E`` entry bit for
bit; only the grouping of the openings into rounds changes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Cargo, CargoConfig
from repro.core.backends import BlockedMatrixTriangleCounter, share_adjacency_rows
from repro.core.backends import blocked
from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.views import ViewRecorder
from repro.exceptions import CheckpointError, ConfigurationError, ProtocolError
from repro.graph.datasets import load_dataset
from repro.graph.triangles import count_triangles
from repro.parallel import TripleStore
from repro.resilience import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    ResilienceConfig,
    install_fault_plan,
)

NUM_USERS = 70
BLOCK_SIZE = 16


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


def _chunks(tile_window):
    schedule = blocked.tile_schedule(NUM_USERS, BLOCK_SIZE)
    window = tile_window or len(schedule)
    return schedule, [
        range(start, min(start + window, len(schedule)))
        for start in range(0, len(schedule), window)
    ]


def _openings(views, counter):
    """Per server: every opened ``E`` prefix by column block, and the ``F`` tiles in group order."""
    schedule, chunks = _chunks(counter.tile_window)
    openings = []
    for server in (1, 2):
        entries = views.view(server).entries
        assert [e.label for e in entries] == ["mask_opening", "finish_opening"] * len(chunks)
        masks, finishes = {}, []
        for chunk, mask, finish in zip(chunks, entries[::2], entries[1::2]):
            columns = blocked.chunk_columns(schedule, chunk)
            assert len(mask.value) == len(columns)
            for (c0, _, _), value in zip(columns, mask.value):
                masks.setdefault(c0, []).append(value)
            finishes.extend(finish.value)
        assert len(finishes) == len(schedule)
        openings.append((masks, finishes))
    return openings


def _assert_same_transcript(lhs, rhs):
    result_l, views_l, counter_l = lhs
    result_r, views_r, counter_r = rhs
    assert result_l.share1 == result_r.share1
    assert result_l.share2 == result_r.share2
    assert result_l.reconstruct() == result_r.reconstruct()
    assert result_l.num_triples_processed == result_r.num_triples_processed
    for side in (lhs, rhs):
        _, chunks = _chunks(side[2].tile_window)
        assert side[0].opening_rounds == 2 * len(chunks)
    for (masks_l, finishes_l), (masks_r, finishes_r) in zip(
        _openings(views_l, counter_l), _openings(views_r, counter_r)
    ):
        assert sorted(masks_l) == sorted(masks_r)
        for c0 in masks_l:
            # Every opened prefix of a column block is a prefix of its
            # longest opening, on both sides.
            values = masks_l[c0] + masks_r[c0]
            longest = max(values, key=len)
            for value in values:
                assert np.array_equal(value, longest[: len(value)]), c0
        assert len(finishes_l) == len(finishes_r)
        for tile_l, tile_r in zip(finishes_l, finishes_r):
            assert np.array_equal(tile_l, tile_r)


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
        """Windowed runs deal each group's material once, like the engine,
        and re-deal a column's mask in every chunk that reads it."""
        _, _, counter_engine = _run(shares, tile_window=None, record_views=False)
        _, _, counter_windowed = _run(shares, tile_window=3, record_views=False)
        engine_dealer = counter_engine._dealer
        windowed_dealer = counter_windowed._dealer
        schedule, chunks = _chunks(3)
        masks = [
            (c0, c1)
            for chunk in chunks
            for c0, c1, _ in blocked.chunk_columns(schedule, chunk)
        ]
        columns = set(masks)
        assert (
            windowed_dealer.triples_issued - engine_dealer.triples_issued
            == len(masks) - len(columns)
        )
        assert (
            windowed_dealer.total_triple_elements - engine_dealer.total_triple_elements
            == sum(blocked.packed_length(c0, c1, c1) for c0, c1 in masks)
            - sum(blocked.packed_length(c0, c1, c1) for c0, c1 in columns)
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

    def test_material_and_journal_keyed_by_layout(self, shares, monkeypatch):
        """Store signatures and the journal token carry the material layout."""
        signatures = []

        class RecordingStore(TripleStore):
            def get(self, signature):
                signatures.append(signature)
                return super().get(signature)

        _, _, counter = _run(shares, tile_window=3, store=RecordingStore())
        assert signatures
        assert all(("layout", blocked.LAYOUT) in sig.geometry for sig in signatures)
        token = counter._journal_token(NUM_USERS, "dealer")
        monkeypatch.setattr(blocked, "LAYOUT", "per_range")
        assert counter._journal_token(NUM_USERS, "dealer") != token

    def test_store_entry_of_another_layout_is_a_miss(self, shares, tmp_path, monkeypatch):
        """Material stored under another layout never replays into this one."""
        with monkeypatch.context() as patch:
            patch.setattr(blocked, "LAYOUT", "per_range")
            _run(shares, tile_window=3, store=TripleStore(cache_dir=str(tmp_path)))
        store = TripleStore(cache_dir=str(tmp_path))
        rerun = _run(shares, tile_window=3, store=store)
        assert store.hits == 0 and store.stats()["stores"] > 0
        _assert_same_transcript(_run(shares, tile_window=3), rerun)

    def test_journal_of_another_layout_refuses_to_resume(self, shares, tmp_path, monkeypatch):
        _, share1, share2 = shares
        resilience = ResilienceConfig(checkpoint_path=tmp_path / "tiles.ckpt", resume=True)

        def counter():
            return BlockedMatrixTriangleCounter(
                dealer=BeaverTripleDealer(seed=0),
                block_size=BLOCK_SIZE,
                tile_window=3,
                resilience=resilience,
            )

        with monkeypatch.context() as patch:
            patch.setattr(blocked, "LAYOUT", "per_range")
            plan = FaultPlan([FaultSpec("pool.task", FaultKind.CRASH, at=12)])
            with install_fault_plan(plan), pytest.raises(InjectedCrash):
                counter().count_from_shares(share1, share2)
        assert (tmp_path / "tiles.ckpt").exists()
        with pytest.raises(CheckpointError, match="refusing to resume"):
            counter().count_from_shares(share1, share2)


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
