"""Windowed blocked backend: bounded memory, bit-identical openings.

The ``tile_window`` pipeline deals, opens, and releases one chunk of
``(J, K)`` tile groups at a time, one opening round per chunk, so peak
offline-material memory is set by the window and not by ``n``.  Determinism
rests on two invariants these tests pin: column block ``c``'s mask always
comes from the users' row seeds and group ``g``'s finish material from the
``g``-th group sub-dealer (regardless of which chunk they land in), and
subtotals plus views reduce in canonical schedule order.  Under those
invariants every window size must reproduce the unwindowed engine's
output shares, the masked input ``E`` each server receives and each group's
opened ``F`` tile bit for bit; only the grouping of the openings into rounds
changes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Cargo, CargoConfig
from repro.core.backends import BlockedMatrixTriangleCounter
from repro.core.backends import blocked
from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.ring import Ring
from repro.crypto.views import ViewRecorder
from repro.exceptions import CheckpointError, ConfigurationError, ProtocolError
from repro.graph.datasets import load_dataset
from repro.graph.triangles import count_triangles
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
#: The material layout of the seeded column masks this kernel replaced.
PARENT_LAYOUT = "mask_once_seeded"


@pytest.fixture(scope="module")
def shares():
    """The graph and its rows; each count masks them with its own dealer's seeds."""
    graph = load_dataset("facebook", num_nodes=NUM_USERS)
    return graph, graph.adjacency_matrix()


def _run(shares, tile_window=None, record_views=True, seed=0):
    _, rows = shares
    views = ViewRecorder() if record_views else None
    counter = BlockedMatrixTriangleCounter(
        dealer=BeaverTripleDealer(seed=seed),
        block_size=BLOCK_SIZE,
        views=views,
        workers=1,
        tile_window=tile_window,
    )
    result = counter.count_from_shares(*counter.upload(rows).inputs)
    return result, views, counter


def _chunks(tile_window):
    schedule = blocked.tile_schedule(NUM_USERS, BLOCK_SIZE)
    window = tile_window or len(schedule)
    return schedule, [
        range(start, min(start + window, len(schedule)))
        for start in range(0, len(schedule), window)
    ]


def _openings(views, counter):
    """Per server: the masked input ``E`` it received, and the ``F`` tiles in group order."""
    schedule, chunks = _chunks(counter.tile_window)
    openings = []
    for server in (1, 2):
        entries = views.view(server).entries
        assert [e.label for e in entries] == [blocked.INPUT_LABEL] + ["finish_opening"] * len(
            chunks
        )
        (masked,) = entries[0].value
        assert masked.shape == (NUM_USERS * (NUM_USERS - 1) // 2,)
        finishes = [tile for finish in entries[1:] for tile in finish.value]
        assert len(finishes) == len(schedule)
        openings.append((masked, finishes))
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
        assert side[0].opening_rounds == len(chunks)
    for (masked_l, finishes_l), (masked_r, finishes_r) in zip(
        _openings(views_l, counter_l), _openings(views_r, counter_r)
    ):
        assert np.array_equal(masked_l, masked_r)
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
        graph, _ = shares
        result, _, _ = _run(shares, tile_window=2, record_views=False)
        assert result.reconstruct() == count_triangles(graph)

    def test_window_sizes_agree_with_each_other(self, shares):
        first = _run(shares, tile_window=2)
        second = _run(shares, tile_window=5)
        _assert_same_transcript(first, second)

    def test_dealer_accounting_matches_engine(self, shares):
        """Windowed runs deal X once, as the users' row seeds, and each
        group's material once, exactly like the engine."""
        _, _, counter_engine = _run(shares, tile_window=None, record_views=False)
        _, _, counter_windowed = _run(shares, tile_window=3, record_views=False)
        assert counter_windowed._dealer.accounting() == counter_engine._dealer.accounting()

    @pytest.mark.parametrize("tile_window", [1, 2, 7, 64])
    def test_each_window_deals_every_group_once(self, shares, tile_window):
        """Each chunk deals its own rows' material; the tallies it folds in
        add up to the engine's whatever the chunk boundaries."""
        _, _, counter_engine = _run(shares, tile_window=None, record_views=False)
        _, _, counter_windowed = _run(shares, tile_window=tile_window, record_views=False)
        assert counter_windowed._dealer.accounting() == counter_engine._dealer.accounting()


class TestJournalLayout:
    def test_journal_keyed_by_layout(self, shares, monkeypatch):
        """The tile journal's token carries the material layout."""
        _, _, counter = _run(shares, tile_window=3)
        token = counter._journal_token(NUM_USERS, "dealer")
        monkeypatch.setattr(blocked, "LAYOUT", "per_range")
        assert counter._journal_token(NUM_USERS, "dealer") != token

    @pytest.mark.parametrize(
        "field", ["num_users", "block_size", "tile_window", "ring", "dealer", "shares"]
    )
    def test_journal_token_binds_each_field(self, field):
        """A journal of another input, tiling, ring or dealer stream never matches."""
        share = np.arange(10, dtype=np.uint64)

        def token(
            num_users=NUM_USERS,
            block_size=BLOCK_SIZE,
            tile_window=3,
            ring=Ring(bits=64),
            dealer="dealer",
            shares=(share,),
        ):
            counter = BlockedMatrixTriangleCounter(
                ring=ring,
                dealer=BeaverTripleDealer(ring=ring, seed=0),
                block_size=block_size,
                workers=1,
                tile_window=tile_window,
            )
            return counter._journal_token(num_users, dealer, *shares)

        changed = {
            "num_users": NUM_USERS + 1,
            "block_size": BLOCK_SIZE // 2,
            "tile_window": 4,
            "ring": Ring(bits=32),
            "dealer": "another dealer",
            "shares": (share + np.uint64(1),),
        }
        assert token() == token()
        assert token(**{field: changed[field]}) != token()

    def test_journal_of_another_layout_refuses_to_resume(self, shares, tmp_path, monkeypatch):
        _assert_journal_of_layout_refused(shares, tmp_path, monkeypatch, "per_range")

    def test_parent_layout_journal_refuses_to_resume(self, shares, tmp_path, monkeypatch):
        assert blocked.LAYOUT != PARENT_LAYOUT
        _assert_journal_of_layout_refused(shares, tmp_path, monkeypatch, PARENT_LAYOUT)


def _assert_journal_of_layout_refused(shares, tmp_path, monkeypatch, layout):
    """A tile journal written under *layout*'s token is refused on resume."""
    _, rows = shares
    resilience = ResilienceConfig(checkpoint_path=tmp_path / "tiles.ckpt", resume=True)

    def count():
        counter = BlockedMatrixTriangleCounter(
            dealer=BeaverTripleDealer(seed=0),
            block_size=BLOCK_SIZE,
            tile_window=3,
            resilience=resilience,
        )
        return counter.count_from_shares(*counter.upload(rows).inputs)

    with monkeypatch.context() as patch:
        patch.setattr(blocked, "LAYOUT", layout)
        plan = FaultPlan([FaultSpec("pool.task", FaultKind.CRASH, at=5)])
        with install_fault_plan(plan), pytest.raises(InjectedCrash):
            count()
    assert (tmp_path / "tiles.ckpt").exists()
    with pytest.raises(CheckpointError, match="refusing to resume"):
        count()


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
        graph, _ = shares
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
