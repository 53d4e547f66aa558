"""Seeds, not matrices: every party regenerates its halves bit for bit.

Users send server 1 a 32-byte seed per row instead of the row, and the
mask-once dealer hands each server its stream seeds and ships server 2 only
the ``Z``/``W`` corrections.  These tests pin that what a party expands from
its seeds equals what the in-process engine holds: the users' packed
shares (user ``i``'s first ``n - 1 - i`` draws of her spawned generator, or
all ``n`` for whole rows) and every
:class:`~repro.core.backends.blocked.Dealt` half, for any window.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backends.base import (
    adjacency_seeds,
    expand_seeds,
    share_adjacency_rows,
    upload_adjacency_shares,
    upper_lengths,
)
from repro.core.backends.blocked import (
    Dealt,
    RowFinish,
    all_columns,
    chunk_dealers,
    chunk_rows,
    column_blocks,
    deal_row,
    held_row,
    held_streams,
    input_seeds,
    mask_blocks,
    material_seeds,
    tile_schedule,
    upload_masked_input,
)
from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.protocol import TwoServerRuntime
from repro.crypto.ring import Ring
from repro.exceptions import DealerError, ProtocolError
from repro.utils.rng import spawn_rngs


def _rows(n: int, seed: int = 0) -> np.ndarray:
    upper = np.triu(np.random.default_rng(seed).integers(0, 2, size=(n, n)), 1)
    return upper + upper.T


class TestUserSeeds:
    @pytest.mark.parametrize("bits", [64, 32, 17])
    @pytest.mark.parametrize("n", [1, 2, 3, 64])
    def test_expanded_seeds_are_share_adjacency_rows_share1(self, n, bits):
        ring = Ring(bits=bits)
        rows = _rows(n)
        share1, share2 = share_adjacency_rows(rows, ring=ring, rng=n + bits)
        regenerated = expand_seeds(adjacency_seeds(n, n + bits), upper_lengths(n), ring)
        assert regenerated.dtype == share1.dtype
        assert np.array_equal(regenerated, share1)
        # User i's mask is her own spawned generator's first n - 1 - i draws.
        per_user = [
            ring.random_array((n - 1 - i,), rng) for i, rng in enumerate(spawn_rngs(n + bits, n))
        ]
        assert np.array_equal(np.concatenate(per_user), share1)
        upper = rows[np.triu_indices(n, 1)]
        assert np.array_equal(ring.add(share1, share2), ring.encode(upper))

    @pytest.mark.parametrize("bits", [64, 17])
    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_full_rows_expand_n_elements_per_seed(self, n, bits):
        ring = Ring(bits=bits)
        rows = _rows(n)
        share1, share2 = share_adjacency_rows(rows, ring=ring, rng=n, full_rows=True)
        regenerated = expand_seeds(adjacency_seeds(n, n), [n] * n, ring).reshape(n, n)
        assert np.array_equal(regenerated, share1)
        per_user = [ring.random_array((n,), rng) for rng in spawn_rngs(n, n)]
        assert np.array_equal(np.stack(per_user), share1)
        assert np.array_equal(ring.add(share1, share2), ring.encode(rows))

    def test_lengths_must_match_the_seeds(self):
        with pytest.raises(ProtocolError, match="3 seeds for 2 row lengths"):
            expand_seeds(adjacency_seeds(3, 0), [2, 1])

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_spawn_counter_advances_by_exactly_n(self, n):
        ring = Ring(bits=64)
        generator = np.random.default_rng(3)
        seeds, share1, _ = upload_adjacency_shares(_rows(n), ring, generator)
        assert generator.bit_generator.seed_seq.n_children_spawned == n
        assert seeds.shape == (n, 4) and seeds.dtype == np.uint64
        assert np.array_equal(expand_seeds(seeds, upper_lengths(n), ring), share1)
        share_adjacency_rows(_rows(n), ring=ring, rng=generator)
        assert generator.bit_generator.seed_seq.n_children_spawned == 2 * n

    def test_ledger_books_one_seed_per_user_for_server_one(self):
        n = 12
        runtime = TwoServerRuntime(n)
        upload_adjacency_shares(_rows(n), Ring(bits=64), 4, runtime)
        assert runtime.ledger.summary() == {
            "users->S1": {"messages": n, "bytes": 32 * n},
            "users->S2": {"messages": n, "bytes": 4 * n * (n - 1)},
        }

    def test_full_rows_ledger_books_whole_rows_for_server_two(self):
        n = 12
        runtime = TwoServerRuntime(n)
        upload_adjacency_shares(_rows(n), Ring(bits=64), 4, runtime, full_rows=True)
        assert runtime.ledger.summary()["users->S2"] == {"messages": n, "bytes": 8 * n * n}


def _same_finish(got: RowFinish, want: RowFinish) -> None:
    assert len(got.y) == len(want.y) and len(got.z) == len(want.z)
    for left, right in zip((*got.y, *got.z, got.w), (*want.y, *want.z, want.w)):
        assert np.array_equal(left, right)


class TestHeldMaterial:
    NUM_USERS = 23
    BLOCK = 5

    @pytest.mark.parametrize("window", [None, 1, 3])
    def test_servers_regenerate_the_dealt_halves(self, window):
        n, block = self.NUM_USERS, self.BLOCK
        ring = Ring(bits=64)
        schedule = tile_schedule(n, block)
        dealers = chunk_dealers(BeaverTripleDealer(ring=ring, seed=9), schedule)
        held = {
            role: held_streams(material_seeds(dealers, role), ring, schedule)
            for role in (1, 2)
        }
        # In process, the users' rows of X are kept as the servers' halves.
        _, halves = upload_masked_input(_rows(n), input_seeds(dealers, n), ring)
        masks = Dealt(*(column_blocks(half, all_columns(schedule)) for half in halves))
        for role, dealt in ((1, masks.server1), (2, masks.server2)):
            regenerated = mask_blocks(held[role][0].row_seeds(n), schedule, ring)
            assert regenerated.keys() == dealt.keys()
            assert all(np.array_equal(regenerated[c0], dealt[c0]) for c0 in dealt)
        step = window or len(schedule)
        for start in range(0, len(schedule), step):
            groups = range(start, min(start + step, len(schedule)))
            for position in range(len(chunk_rows(schedule, groups))):
                row = deal_row(schedule, groups, position, masks, dealers, ring)
                _same_finish(held_row(schedule, groups, position, held[1]), row.server1)
                correction = (row.server2.z, row.server2.w)
                _same_finish(
                    held_row(schedule, groups, position, held[2], correction), row.server2
                )

    def test_each_server_gets_its_own_seeds(self):
        n, block = self.NUM_USERS, self.BLOCK
        ring = Ring(bits=64)
        schedule = tile_schedule(n, block)
        dealers = chunk_dealers(BeaverTripleDealer(ring=ring, seed=2), schedule)
        first, second = material_seeds(dealers, 1), material_seeds(dealers, 2)
        assert first.shape == second.shape == (1 + len(schedule), 4)
        assert not np.any(np.all(first == second, axis=1))

    def test_seed_matrix_of_another_geometry_is_refused(self):
        ring = Ring(bits=64)
        schedule = tile_schedule(self.NUM_USERS, self.BLOCK)
        with pytest.raises(DealerError, match="seed matrix"):
            held_streams(np.zeros((3, 4), dtype=np.uint64), ring, schedule)
