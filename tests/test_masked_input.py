"""Users upload ``C`` masked, not shared: the mask-once backends' one input path.

The dealer deals the mask ``X = X_1 + X_2`` per user row: user ``i`` gets two
32-byte row seeds, one spawned from each server's mask stream, and uploads
``E_i = C_i - X_1,i - X_2,i`` to both servers.  Each server regenerates its
half of ``X`` from its own stream seed, so ``E`` is never opened.  These
tests pin what that rests on: the seeds regenerate exactly the rows the
users mask with, ``E`` is booked once per count as an upload (never as an
opening), the ledger books what crosses each link, and the counts, the
views across transports and the F-round cheater detection hold on the new
path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Cargo, CargoConfig
from repro.core.backends.base import (
    Upload,
    expand_seeds,
    pack_upper,
    upper_lengths,
    upper_offset,
)
from repro.core.backends.blocked import (
    INPUT_LABEL,
    BlockedMatrixTriangleCounter,
    all_columns,
    chunk_dealers,
    held_streams,
    input_seeds,
    mask_blocks,
    material_seeds,
    tile_schedule,
    upload_masked_input,
)
from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.mac import OpeningAuthenticator
from repro.crypto.protocol import TwoServerRuntime
from repro.crypto.ring import Ring
from repro.exceptions import CheaterDetectedError, ProtocolError, RuntimeProcessError
from repro.graph.datasets import load_dataset
from repro.runtime import run_distributed
from repro.stats.triangles import TriangleStatistic
from repro.utils.rng import seeded_rng

N = 23
BLOCK = 5


def _rows(n: int, seed: int = 0) -> np.ndarray:
    """Projected-style rows with a zero diagonal and ``a_ij`` independent of ``a_ji``."""
    rows = np.random.default_rng(seed).integers(0, 2, size=(n, n))
    np.fill_diagonal(rows, 0)
    return rows


def _dealers(n: int = N, seed: int = 9):
    return chunk_dealers(BeaverTripleDealer(seed=seed), tile_schedule(n, BLOCK))


class TestUserSeeds:
    @pytest.mark.parametrize("bits", [64, 32, 17])
    def test_seeds_regenerate_row_i_and_the_upload_is_c_minus_x(self, bits):
        ring = Ring(bits=bits)
        rows = _rows(N)
        dealers = _dealers()
        seeds = input_seeds(dealers, N)
        assert seeds.shape == (N, 2, 4) and seeds.dtype == np.uint64
        masked, users = upload_masked_input(rows, seeds, ring)
        assert masked.shape == (N * (N - 1) // 2,)
        schedule = tile_schedule(N, BLOCK)
        everything = all_columns(schedule)
        halves = []
        for role in (1, 2):
            # The server's own stream seed spawns exactly the users' seeds.
            held = held_streams(material_seeds(dealers, role), ring, schedule)[0]
            assert np.array_equal(held.row_seeds(N), seeds[:, role - 1])
            half = expand_seeds(seeds[:, role - 1], upper_lengths(N), ring)
            assert np.array_equal(users[role - 1], half)
            for i in range(N):
                row = half[upper_offset(N, i, i + 1) : upper_offset(N, i, N)]
                # User i's row of X_r is her own seed's first n - 1 - i draws.
                expected = ring.random_array((N - 1 - i,), seeded_rng(seeds[i, role - 1]))
                assert np.array_equal(row, expected)
            # The server's column blocks are the same rows, regenerated.
            blocks = mask_blocks(seeds[:, role - 1], schedule, ring)
            assert list(blocks) == [c0 for c0, _, _ in everything]
            matrix = np.zeros((N, N), dtype=np.uint64)
            matrix[np.triu_indices(N, 1)] = half
            for c0, c1, height in everything:
                window = matrix[:height, c0:c1]
                expected = window[np.triu(np.ones((N, N), dtype=bool), 1)[:height, c0:c1]]
                assert np.array_equal(blocks[c0], expected)
            halves.append(half)
        # E_i = C_i - X_1,i - X_2,i, one-sided rows included.
        assert np.any(rows != rows.T)
        secret = ring.add(masked, ring.add(*halves))
        assert np.array_equal(secret, ring.encode(pack_upper(rows)))

    def test_users_seeds_are_distinct_spawned_children(self):
        dealers = _dealers()
        seeds = input_seeds(dealers, N)
        for role, stream in enumerate(dealers[0].streams()):
            children = np.random.SeedSequence([int(word) for word in stream.seed]).spawn(N)
            for i, child in enumerate(children):
                assert np.array_equal(seeds[i, role], child.generate_state(4, np.uint64))
        flat = seeds.reshape(-1, 4)
        assert len({tuple(row) for row in flat.tolist()}) == 2 * N

    def test_seeds_of_another_shape_are_refused(self):
        with pytest.raises(ProtocolError, match="input masks"):
            upload_masked_input(_rows(4), np.zeros((4, 4), dtype=np.uint64), Ring(bits=64))


class TestLedger:
    @pytest.mark.parametrize("n", [2, 9, 30])
    def test_upload_books_e_to_both_servers_and_the_seeds_to_each_user(self, n):
        runtime = TwoServerRuntime(n)
        seeds = input_seeds(_dealers(n), n)
        upload_masked_input(_rows(n), seeds, Ring(bits=64), runtime)
        assert runtime.ledger.summary() == {
            "dealer->users": {"messages": n, "bytes": 64 * n},
            "users->S1": {"messages": n, "bytes": 4 * n * (n - 1)},
            "users->S2": {"messages": n, "bytes": 4 * n * (n - 1)},
        }
        assert runtime.ledger.phase_summary() == {
            "adjacency_share": {"messages": 2 * n, "bytes": 8 * n * (n - 1)},
            "input_masks": {"messages": n, "bytes": 64 * n},
        }

    @pytest.mark.parametrize("distributed", [False, True])
    def test_release_ledger(self, distributed):
        n = 30
        result = Cargo(
            CargoConfig(
                seed=4,
                counting_backend="blocked",
                block_size=BLOCK,
                track_communication=True,
                distributed=distributed,
            )
        ).run(load_dataset("facebook", num_nodes=n))
        # S1 also receives the noisy degrees; both receive the noise shares.
        assert result.communication["users->S1"]["messages"] == 3 * n
        assert result.communication["users->S2"]["messages"] == 2 * n
        assert result.communication["dealer->users"] == {"messages": n, "bytes": 64 * n}
        assert result.communication_phases["adjacency_share"] == {
            "messages": 2 * n,
            "bytes": 8 * n * (n - 1),
        }


def _pinned(bits: int) -> dict:
    """A pinned ``bits``-wide ring; 17 bits still hold the release's bound."""
    return {"ring": Ring(bits=bits)}


def _release_views(graph, distributed=False, **overrides):
    config = CargoConfig(
        seed=5,
        counting_backend="blocked",
        block_size=BLOCK,
        record_views=True,
        distributed=distributed,
        **overrides,
    )
    cargo = Cargo(config)
    result = cargo.run(graph)
    return cargo.views, result.noisy_triangle_count


class TestViews:
    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("facebook", num_nodes=N)

    @pytest.mark.parametrize("authenticate", [False, True])
    @pytest.mark.parametrize("bits", [64, 32, 17])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("tile_window", [None, 1, 3])
    def test_e_is_booked_once_and_never_opened(
        self, graph, tile_window, workers, bits, authenticate
    ):
        views, _ = _release_views(
            graph,
            tile_window=tile_window,
            workers=workers,
            authenticate=authenticate,
            **_pinned(bits),
        )
        _assert_masked_input_views(views)

    @pytest.mark.parametrize("authenticate", [False, True])
    @pytest.mark.parametrize("bits", [64, 32, 17])
    def test_distributed_views_book_e_once_and_equal_in_process(self, graph, bits, authenticate):
        local_views, local = _release_views(graph, authenticate=authenticate, **_pinned(bits))
        remote_views, remote = _release_views(
            graph, distributed=True, authenticate=authenticate, **_pinned(bits)
        )
        _assert_masked_input_views(remote_views)
        assert remote == local
        for server in (1, 2):
            mine = local_views.view(server).entries
            theirs = remote_views.view(server).entries
            assert [entry.label for entry in mine] == [entry.label for entry in theirs]
            for left, right in zip(mine, theirs):
                assert len(left.value) == len(right.value)
                for a, b in zip(left.value, right.value):
                    assert np.array_equal(a, b)


def _assert_masked_input_views(views) -> None:
    for server in (1, 2):
        labels = [entry.label for entry in views.view(server).entries]
        assert labels.count(INPUT_LABEL) == 1
        assert not INPUT_LABEL.endswith("_opening")
        assert "mask_opening" not in labels
        (masked,) = views.view(server).values(INPUT_LABEL)[0]
        assert masked.shape == (N * (N - 1) // 2,)
    first, second = (views.view(server).values(INPUT_LABEL)[0][0] for server in (1, 2))
    assert np.array_equal(first, second)


class TestCounts:
    @pytest.mark.parametrize("tile_window", [None, 2])
    @pytest.mark.parametrize("n", [3, 4, 17, 40])
    def test_one_sided_rows_count_projected_count(self, n, tile_window):
        rows = _rows(n, seed=n)
        counter = BlockedMatrixTriangleCounter(block_size=4, tile_window=tile_window)
        assert counter.count(rows).reconstruct() == TriangleStatistic().projected_count(rows)

    def test_count_consumes_the_uploads_material(self):
        rows = _rows(10)
        counter = BlockedMatrixTriangleCounter(block_size=4)
        inputs = counter.upload(rows).inputs
        counter.count_from_shares(*inputs)
        with pytest.raises(ProtocolError, match="upload"):
            counter.count_from_shares(*inputs)

    def test_count_refuses_an_e_another_upload_dealt(self):
        counter = BlockedMatrixTriangleCounter(block_size=4)
        first = counter.upload(_rows(10, seed=1)).inputs
        counter.upload(_rows(10, seed=2))
        with pytest.raises(ProtocolError, match="not dealt by the last upload"):
            counter.count_from_shares(*first)

    def test_an_upload_with_given_seeds_keeps_no_material(self):
        counter = BlockedMatrixTriangleCounter(block_size=4)
        counter.upload(_rows(10))
        seeds = input_seeds(_dealers(10), 10)
        inputs = counter.upload(_rows(10), input_seeds=seeds).inputs
        with pytest.raises(ProtocolError, match="not dealt by the last upload"):
            counter.count_from_shares(*inputs)

    def test_a_copy_of_the_uploaded_e_counts(self):
        rows = _rows(12)
        counter = BlockedMatrixTriangleCounter(block_size=4)
        masked, _ = counter.upload(rows).inputs
        result = counter.count_from_shares(masked.copy(), masked.copy())
        assert result.reconstruct() == TriangleStatistic().projected_count(rows)

    def test_servers_must_receive_the_same_e(self):
        counter = BlockedMatrixTriangleCounter(block_size=4)
        masked, _ = counter.upload(_rows(10)).inputs
        other = masked.copy()
        other[0] += np.uint64(1)
        with pytest.raises(ProtocolError, match="same masked input"):
            counter.count_from_shares(masked, other)


class TestDistributedInputCheck:
    def test_servers_refuse_differing_e(self, monkeypatch):
        """A user who sends S2 another E than S1 aborts the count: the servers
        swap a digest of E before using it."""
        honest = BlockedMatrixTriangleCounter.upload

        def lying_upload(self, *args, **kwargs):
            upload = honest(self, *args, **kwargs)
            shifted = upload.sent[1].copy()
            shifted[0] += np.uint64(1 << 40)
            return Upload(sent=(upload.sent[0], shifted), inputs=upload.inputs)

        monkeypatch.setattr(BlockedMatrixTriangleCounter, "upload", lying_upload)
        config = CargoConfig(
            seed=3, counting_backend="blocked", block_size=BLOCK, distributed=True
        )
        with pytest.raises(RuntimeProcessError, match="different masked_input uploads"):
            run_distributed(load_dataset("facebook", num_nodes=N), config)


class TestCheaterDetection:
    def test_f_round_tampering_is_caught_in_both_transports(self):
        """The F opening is round 0 now; a one-sided lie in it aborts the release."""
        graph = load_dataset("facebook", num_nodes=N)

        def lie(opening):
            if opening.index == 0:
                opening.messages[0].values[0] += 1

        config = CargoConfig(
            seed=11,
            counting_backend="blocked",
            block_size=BLOCK,
            authenticator=OpeningAuthenticator(seed=11, tamper=lie),
        )
        with pytest.raises(CheaterDetectedError) as local:
            Cargo(config).run(graph)
        assert local.value.round_index == 0
        assert "finish_opening" in str(local.value)
        with pytest.raises(CheaterDetectedError) as remote:
            run_distributed(
                graph,
                CargoConfig(
                    seed=11,
                    counting_backend="blocked",
                    block_size=BLOCK,
                    authenticate=True,
                    distributed=True,
                ),
                tamper=(1, 0),
            )
        assert str(remote.value) == str(local.value)
