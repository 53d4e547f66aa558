"""Transcript equivalence: batching changes scheduling, never the wire.

The vectorised ``batched`` execution mode claims that the messages a server
observes are *exactly* the concatenation of what it would have seen running
the scalar faithful schedule — same seeds, same masked differences, bit for
bit.  Each dealer draws its material element-major, so the correlated
randomness a triple carries depends only on its position in the dealer's
stream, not on how requests are batched, which makes the claim testable:
record both servers' views through :class:`ViewRecorder` at batch size 1 and
at larger batch sizes, and compare the opening streams element-wise.

Covered for both multiplication flavours:

* three-way products (multiplication groups, the `Count` protocol), via the
  full ``FaithfulTriangleCounter`` at several batch sizes, and
* two-way products (Beaver triples), via ``secure_multiply_pair`` over a
  ``BeaverTripleDealer``.

:class:`TestPositionFixedDraws` pins what both rest on: splitting a run of
draws into any call sizes deals the same material, at every ring width.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backends import FaithfulTriangleCounter, share_adjacency_rows
from repro.core.backends.base import num_candidate_triples
from repro.core.backends.faithful import DRAW_GROUPS
from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.multiplication_groups import MG_FIELDS, MultiplicationGroupDealer
from repro.crypto.ring import DEFAULT_RING, Ring
from repro.crypto.secure_ops import secure_multiply_pair
from repro.crypto.sharing import share_vector
from repro.crypto.views import ViewRecorder
from repro.graph.generators import erdos_renyi_graph


def _count_openings(share1, share2, batch_size, dealer_seed, dealer=None):
    """Run the secure count and return (result, per-server opening streams)."""
    dealer = dealer or MultiplicationGroupDealer(seed=dealer_seed)
    views = ViewRecorder()
    counter = FaithfulTriangleCounter(
        dealer=dealer, batch_size=batch_size, views=views
    )
    result = counter.count_from_shares(share1, share2)
    streams = []
    for server_index in (1, 2):
        entries = views.view(server_index).values("mg_opening")
        # Each entry is one opening round's (e, f, g); concatenate the rounds
        # into the full per-wire streams in protocol order.
        streams.append(
            tuple(
                np.concatenate([np.atleast_1d(np.asarray(entry[wire], dtype=np.uint64)) for entry in entries])
                for wire in range(3)
            )
        )
    return result, streams


class TestThreeWayTranscriptEquivalence:
    @pytest.fixture(scope="class")
    def shares(self):
        graph = erdos_renyi_graph(10, 0.5, seed=3)
        return share_adjacency_rows(graph.adjacency_matrix(), rng=4)

    @pytest.mark.parametrize("batch_size", [2, 7, 64, 10_000])
    def test_batched_openings_concatenate_scalar_openings(self, shares, batch_size):
        share1, share2 = shares
        scalar_result, scalar_streams = _count_openings(share1, share2, 1, dealer_seed=11)
        batched_result, batched_streams = _count_openings(
            share1, share2, batch_size, dealer_seed=11
        )
        for server in (0, 1):
            for wire in range(3):
                assert np.array_equal(
                    scalar_streams[server][wire], batched_streams[server][wire]
                ), (server, wire)
        # The output shares — a deterministic function of the shares and the
        # (identical) correlated randomness — must also agree bit for bit.
        assert scalar_result.share1 == batched_result.share1
        assert scalar_result.share2 == batched_result.share2
        assert scalar_result.num_triples_processed == batched_result.num_triples_processed

    @pytest.fixture(scope="class")
    def long_run(self):
        """A graph with more candidate triples than one draw covers, and its faithful openings."""
        num_users = 31
        assert num_candidate_triples(num_users) > DRAW_GROUPS
        graph = erdos_renyi_graph(num_users, 0.3, seed=5)
        shares = share_adjacency_rows(graph.adjacency_matrix(), rng=6)
        dealer = MultiplicationGroupDealer(seed=15)
        scalar = _count_openings(*shares, 1, dealer_seed=None, dealer=dealer)
        # A faithful run crosses a draw boundary: two draws, 4096 + 399 groups.
        assert dealer.groups_issued == 2
        return shares, scalar

    @pytest.mark.parametrize(
        "batch_size", [7, DRAW_GROUPS - 1, DRAW_GROUPS, DRAW_GROUPS + 1]
    )
    def test_openings_concatenate_across_draw_boundaries(self, long_run, batch_size):
        """Batch sizes around ``DRAW_GROUPS`` put the draw boundaries elsewhere."""
        shares, (scalar_result, scalar_streams) = long_run
        dealer = MultiplicationGroupDealer(seed=15)
        batched_result, batched_streams = _count_openings(
            *shares, batch_size, dealer_seed=None, dealer=dealer
        )
        per_draw = -(-DRAW_GROUPS // batch_size) * batch_size
        assert dealer.groups_issued == -(-batched_result.num_triples_processed // per_draw)
        for server in (0, 1):
            for wire in range(3):
                assert np.array_equal(
                    scalar_streams[server][wire], batched_streams[server][wire]
                ), (server, wire)
        assert (scalar_result.share1, scalar_result.share2) == (
            batched_result.share1,
            batched_result.share2,
        )

    def test_both_servers_observe_the_same_openings(self, shares):
        share1, share2 = shares
        _, streams = _count_openings(share1, share2, 16, dealer_seed=12)
        for wire in range(3):
            assert np.array_equal(streams[0][wire], streams[1][wire])

    def test_different_dealer_seeds_change_the_transcript(self, shares):
        """Sanity: the equality above is not vacuous."""
        share1, share2 = shares
        _, streams_a = _count_openings(share1, share2, 16, dealer_seed=13)
        _, streams_b = _count_openings(share1, share2, 16, dealer_seed=14)
        assert not np.array_equal(streams_a[0][0], streams_b[0][0])


class TestTwoWayTranscriptEquivalence:
    def _openings(self, a_pair, b_pair, batch_sizes, dealer_seed):
        """Multiply two shared vectors in blocks; return the opening streams."""
        total = a_pair.share1.shape[0]
        dealer = BeaverTripleDealer(seed=dealer_seed)
        views = ViewRecorder()
        products = []
        start = 0
        for size in batch_sizes:
            stop = start + size
            triple = dealer.vector_triple((size,))
            p1, p2 = secure_multiply_pair(
                (a_pair.share1[start:stop], a_pair.share2[start:stop]),
                (b_pair.share1[start:stop], b_pair.share2[start:stop]),
                triple,
                views=views,
            )
            products.append((p1, p2))
            start = stop
        assert start == total
        streams = []
        for server_index in (1, 2):
            entries = views.view(server_index).values("beaver_opening")
            streams.append(
                tuple(
                    np.concatenate([np.atleast_1d(np.asarray(entry[wire], dtype=np.uint64)) for entry in entries])
                    for wire in range(2)
                )
            )
        return products, streams

    @pytest.fixture(scope="class")
    def operands(self):
        rng = np.random.default_rng(21)
        a = share_vector(rng.integers(0, 2, 24), rng=22)
        b = share_vector(rng.integers(0, 2, 24), rng=23)
        return a, b

    @pytest.mark.parametrize("blocks", [[8, 8, 8], [24], [1, 23], [5, 7, 12]])
    def test_blocked_openings_concatenate_scalar_openings(self, operands, blocks):
        a, b = operands
        scalar_products, scalar_streams = self._openings(a, b, [1] * 24, dealer_seed=31)
        blocked_products, blocked_streams = self._openings(a, b, blocks, dealer_seed=31)
        for server in (0, 1):
            for wire in range(2):
                assert np.array_equal(
                    scalar_streams[server][wire], blocked_streams[server][wire]
                ), (server, wire)
        # Identical randomness -> identical product shares, element for element.
        scalar_flat1 = np.concatenate([np.atleast_1d(p1) for p1, _ in scalar_products])
        blocked_flat1 = np.concatenate([np.atleast_1d(p1) for p1, _ in blocked_products])
        assert np.array_equal(scalar_flat1, blocked_flat1)
        # And the products are correct: reconstruct and compare to plaintext.
        ring = DEFAULT_RING
        plain_a = ring.add(a.share1, a.share2)
        plain_b = ring.add(b.share1, b.share2)
        scalar_flat2 = np.concatenate([np.atleast_1d(p2) for _, p2 in scalar_products])
        assert np.array_equal(ring.add(scalar_flat1, scalar_flat2), ring.mul(plain_a, plain_b))


RING_WIDTHS = [2, 25, 26, 32, 33, 63, 64]
SPLITS = [[24], [1] * 24, [1, 23], [23, 1], [5, 7, 12], [8, 8, 8], [2, 3, 19]]


def _group_fields(pair):
    """Both servers' fields of a group batch, flattened to ``(14, size)``."""
    return np.stack(
        [
            np.atleast_1d(np.asarray(getattr(half, name), dtype=np.uint64)).ravel()
            for half in (pair.server1, pair.server2)
            for name in MG_FIELDS
        ]
    )


def _triple_fields(pair):
    """Both servers' shares of a triple batch, flattened to ``(6, size)``."""
    return np.stack(
        [
            np.atleast_1d(np.asarray(getattr(half, name), dtype=np.uint64)).ravel()
            for half in (pair.server1, pair.server2)
            for name in "xyz"
        ]
    )


class TestPositionFixedDraws:
    """A dealt item's material depends only on its position in the dealer's stream."""

    @pytest.mark.parametrize("bits", RING_WIDTHS)
    @pytest.mark.parametrize("split", SPLITS, ids=str)
    def test_group_draws_split_into_any_call_sizes(self, bits, split):
        ring = Ring(bits)
        whole = _group_fields(MultiplicationGroupDealer(ring, seed=41).vector_group((24,)))
        dealer = MultiplicationGroupDealer(ring, seed=41)
        parts = np.concatenate(
            [_group_fields(dealer.vector_group((size,))) for size in split], axis=1
        )
        assert np.array_equal(whole, parts)
        assert dealer.groups_issued == len(split)

    @pytest.mark.parametrize("bits", RING_WIDTHS)
    @pytest.mark.parametrize("split", SPLITS, ids=str)
    def test_triple_draws_split_into_any_call_sizes(self, bits, split):
        ring = Ring(bits)
        whole_dealer = BeaverTripleDealer(ring, seed=42)
        whole = _triple_fields(whole_dealer.vector_triple((24,)))
        dealer = BeaverTripleDealer(ring, seed=42)
        parts = np.concatenate(
            [_triple_fields(dealer.vector_triple((size,))) for size in split], axis=1
        )
        assert np.array_equal(whole, parts)
        assert dealer.triples_issued == len(split)
        assert dealer.total_triple_elements == whole_dealer.total_triple_elements == 3 * 24

    @pytest.mark.parametrize("bits", RING_WIDTHS)
    def test_scalars_and_shapes_are_the_same_stream(self, bits):
        """A scalar is the size-one draw; a shaped batch is the flat draw reshaped."""
        ring = Ring(bits)
        whole_groups = _group_fields(MultiplicationGroupDealer(ring, seed=43).vector_group((6,)))
        dealer = MultiplicationGroupDealer(ring, seed=43)
        scalar = dealer.scalar_group()
        assert all(type(getattr(scalar.server1, name)) is int for name in MG_FIELDS)
        shaped = dealer.vector_group((1, 5))
        assert shaped.server2.q.shape == (1, 5)
        assert np.array_equal(
            whole_groups, np.concatenate([_group_fields(scalar), _group_fields(shaped)], axis=1)
        )
        whole_triples = _triple_fields(BeaverTripleDealer(ring, seed=44).vector_triple((6,)))
        beaver = BeaverTripleDealer(ring, seed=44)
        scalar = beaver.scalar_triple()
        assert type(scalar.server2.z) is int
        assert np.array_equal(
            whole_triples,
            np.concatenate(
                [_triple_fields(scalar), _triple_fields(beaver.vector_triple((5, 1)))], axis=1
            ),
        )

    @pytest.mark.parametrize("bits", RING_WIDTHS)
    def test_draws_are_valid_material(self, bits):
        ring = Ring(bits)
        x, y, z, w, o, p, q = MultiplicationGroupDealer(ring, seed=45).vector_group((3, 3)).plaintext()
        assert np.array_equal(o, ring.mul(x, y))
        assert np.array_equal(p, ring.mul(x, z))
        assert np.array_equal(q, ring.mul(y, z))
        assert np.array_equal(w, ring.mul(ring.mul(x, y), z))
        pair = BeaverTripleDealer(ring, seed=46).vector_triple((2, 5))
        x, y, z = pair.plaintext()
        assert np.array_equal(z, ring.mul(x, y))
        for half in (pair.server1, pair.server2):
            assert all(int(np.max(getattr(half, name))) <= ring.mask for name in "xyz")

    def test_draws_differ_across_seeds_and_positions(self):
        first = MultiplicationGroupDealer(seed=47)
        a, b = first.vector_group((8,)), first.vector_group((8,))
        c = MultiplicationGroupDealer(seed=48).vector_group((8,))
        assert not np.array_equal(_group_fields(a), _group_fields(b))
        assert not np.array_equal(_group_fields(a), _group_fields(c))


class TestWorkerCountTranscriptEquivalence:
    """The worker count never moves a value on the wire.

    Every backend runs one execution path; the default (one worker) and any
    larger pool must open the same streams bit for bit.
    """

    @staticmethod
    def _rows():
        return erdos_renyi_graph(14, 0.5, seed=9).adjacency_matrix()

    @pytest.fixture(scope="class")
    def shares(self):
        return share_adjacency_rows(self._rows(), rng=10)

    def _faithful_openings(self, shares, workers, batch_size):
        from repro.core.backends import create_backend
        from repro.core.config import CargoConfig

        share1, share2 = shares
        views = ViewRecorder()
        counter = create_backend(
            "batched",
            CargoConfig(batch_size=batch_size, workers=workers),
            dealer_rng=61,
            views=views,
        )
        result = counter.count_from_shares(share1, share2)
        entries = views.view(1).values("mg_opening")
        return result, tuple(
            np.concatenate(
                [np.atleast_1d(np.asarray(entry[w], dtype=np.uint64)) for entry in entries]
            )
            for w in range(3)
        )

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("batch_size", [5, 64])
    def test_engine_openings_equal_default(self, shares, workers, batch_size):
        default_result, default_stream = self._faithful_openings(shares, None, batch_size)
        engine_result, engine_stream = self._faithful_openings(shares, workers, batch_size)
        for wire in range(3):
            assert np.array_equal(default_stream[wire], engine_stream[wire]), wire
        assert default_result.share1 == engine_result.share1
        assert default_result.share2 == engine_result.share2

    def test_blocked_engine_openings_pinned_across_workers(self):
        from repro.core.backends import BlockedMatrixTriangleCounter
        from repro.crypto.beaver import BeaverTripleDealer

        from repro.core.backends.blocked import INPUT_LABEL

        rows = self._rows()

        def openings(workers):
            views = ViewRecorder()
            counter = BlockedMatrixTriangleCounter(
                dealer=BeaverTripleDealer(seed=62),
                block_size=4,
                views=views,
                workers=workers,
            )
            result = counter.count(rows, rng=10)
            entries = views.view(1).entries
            assert [entry.label for entry in entries] == [INPUT_LABEL, "finish_opening"]
            stream = [
                np.atleast_1d(np.asarray(part, dtype=np.uint64))
                for entry in entries
                for part in entry.value
            ]
            return result, stream

        reference_result, reference_stream = openings(1)
        default = BlockedMatrixTriangleCounter(
            dealer=BeaverTripleDealer(seed=62), block_size=4
        ).count(rows, rng=10)
        assert (default.share1, default.share2) == (
            reference_result.share1,
            reference_result.share2,
        )
        assert reference_result.opening_rounds == default.opening_rounds
        for workers in (2, 4):
            result, stream = openings(workers)
            assert (result.share1, result.share2) == (
                reference_result.share1,
                reference_result.share2,
            )
            assert len(stream) == len(reference_stream)
            for left, right in zip(stream, reference_stream):
                assert np.array_equal(left, right)
