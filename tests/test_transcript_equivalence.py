"""Transcript equivalence: batching changes scheduling, never the wire.

The vectorised ``batched`` execution mode claims that the messages a server
observes are *exactly* the concatenation of what it would have seen running
the scalar faithful schedule — same seeds, same masked differences, bit for
bit.  With the dealers' buffered (provisioned) mode the correlated
randomness a triple carries depends only on its position in the provisioned
stream, not on how requests are batched, which makes the claim testable:
record both servers' views through :class:`ViewRecorder` at batch size 1 and
at larger batch sizes, and compare the opening streams element-wise.

Covered for both multiplication flavours:

* three-way products (multiplication groups, the `Count` protocol), via the
  full ``FaithfulTriangleCounter`` at several batch sizes, and
* two-way products (Beaver triples), via ``secure_multiply_pair`` over a
  provisioned ``BeaverTripleDealer``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backends import FaithfulTriangleCounter, share_adjacency_rows
from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.multiplication_groups import MultiplicationGroupDealer
from repro.crypto.ring import DEFAULT_RING
from repro.crypto.secure_ops import secure_multiply_pair
from repro.crypto.sharing import share_vector
from repro.crypto.views import ViewRecorder
from repro.graph.generators import erdos_renyi_graph


def _count_openings(share1, share2, batch_size, dealer_seed):
    """Run the secure count and return (result, per-server opening streams)."""
    dealer = MultiplicationGroupDealer(seed=dealer_seed)
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
        dealer.provision_vector(total)
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


class TestProvisionedDealerAccounting:
    def test_group_accounting_matches_unbuffered(self):
        provisioned = MultiplicationGroupDealer(seed=41)
        provisioned.provision(12)
        unbuffered = MultiplicationGroupDealer(seed=41)
        for size in (5, 4, 3):
            provisioned.vector_group((size,))
            unbuffered.vector_group((size,))
        assert provisioned.groups_issued == unbuffered.groups_issued == 3
        assert provisioned.provisioned_remaining == 0

    def test_triple_accounting_matches_unbuffered(self):
        provisioned = BeaverTripleDealer(seed=42)
        provisioned.provision_vector(10)
        unbuffered = BeaverTripleDealer(seed=42)
        for shape in ((4,), (2, 3)):
            provisioned.vector_triple(shape)
            unbuffered.vector_triple(shape)
        assert provisioned.triples_issued == unbuffered.triples_issued == 2
        assert provisioned.total_triple_elements == unbuffered.total_triple_elements
        assert provisioned.largest_triple_elements == unbuffered.largest_triple_elements

    def test_provisioned_groups_are_valid(self):
        dealer = MultiplicationGroupDealer(seed=43)
        dealer.provision(9)
        pair = dealer.vector_group((3, 3))
        x, y, z, w, o, p, q = pair.plaintext()
        ring = dealer.ring
        assert np.array_equal(o, ring.mul(x, y))
        assert np.array_equal(p, ring.mul(x, z))
        assert np.array_equal(q, ring.mul(y, z))
        assert np.array_equal(w, ring.mul(ring.mul(x, y), z))

    def test_provisioned_matrix_triples_are_valid(self):
        dealer = BeaverTripleDealer(seed=44)
        dealer.provision_matrix((3, 4), (4, 2), count=2)
        issued_before = dealer.triples_issued
        pair = dealer.matrix_triple((3, 4), (4, 2))
        x, y, z = pair.plaintext()
        assert np.array_equal(z, dealer.ring.matmul(x, y))
        assert dealer.triples_issued == issued_before + 1

    def test_overshooting_a_partial_pool_raises(self):
        """A request larger than the remaining pool must not bypass it."""
        from repro.exceptions import DealerError

        dealer = MultiplicationGroupDealer(seed=46)
        dealer.provision(5)
        with pytest.raises(DealerError):
            dealer.vector_group((8,))
        beaver = BeaverTripleDealer(seed=46)
        beaver.provision_vector(5)
        with pytest.raises(DealerError):
            beaver.vector_triple((8,))
        # Draining the pool restores fresh dealing.
        dealer.vector_group((5,))
        assert dealer.vector_group((8,)).server1.x.shape == (8,)

    def test_provision_appends_and_requests_span_chunk_boundaries(self):
        """Chunked provisioning serves one continuous mask stream."""
        chunked = MultiplicationGroupDealer(seed=45)
        chunked.provision(5)
        chunked.provision(5)
        whole = MultiplicationGroupDealer(seed=45)
        whole.provision(5)
        whole.provision(5)
        # 4 + 4 + 2: the second request spans the 5/5 boundary.
        a = [chunked.vector_group((s,)) for s in (4, 4, 2)]
        b = [whole.vector_group((s,)) for s in (2, 2, 2, 2, 2)]
        flat_a = np.concatenate([np.atleast_1d(pair.server1.x) for pair in a])
        flat_b = np.concatenate([np.atleast_1d(pair.server1.x) for pair in b])
        assert np.array_equal(flat_a, flat_b)
        assert chunked.provisioned_remaining == 0


class TestMultiChunkTranscriptEquivalence:
    """The batch-size independence must survive chunked provisioning."""

    @pytest.mark.parametrize("batch_size", [3, 7, 50])
    def test_openings_identical_across_batch_sizes_with_small_chunks(self, batch_size):
        """n=10 -> 120 triples; provision_limit=40 forces three chunks whose
        boundaries align with no batch size, so requests span chunks."""
        graph = erdos_renyi_graph(10, 0.5, seed=6)
        share1, share2 = share_adjacency_rows(graph.adjacency_matrix(), rng=7)

        def openings(size):
            dealer = MultiplicationGroupDealer(seed=51)
            views = ViewRecorder()
            counter = FaithfulTriangleCounter(
                dealer=dealer, batch_size=size, views=views, provision_limit=40
            )
            result = counter.count_from_shares(share1, share2)
            entries = views.view(1).values("mg_opening")
            return result, tuple(
                np.concatenate([np.atleast_1d(np.asarray(entry[w], dtype=np.uint64)) for entry in entries])
                for w in range(3)
            )

        scalar_result, scalar_stream = openings(1)
        batched_result, batched_stream = openings(batch_size)
        for wire in range(3):
            assert np.array_equal(scalar_stream[wire], batched_stream[wire]), wire
        assert scalar_result.share1 == batched_result.share1
        assert scalar_result.share2 == batched_result.share2


class TestWorkerCountTranscriptEquivalence:
    """The worker count never moves a value on the wire.

    Every backend runs one execution path; the default (one worker) and any
    larger pool must open the same streams bit for bit.
    """

    @pytest.fixture(scope="class")
    def shares(self):
        graph = erdos_renyi_graph(14, 0.5, seed=9)
        return share_adjacency_rows(graph.adjacency_matrix(), rng=10)

    def _faithful_openings(self, shares, workers, batch_size):
        share1, share2 = shares
        dealer = MultiplicationGroupDealer(seed=61)
        views = ViewRecorder()
        counter = FaithfulTriangleCounter(
            dealer=dealer,
            batch_size=batch_size,
            views=views,
            **({} if workers is None else {"workers": workers}),
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

    def test_blocked_engine_openings_pinned_across_workers(self, shares):
        from repro.core.backends import BlockedMatrixTriangleCounter
        from repro.crypto.beaver import BeaverTripleDealer

        share1, share2 = shares

        def openings(workers):
            views = ViewRecorder()
            counter = BlockedMatrixTriangleCounter(
                dealer=BeaverTripleDealer(seed=62),
                block_size=4,
                views=views,
                workers=workers,
            )
            result = counter.count_from_shares(share1, share2)
            stream = [
                np.atleast_1d(np.asarray(part, dtype=np.uint64))
                for entry in views.view(1).values("matrix_beaver_opening")
                for part in entry
            ]
            return result, stream

        reference_result, reference_stream = openings(1)
        default = BlockedMatrixTriangleCounter(
            dealer=BeaverTripleDealer(seed=62), block_size=4
        ).count_from_shares(share1, share2)
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
