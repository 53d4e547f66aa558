"""Blocked/tiled secure triangle counting — the ``blocked`` backend.

The monolithic matrix backend (:mod:`repro.core.backends.matrix`) is fast but
memory-hungry: its single matrix Beaver triple materialises several ``n x n``
ring arrays at once (per server: ``X``, ``Y``, ``Z`` plus the opened ``E`` and
``F``), so the dealer's peak allocation grows quadratically with the user
count and becomes the protocol's scaling wall long before compute does.

This backend evaluates the identical matrix formulation

``T = sum_{j<k} C[j, k] * (C^T C)[j, k]``

in fixed-size tiles of ``block_size`` columns/rows.  Writing ``J, K, I`` for
``block_size``-wide index ranges, the servers compute, tile by tile,

``M_{JK} = sum_I C[I, J]^T @ C[I, K]``

with one *small* matrix Beaver triple per ``(I, J, K)`` tile, then finish each
``(J, K)`` tile with one small element-wise triple for ``C[J, K] ⊙ M_{JK}``
and a local sum.  Every product that enters the count is the same ring
multiplication the monolithic backend performs — only the grouping of the
openings differs — so the reconstructed count is bit-identical and each
opening reveals only Beaver-masked (uniformly random) values, preserving the
view-security properties.  Tiles that are structurally zero (entirely on or
below the diagonal, where the public strict-upper mask vanishes) are skipped
outright; the decision depends only on public indices.

The payoff: peak additional allocation per opening round is
``O(block_size^2)`` instead of ``O(n^2)``, and the dealer streams one tile
triple at a time instead of allocating a giant triple upfront, at the cost of
more opening rounds (``O((n / block_size)^3)`` instead of two).  Choose
``block_size`` to trade round count against memory; the default suits graphs
in the tens of thousands of users.

**Tile-parallel engine.**  The ``(J, K)`` tile groups are mutually
independent: each consumes its own correlated randomness and its openings
are pure functions of the shares and that randomness.  With
``workers >= 1`` the backend therefore (a) deals each group's triples from
a *per-group deterministic RNG substream* (spawned from the dealer's seed by
group index, never from worker interleaving), (b) fans both the dealing and
the online evaluation out over a
:class:`~repro.parallel.pool.WorkerPool`, (c) records each group's openings
into its own :class:`~repro.crypto.views.ViewRecorder` shard, and (d) merges
shards and reduces the group subtotals in canonical group order — so the
transcript, the accounting, and the output shares are bit-identical for any
worker count.  A configured :class:`~repro.parallel.store.TripleStore`
memoises the dealt group material under the run's signature, so repeated
runs, sweep cells, and streaming anchors skip the offline phase entirely.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

import numpy as np

from repro.core.backends.base import (
    CountResult,
    TriangleCounterBackend,
    num_candidate_triples,
    strict_upper,
)
from repro.core.backends.registry import register_backend
from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.ring import DEFAULT_RING, Ring
from repro.crypto.secure_ops import secure_matrix_multiply, secure_multiply_pair
from repro.crypto.views import ViewRecorder
from repro.exceptions import ProtocolError
from repro.parallel import MaterialSequence, TripleSignature, WorkerPool, resolve_workers
from repro.resilience import NULL_RESILIENCE, Checkpointer
from repro.telemetry import resolve_telemetry
from repro.utils.rng import RandomState

#: Default tile width; 128² ring elements per triple ≈ 128 KiB per array.
DEFAULT_BLOCK_SIZE = 128


@register_backend("blocked")
class BlockedMatrixTriangleCounter(TriangleCounterBackend):
    """Tile-streamed secure triangle counting with bounded peak memory.

    Parameters
    ----------
    ring:
        Secret-sharing ring.
    dealer:
        Beaver-triple dealer supplying one small triple per tile; a fresh one
        is created when not supplied.
    block_size:
        Tile width.  Peak per-opening allocation is ``O(block_size^2)``;
        smaller values bound memory tighter but cost more opening rounds.
    views:
        Optional view recorder for the security tests.
    workers:
        ``0`` (default) keeps the exact legacy serial path; ``>= 1`` engages
        the tile-parallel engine with that many worker threads (transcripts
        are bit-identical for any value ``>= 1``).
    triple_store:
        Optional :class:`~repro.parallel.store.TripleStore` memoising the
        dealt tile material (engine and windowed paths).
    tile_window:
        When set, the ``(J, K)`` tile groups are dealt, evaluated, and
        released through a bounded window of at most this many groups at a
        time, so peak offline-material memory is ``O(tile_window ·
        block_size²)`` — set by the window, not by ``n``.  Each group still
        draws from the same per-group deterministic RNG substream the engine
        assigns, and subtotals/views reduce in the same canonical schedule
        order, so transcripts are bit-identical to the unwindowed engine.
        With a *triple_store*, material is keyed per window chunk, so warm
        runs also load one chunk at a time (disk spill both ways).
    """

    def __init__(
        self,
        ring: Ring = DEFAULT_RING,
        dealer: Optional[BeaverTripleDealer] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        views: Optional[ViewRecorder] = None,
        workers: int = 0,
        triple_store=None,
        tile_window: Optional[int] = None,
        telemetry=None,
        resilience=None,
        authenticator=None,
    ) -> None:
        if block_size <= 0:
            raise ProtocolError(f"block_size must be positive, got {block_size}")
        if workers < 0:
            raise ProtocolError(f"workers must be non-negative, got {workers}")
        if tile_window is not None and tile_window < 1:
            raise ProtocolError(
                f"tile_window must be at least 1 (or None), got {tile_window}"
            )
        super().__init__(
            ring=ring, views=views, telemetry=telemetry, authenticator=authenticator
        )
        self._dealer = dealer if dealer is not None else BeaverTripleDealer(ring=ring)
        self._block_size = block_size
        self._workers = int(workers)
        self._store = triple_store
        self._tile_window = tile_window
        self._resilience = resilience if resilience is not None else NULL_RESILIENCE

    @property
    def block_size(self) -> int:
        """Tile width used for the streamed matrix products."""
        return self._block_size

    @property
    def tile_window(self) -> Optional[int]:
        """Bounded group window, or ``None`` for all-groups-at-once."""
        return self._tile_window

    @classmethod
    def from_config(
        cls,
        config,
        dealer_rng: RandomState = None,
        views: Optional[ViewRecorder] = None,
        authenticator=None,
    ) -> "BlockedMatrixTriangleCounter":
        dealer = BeaverTripleDealer(ring=config.ring, seed=dealer_rng)
        return cls(
            ring=config.ring,
            dealer=dealer,
            block_size=getattr(config, "block_size", DEFAULT_BLOCK_SIZE),
            views=views,
            workers=resolve_workers(config),
            triple_store=getattr(config, "triple_store", None),
            tile_window=getattr(config, "tile_window", None),
            telemetry=resolve_telemetry(config),
            resilience=getattr(config, "resilience", None),
            authenticator=authenticator,
        )

    def count_from_shares(self, share1: np.ndarray, share2: np.ndarray) -> CountResult:
        """Run the secure count tile by tile given each server's share matrix."""
        ring = self._ring
        share1, share2 = self._validate_share_matrices(share1, share2)
        n = share1.shape[0]
        if n < 3:
            return CountResult(share1=0, share2=0, num_triples_processed=0, opening_rounds=0)
        if self._tile_window is not None:
            return self._count_windowed(share1, share2)
        if self._workers or self._store is not None:
            # A configured triple store engages the engine too (at one
            # worker): its material is organised around the engine's tile
            # schedule, so store users get warm reruns without also having
            # to opt into parallelism.
            return self._count_parallel(share1, share2)

        blocks = [(start, min(start + self._block_size, n)) for start in range(0, n, self._block_size)]
        total1 = 0
        total2 = 0
        opening_rounds = 0
        tracer = self._telemetry.tracer

        with tracer.span(
            "backend", backend="blocked", num_users=n, block_size=self._block_size
        ) as backend_span:
            for j0, j1 in blocks:
                for k0, k1 in blocks:
                    if j0 >= k1 - 1:
                        # No pair j < k falls inside this tile (public index fact).
                        continue
                    rows_j = j1 - j0
                    cols_k = k1 - k0
                    with tracer.span("tile_group", j0=j0, k0=k0) as group_span:
                        m1 = np.zeros((rows_j, cols_k), dtype=ring.dtype)
                        m2 = np.zeros((rows_j, cols_k), dtype=ring.dtype)
                        group_rounds = 0
                        for i0, i1 in blocks:
                            if i0 >= j1 - 1:
                                # C[I, J] is structurally zero (i >= j
                                # throughout), so the tile's contribution to M
                                # is publicly zero.
                                continue
                            left1 = np.ascontiguousarray(strict_upper(share1[i0:i1, j0:j1], i0, j0).T)
                            left2 = np.ascontiguousarray(strict_upper(share2[i0:i1, j0:j1], i0, j0).T)
                            right1 = strict_upper(share1[i0:i1, k0:k1], i0, k0)
                            right2 = strict_upper(share2[i0:i1, k0:k1], i0, k0)
                            tile_triple = self._dealer.matrix_triple(
                                (rows_j, i1 - i0), (i1 - i0, cols_k)
                            )
                            partial1, partial2 = secure_matrix_multiply(
                                (left1, left2), (right1, right2), tile_triple,
                                ring=ring, views=self._views,
                                authenticator=self._authenticator,
                            )
                            m1 = ring.add(m1, partial1)
                            m2 = ring.add(m2, partial2)
                            group_rounds += 1

                        # Finish the (J, K) tile: C[J, K] ⊙ M_{JK} over the
                        # strict upper triangle, with one small element-wise
                        # triple.
                        c_tile1 = strict_upper(share1[j0:j1, k0:k1], j0, k0)
                        c_tile2 = strict_upper(share2[j0:j1, k0:k1], j0, k0)
                        elementwise_triple = self._dealer.vector_triple((rows_j, cols_k))
                        prod1, prod2 = secure_multiply_pair(
                            (c_tile1, c_tile2),
                            (strict_upper(m1, j0, k0), strict_upper(m2, j0, k0)),
                            elementwise_triple, ring=ring, views=self._views,
                            authenticator=self._authenticator,
                        )
                        total1 = ring.add(total1, ring.sum(prod1))
                        total2 = ring.add(total2, ring.sum(prod2))
                        group_rounds += 1
                        group_span.annotate(opening_rounds=group_rounds)
                    opening_rounds += group_rounds
            backend_span.annotate(opening_rounds=opening_rounds)

        num_triples = num_candidate_triples(n)
        return CountResult(
            share1=int(total1),
            share2=int(total2),
            num_triples_processed=num_triples,
            opening_rounds=opening_rounds,
        )

    # ------------------------------------------------------------------ #
    # Tile-parallel engine
    # ------------------------------------------------------------------ #
    def _tile_schedule(self, n: int) -> List[tuple]:
        """Canonical ``(J, K)`` group list, each with its contributing I tiles.

        Pure function of public quantities (``n``, ``block_size``); both the
        dealing order and the reduction order are fixed by this list, which
        is what makes the engine's output independent of worker count.
        """
        blocks = [
            (start, min(start + self._block_size, n))
            for start in range(0, n, self._block_size)
        ]
        schedule = []
        for j0, j1 in blocks:
            for k0, k1 in blocks:
                if j0 >= k1 - 1:
                    continue
                i_tiles = [(i0, i1) for i0, i1 in blocks if i0 < j1 - 1]
                schedule.append((j0, j1, k0, k1, i_tiles))
        return schedule

    def _deal_group(self, group: tuple, dealer: BeaverTripleDealer) -> dict:
        """Deal one group's correlated randomness from its own sub-dealer.

        Transactional: a failure mid-deal (an injected worker fault, a real
        transient error) rolls the sub-dealer back to its entry state, so a
        retried attempt replays the identical randomness — the material, and
        every opening built from it, stays bit-identical to a fault-free run.
        """
        snapshot = dealer.state_snapshot()
        try:
            j0, j1, k0, k1, i_tiles = group
            rows_j = j1 - j0
            cols_k = k1 - k0
            matrix_triples = [
                dealer.matrix_triple((rows_j, i1 - i0), (i1 - i0, cols_k))
                for i0, i1 in i_tiles
            ]
            elementwise = dealer.vector_triple((rows_j, cols_k))
        except BaseException:
            dealer.state_restore(snapshot)
            raise
        return {
            "matrix": matrix_triples,
            "elementwise": elementwise,
            "accounting": dealer.accounting(),
        }

    def _make_pool(self) -> WorkerPool:
        """A worker pool carrying this backend's retry policy (if any)."""
        pool = WorkerPool(max(self._workers, 1))
        if self._resilience.retry is not None:
            pool.configure_resilience(
                retry=self._resilience.retry,
                metrics=self._telemetry.metrics if self._telemetry.enabled else None,
            )
        return pool

    def _journal_token(self, n: int, dealer_key: str) -> str:
        """Binds a tile journal to this exact run geometry and dealer stream.

        A checkpoint written by a run with different ``n``, tiling, ring, or
        dealer randomness must never be resumed into this one — the token
        mismatch makes :class:`~repro.resilience.Checkpointer` raise instead.
        """
        payload = (
            f"tiles|{n}|{self._block_size}|{self._tile_window}|"
            f"{self._ring.bits}|{dealer_key}"
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]

    def _run_group(
        self,
        group: tuple,
        material: dict,
        share1: np.ndarray,
        share2: np.ndarray,
    ) -> tuple:
        """Online phase of one ``(J, K)`` group: accumulate, finish, subtotal.

        Telemetry follows the view-shard discipline exactly: the group's span
        lands in a private tracer shard that the coordinator merges back in
        canonical schedule order, so the trace tree is identical for any
        worker count.
        """
        ring = self._ring
        j0, j1, k0, k1, i_tiles = group
        rows_j = j1 - j0
        cols_k = k1 - k0
        shard = ViewRecorder() if self._views is not None else None
        tracer_shard = self._telemetry.tracer.shard()
        matrix_triples = material["matrix"]
        if len(matrix_triples) != len(i_tiles):
            raise ProtocolError(
                f"stored group material carries {len(matrix_triples)} matrix "
                f"triples for {len(i_tiles)} I tiles"
            )
        with tracer_shard.span(
            "tile_group", j0=j0, k0=k0, opening_rounds=len(i_tiles) + 1
        ):
            m1 = np.zeros((rows_j, cols_k), dtype=ring.dtype)
            m2 = np.zeros((rows_j, cols_k), dtype=ring.dtype)
            for (i0, i1), tile_triple in zip(i_tiles, matrix_triples):
                left1 = np.ascontiguousarray(strict_upper(share1[i0:i1, j0:j1], i0, j0).T)
                left2 = np.ascontiguousarray(strict_upper(share2[i0:i1, j0:j1], i0, j0).T)
                right1 = strict_upper(share1[i0:i1, k0:k1], i0, k0)
                right2 = strict_upper(share2[i0:i1, k0:k1], i0, k0)
                partial1, partial2 = secure_matrix_multiply(
                    (left1, left2), (right1, right2), tile_triple,
                    ring=ring, views=shard,
                    authenticator=self._authenticator,
                )
                m1 = ring.add(m1, partial1)
                m2 = ring.add(m2, partial2)
            c_tile1 = strict_upper(share1[j0:j1, k0:k1], j0, k0)
            c_tile2 = strict_upper(share2[j0:j1, k0:k1], j0, k0)
            prod1, prod2 = secure_multiply_pair(
                (c_tile1, c_tile2),
                (strict_upper(m1, j0, k0), strict_upper(m2, j0, k0)),
                material["elementwise"], ring=ring, views=shard,
                authenticator=self._authenticator,
            )
        return ring.sum(prod1), ring.sum(prod2), len(i_tiles) + 1, shard, tracer_shard

    def offline_materials(self, num_users: int, pool: Optional[WorkerPool] = None):
        """The engine's offline phase: deal (or fetch warm) all tile material.

        Returns ``(schedule, materials)`` where *materials* is a
        :class:`~repro.parallel.store.MaterialSequence` with one entry per
        ``(J, K)`` group of the canonical *schedule*.  On a cold run each
        group is dealt from its own deterministic RNG substream (spawned
        from the dealer's seed by group index), concurrently; with a
        configured triple store a warm run fetches the identical material
        instead of dealing.  Exposed so benchmarks and tests can time the
        offline phase in isolation.
        """
        ring = self._ring
        schedule = self._tile_schedule(num_users)
        if pool is None:
            pool = self._make_pool()
        signature = TripleSignature(
            statistic="triangles",
            backend="blocked",
            num_users=num_users,
            geometry=(("block_size", self._block_size),),
            ring_bits=ring.bits,
            dealer_key=self._dealer.fingerprint(),
        )
        stored = self._store.get(signature) if self._store is not None else None
        if stored is None:
            # Cold offline phase: each group dealt from its own deterministic
            # substream, concurrently.  The substream assignment depends only
            # on the group index, so the material — and every opening built
            # from it — is identical for any worker count.
            sub_dealers = self._dealer.spawn_subdealers(len(schedule))
            materials = pool.map(
                [
                    (lambda g=group, d=dealer: self._deal_group(g, d))
                    for group, dealer in zip(schedule, sub_dealers)
                ]
            )
            if self._store is not None:
                self._store.put(signature, materials)
        else:
            materials = stored
        sequence = MaterialSequence(materials, label="blocked tile")
        sequence.require(len(schedule))
        return schedule, sequence

    def _count_windowed(self, share1: np.ndarray, share2: np.ndarray) -> CountResult:
        """Bounded-memory pipeline: deal/evaluate/release one window at a time.

        The schedule is walked in chunks of ``tile_window`` groups; each
        chunk's material is dealt (or fetched warm under a chunk-level store
        key), consumed, and dropped before the next chunk starts, so peak
        offline-material memory is set by the window.  Determinism hinges on
        two invariants shared with :meth:`_count_parallel`: the sub-dealer
        for group ``g`` is always the ``g``-th child spawned from the
        dealer's seed (children are spawned once for the whole schedule, on
        the first cold chunk), and subtotal reduction plus view-shard merging
        follow the canonical schedule order — which is why the transcript is
        bit-identical to the unwindowed engine for every window size.
        """
        ring = self._ring
        n = share1.shape[0]
        window = self._tile_window
        schedule = self._tile_schedule(n)
        pool = self._make_pool()
        tracer = self._telemetry.tracer
        # The dealer key is taken before any children are spawned so chunk
        # signatures match across runs regardless of which chunks run warm.
        dealer_key = self._dealer.fingerprint()
        sub_dealers = None
        total1 = 0
        total2 = 0
        opening_rounds = 0
        # Crash recovery: a journal of completed chunks.  Each save captures
        # the running subtotals, the opening-round count, every completed
        # group's view shard (merged in canonical order), and the dealer
        # tallies absorbed so far; a resumed run restores them and skips
        # straight to the first incomplete chunk.  Group randomness comes
        # from per-group sub-dealer substreams, so the skipped chunks'
        # absence changes nothing downstream — the transcript is
        # bit-identical to an uninterrupted run.
        resilience = self._resilience
        journal = None
        completed_chunks = 0
        journal_views: Optional[ViewRecorder] = None
        absorbed_accounting: List[tuple] = []
        if resilience.checkpoint_path is not None:
            journal = Checkpointer(
                resilience.checkpoint_path,
                kind="tiles",
                token=self._journal_token(n, dealer_key),
                retry=resilience.retry,
                metrics=self._telemetry.metrics if self._telemetry.enabled else None,
            )
            if resilience.resume and journal.exists():
                state = journal.load()
                completed_chunks = state["completed_chunks"]
                total1 = state["total1"]
                total2 = state["total2"]
                opening_rounds = state["opening_rounds"]
                journal_views = state["views"]
                absorbed_accounting = list(state["accounting"])
                for tallies in absorbed_accounting:
                    self._dealer.absorb_accounting(*tallies)
                if self._views is not None and journal_views is not None:
                    self._views.merge_from(journal_views)
            if self._views is not None and journal_views is None:
                journal_views = ViewRecorder()
        with tracer.span(
            "backend",
            backend="blocked",
            num_users=n,
            block_size=self._block_size,
            tile_window=window,
        ) as backend_span:
            for chunk_index, chunk_start in enumerate(range(0, len(schedule), window)):
                if chunk_index < completed_chunks:
                    # Already journalled by the interrupted run; its subtotals,
                    # rounds, views, and dealer tallies were restored above.
                    continue
                chunk = schedule[chunk_start : chunk_start + window]
                signature = TripleSignature(
                    statistic="triangles",
                    backend="blocked",
                    num_users=n,
                    geometry=(
                        ("block_size", self._block_size),
                        ("tile_window", window),
                        ("chunk", chunk_index),
                    ),
                    ring_bits=ring.bits,
                    dealer_key=dealer_key,
                )
                with tracer.span(
                    "tile_chunk", chunk=chunk_index, groups=len(chunk)
                ):
                    stored = (
                        self._store.get(signature) if self._store is not None else None
                    )
                    with tracer.span("offline", groups=len(chunk)):
                        if stored is None:
                            if sub_dealers is None:
                                sub_dealers = self._dealer.spawn_subdealers(len(schedule))
                            materials = pool.map(
                                [
                                    (lambda g=group, d=sub_dealers[chunk_start + offset]:
                                        self._deal_group(g, d))
                                    for offset, group in enumerate(chunk)
                                ]
                            )
                            if self._store is not None:
                                self._store.put(signature, materials)
                        else:
                            materials = stored
                    sequence = MaterialSequence(materials, label="blocked tile window")
                    sequence.require(len(chunk))
                    for index in range(len(chunk)):
                        tallies = sequence.take(index)["accounting"]
                        self._dealer.absorb_accounting(*tallies)
                        if journal is not None:
                            absorbed_accounting.append(tuple(tallies))
                    results = pool.map(
                        [
                            (lambda i=index: self._run_group(
                                chunk[i], sequence.take(i), share1, share2
                            ))
                            for index in range(len(chunk))
                        ]
                    )
                    for sum1, sum2, rounds, shard, tshard in results:
                        total1 = ring.add(total1, sum1)
                        total2 = ring.add(total2, sum2)
                        opening_rounds += rounds
                        if shard is not None:
                            self._views.merge_from(shard)
                            if journal_views is not None:
                                journal_views.merge_from(shard)
                        tracer.merge_shard(tshard)
                    # Release the window's material before the next chunk is
                    # dealt — this is the bounded-memory property the scale
                    # tests pin.
                    del materials, sequence, results, stored
                if journal is not None and (
                    (chunk_index + 1) % resilience.checkpoint_every == 0
                ):
                    journal.save(
                        {
                            "completed_chunks": chunk_index + 1,
                            "total1": int(total1),
                            "total2": int(total2),
                            "opening_rounds": opening_rounds,
                            "views": journal_views,
                            "accounting": absorbed_accounting,
                        }
                    )
            backend_span.annotate(opening_rounds=opening_rounds)
        return CountResult(
            share1=int(total1),
            share2=int(total2),
            num_triples_processed=num_candidate_triples(n),
            opening_rounds=opening_rounds,
        )

    def _count_parallel(self, share1: np.ndarray, share2: np.ndarray) -> CountResult:
        """The tile-parallel engine: deal and evaluate groups on a worker pool."""
        ring = self._ring
        n = share1.shape[0]
        pool = self._make_pool()
        tracer = self._telemetry.tracer
        with tracer.span(
            "backend", backend="blocked", num_users=n, block_size=self._block_size
        ) as backend_span:
            with tracer.span("offline") as offline_span:
                schedule, sequence = self.offline_materials(n, pool=pool)
                offline_span.annotate(groups=len(schedule))
            for index in range(len(schedule)):
                self._dealer.absorb_accounting(*sequence.take(index)["accounting"])

            results = pool.map(
                [
                    (lambda i=index: self._run_group(
                        schedule[i], sequence.take(i), share1, share2
                    ))
                    for index in range(len(schedule))
                ]
            )
            # Fixed reduction order: canonical group order, exactly as the
            # schedule lists them.  View shards — and tracer shards — merge in
            # the same order.
            total1 = 0
            total2 = 0
            opening_rounds = 0
            for sum1, sum2, rounds, shard, tshard in results:
                total1 = ring.add(total1, sum1)
                total2 = ring.add(total2, sum2)
                opening_rounds += rounds
                if shard is not None:
                    self._views.merge_from(shard)
                tracer.merge_shard(tshard)
            backend_span.annotate(opening_rounds=opening_rounds)
        return CountResult(
            share1=int(total1),
            share2=int(total2),
            num_triples_processed=num_candidate_triples(n),
            opening_rounds=opening_rounds,
        )
