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

where ``I`` runs over row ranges that fuse consecutive tiles up to
:data:`FUSED_DEPTH` rows: the sum over a range's tiles is one product of the
stacked rows, so each range takes one matrix Beaver triple and one opening
(the matrix-triple algebra of Mohassel & Zhang, "SecureML", S&P 2017).  Each
``(J, K)`` tile is then finished with one small element-wise triple for
``C[J, K] ⊙ M_{JK}`` and a local sum.  Every product that enters the count
is the same ring multiplication the monolithic backend performs — only the
grouping of the openings differs — so the reconstructed count is
bit-identical and each opening reveals only Beaver-masked (uniformly random)
values, preserving the view-security properties.  Tiles that are
structurally zero (entirely on or below the diagonal, where the public
strict-upper mask vanishes) are skipped outright; the decision depends only
on public indices.

The payoff: peak additional allocation per opening round is
``O(block_size · max(block_size, FUSED_DEPTH))`` instead of ``O(n^2)``, and
each range's triple is dealt just before its product instead of as one giant
triple upfront, at the cost of more opening rounds
(``O((n / block_size)^2 · ⌈n / FUSED_DEPTH⌉)`` instead of two).  Choose
``block_size`` to trade round count against memory; the default suits graphs
in the tens of thousands of users.

**One pipeline.**  The ``(J, K)`` tile groups are mutually independent: each
consumes its own correlated randomness and its openings are pure functions
of the shares and that randomness.  The backend therefore walks the
canonical :func:`tile_schedule` once, with group ``g`` always dealing from
the ``g``-th sub-dealer spawned from the dealer's seed, and evaluates each
group with the :func:`count_group` kernel.  Groups fan out over a
:class:`~repro.parallel.pool.WorkerPool` (one worker by default), record
their openings into private :class:`~repro.crypto.views.ViewRecorder`
shards, and reduce in canonical group order — so the transcript, the
accounting, and the output shares are bit-identical for any worker count.
``tile_window`` walks the schedule in chunks of that many groups; a
configured :class:`~repro.parallel.store.TripleStore` memoises each chunk's
dealt material, so repeated runs, sweep cells, and streaming anchors skip
the offline phase entirely.  The process-separated runtime walks the same
schedule: its dealer deals through :func:`group_triples`
(:mod:`repro.runtime.dealer`) and each server runs :func:`count_group` on
its own share (:mod:`repro.runtime.server`).
"""

from __future__ import annotations

import contextlib
import hashlib
from typing import List, Optional

import numpy as np

from repro.core.backends.base import (
    CountResult,
    TriangleCounterBackend,
    num_candidate_triples,
    strict_upper,
)
from repro.core.backends.registry import register_backend
from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.ring import DEFAULT_RING, LIMB_CHUNK, Ring
from repro.crypto.secure_ops import secure_matrix_multiply, secure_multiply_pair
from repro.crypto.views import ViewRecorder
from repro.exceptions import ProtocolError
from repro.parallel import MaterialSequence, TripleSignature, WorkerPool, resolve_workers
from repro.resilience import NULL_RESILIENCE, Checkpointer
from repro.telemetry import resolve_telemetry
from repro.utils.rng import RandomState

#: Default tile width; 128² ring elements per triple ≈ 128 KiB per array.
DEFAULT_BLOCK_SIZE = 128
#: Most I rows one secure product of a tile group spans.  A fused product's
#: Beaver combine has inner dimension ``2·FUSED_DEPTH``, exactly one
#: :data:`~repro.crypto.ring.LIMB_CHUNK`: deeper ranges save opening rounds
#: but no GEMMs, and hold larger triples.
FUSED_DEPTH = LIMB_CHUNK // 2


def tile_schedule(num_users: int, block_size: int) -> List[tuple]:
    """Canonical ``(j0, j1, k0, k1, i_tiles)`` group list of the blocked count.

    A pure function of public quantities: groups with no pair ``j < k`` and
    I tiles with no row ``i < j`` are structurally zero and left out.  Each
    group's I tiles are then fused into consecutive row ranges of at most
    :data:`FUSED_DEPTH` rows (never less than one tile), one secure product
    each.  The dealing order, the reduction order, and the distributed
    runtime's frame order are all fixed by this list, which is what makes
    every execution of the schedule — any worker count, any window,
    in-process or distributed — produce the same transcript.

    Examples
    --------
    >>> [group[4] for group in tile_schedule(640, 128)][-1]
    [(0, 256), (256, 512), (512, 640)]
    """
    blocks = [
        (start, min(start + block_size, num_users))
        for start in range(0, num_users, block_size)
    ]
    tiles_per_range = max(1, FUSED_DEPTH // block_size)
    schedule = []
    for j0, j1 in blocks:
        live = [block for block in blocks if block[0] < j1 - 1]
        i_tiles = [
            (live[start][0], live[min(start + tiles_per_range, len(live)) - 1][1])
            for start in range(0, len(live), tiles_per_range)
        ]
        for k0, k1 in blocks:
            if j0 >= k1 - 1:
                continue
            schedule.append((j0, j1, k0, k1, i_tiles))
    return schedule


def group_triples(group: tuple, dealer):
    """Yield one group's triples from *dealer* in draw order.

    One matrix triple per fused I range, then the element-wise triple for
    the ``C[J, K] ⊙ M_{JK}`` finish.  The in-process backend and the runtime
    dealer both draw through this, so their material is identical.
    """
    j0, j1, k0, k1, i_tiles = group
    for i0, i1 in i_tiles:
        yield dealer.matrix_triple((j1 - j0, i1 - i0), (i1 - i0, k1 - k0))
    yield dealer.vector_triple((j1 - j0, k1 - k0))


def count_group(group: tuple, triples, shares, ring, views, opener) -> tuple:
    """One ``(J, K)`` group: accumulate ``M_JK``, finish, subtotal per held role.

    *triples* yields the group's material in :func:`group_triples` order;
    *shares* holds one share matrix per role the *opener* holds (see
    :mod:`repro.crypto.secure_ops`).  The in-process backend and the
    distributed runtime's servers both run this kernel.
    """
    j0, j1, k0, k1, i_tiles = group
    m = [np.zeros((j1 - j0, k1 - k0), dtype=ring.dtype) for _ in shares]
    for i0, i1 in i_tiles:
        left = tuple(
            np.ascontiguousarray(strict_upper(share[i0:i1, j0:j1], i0, j0).T)
            for share in shares
        )
        right = tuple(strict_upper(share[i0:i1, k0:k1], i0, k0) for share in shares)
        partial = secure_matrix_multiply(
            left, right, next(triples), ring=ring, views=views, authenticator=opener
        )
        m = [ring.add(acc, part) for acc, part in zip(m, partial)]
    products = secure_multiply_pair(
        tuple(strict_upper(share[j0:j1, k0:k1], j0, k0) for share in shares),
        tuple(strict_upper(acc, j0, k0) for acc in m),
        next(triples), ring=ring, views=views, authenticator=opener,
    )
    return tuple(ring.sum(product) for product in products)


class _StoredGroup:
    """One group's stored material, replayed through the dealer interface."""

    def __init__(self, material: dict, ranges: int) -> None:
        if len(material["matrix"]) != ranges:
            raise ProtocolError(
                f"stored group material carries {len(material['matrix'])} "
                f"matrix triples for {ranges} I ranges"
            )
        self._triples = [*material["matrix"], material["elementwise"]]
        self._accounting = material["accounting"]
        self._next = 0

    def _replay(self, *shapes):
        self._next += 1
        return self._triples[self._next - 1]

    matrix_triple = vector_triple = _replay

    def accounting(self) -> tuple:
        return self._accounting

    def state_snapshot(self) -> int:
        return self._next

    def state_restore(self, snapshot: int) -> None:
        self._next = snapshot


@register_backend("blocked")
class BlockedMatrixTriangleCounter(TriangleCounterBackend):
    """Tile-streamed secure triangle counting with bounded peak memory.

    Parameters
    ----------
    ring:
        Secret-sharing ring.
    dealer:
        Beaver-triple dealer whose seed the per-group sub-dealers are spawned
        from; a fresh one is created when not supplied.
    block_size:
        Tile width.  Peak per-opening allocation is
        ``O(block_size · max(block_size, FUSED_DEPTH))``; smaller values
        bound memory tighter but cost more opening rounds.
    views:
        Optional view recorder for the security tests.
    workers:
        Number of worker threads evaluating tile groups concurrently
        (default ``1``).  Transcripts are bit-identical for every value.
    triple_store:
        Optional :class:`~repro.parallel.store.TripleStore` memoising the
        dealt tile material, one entry per chunk of the schedule.
    tile_window:
        When set, the ``(J, K)`` tile groups are dealt, evaluated, and
        released in chunks of at most this many groups, so stored material
        is written and read one chunk at a time (disk spill both ways) and a
        ``resilience.checkpoint_path`` journals each completed chunk.
        ``None`` (default) makes the whole schedule one chunk.  Transcripts
        are bit-identical for every window.
    """

    def __init__(
        self,
        ring: Ring = DEFAULT_RING,
        dealer: Optional[BeaverTripleDealer] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        views: Optional[ViewRecorder] = None,
        workers: int = 1,
        triple_store=None,
        tile_window: Optional[int] = None,
        telemetry=None,
        resilience=None,
        authenticator=None,
    ) -> None:
        if block_size <= 0:
            raise ProtocolError(f"block_size must be positive, got {block_size}")
        if workers < 1:
            raise ProtocolError(f"workers must be at least 1, got {workers}")
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
        """Groups per schedule chunk, or ``None`` for one chunk."""
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

    def _deal_group(self, group: tuple, dealer: BeaverTripleDealer) -> dict:
        """Deal one group's material up front (to fill a triple store).

        Transactional: a failure mid-deal (an injected worker fault, a real
        transient error) rolls the sub-dealer back to its entry state, so a
        retried attempt replays the identical randomness.
        """
        snapshot = dealer.state_snapshot()
        try:
            *matrix_triples, elementwise = group_triples(group, dealer)
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
        pool = WorkerPool(self._workers)
        if self._resilience.retry is not None:
            pool.configure_resilience(
                retry=self._resilience.retry,
                metrics=self._telemetry.metrics if self._telemetry.enabled else None,
            )
        return pool

    def _journal_token(self, n: int, dealer_key: str, *shares: np.ndarray) -> str:
        """Binds a tile journal to this exact input, run geometry and dealer stream.

        A checkpoint written by a run over other share matrices (*shares* is
        digested), or with a different ``n``, tiling, ring, or dealer
        randomness, must never be resumed into this one — the token mismatch
        makes :class:`~repro.resilience.Checkpointer` raise instead.
        """
        digest = hashlib.sha256()
        for share in shares:
            # Hashed through the buffer protocol: no n²-byte copy.
            digest.update(np.ascontiguousarray(share))
        payload = (
            f"tiles|{n}|{self._block_size}|{FUSED_DEPTH}|{self._tile_window}|"
            f"{self._ring.bits}|{dealer_key}|{digest.hexdigest()}"
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]

    def _run_group(self, group: tuple, dealer, share1: np.ndarray, share2: np.ndarray) -> tuple:
        """One ``(J, K)`` group through :func:`count_group`, both roles held.

        *dealer* is the group's sub-dealer (each triple is dealt just before
        its product, so a group holds one range's triple at a time) or its
        stored material.  A failed attempt rolls *dealer* back, so a retry
        replays the identical randomness.  Views and spans land in private
        shards the coordinator merges in canonical schedule order, so the
        transcript and the trace tree are identical for any worker count.
        """
        j0, _, k0, _, i_tiles = group
        shard = ViewRecorder() if self._views is not None else None
        tracer_shard = self._telemetry.tracer.shard()
        snapshot = dealer.state_snapshot()
        try:
            with tracer_shard.span(
                "tile_group", j0=j0, k0=k0, opening_rounds=len(i_tiles) + 1
            ):
                sum1, sum2 = count_group(
                    group, group_triples(group, dealer), (share1, share2),
                    self._ring, shard, self._authenticator,
                )
        except BaseException:
            dealer.state_restore(snapshot)
            raise
        return sum1, sum2, len(i_tiles) + 1, shard, tracer_shard, dealer.accounting()

    def _chunk_sources(
        self, n, dealer_key, chunk_index, schedule, groups, sub_dealers, pool
    ) -> list:
        """Each group's triple source: its sub-dealer, or its stored material.

        Without a store every group deals lazily from its sub-dealer.  With
        one, the chunk's material is fetched warm — or dealt up front and
        stored — under the chunk's signature (unwindowed runs keep one key
        for the whole schedule).
        """
        if self._store is None:
            return [sub_dealers[g] for g in groups]
        geometry = (("block_size", self._block_size), ("fused_depth", FUSED_DEPTH))
        if self._tile_window is not None:
            geometry += (("tile_window", self._tile_window), ("chunk", chunk_index))
        signature = TripleSignature(
            statistic="triangles",
            backend="blocked",
            num_users=n,
            geometry=geometry,
            ring_bits=self._ring.bits,
            dealer_key=dealer_key,
        )
        with self._telemetry.tracer.span("offline", groups=len(groups)):
            materials = self._store.get(signature)
            if materials is None:
                materials = pool.map(
                    [
                        (lambda g=g: self._deal_group(schedule[g], sub_dealers[g]))
                        for g in groups
                    ]
                )
                self._store.put(signature, materials)
        sequence = MaterialSequence(materials, label="blocked tile")
        sequence.require(len(groups))
        return [
            _StoredGroup(sequence.take(index), len(schedule[g][4]))
            for index, g in enumerate(groups)
        ]

    def count_from_shares(self, share1: np.ndarray, share2: np.ndarray) -> CountResult:
        """Run the secure count over the tile schedule, one chunk at a time.

        The schedule is walked in chunks of ``tile_window`` groups (the whole
        schedule when unset).  Determinism hinges on two invariants: group
        ``g`` always draws from the ``g``-th sub-dealer spawned from the
        dealer's seed, and subtotal reduction, view-shard merging, and
        dealer-accounting absorption follow canonical schedule order — so
        the transcript is bit-identical for every worker count, window, and
        cold/warm store combination.
        """
        ring = self._ring
        share1, share2 = self._validate_share_matrices(share1, share2)
        n = share1.shape[0]
        if n < 3:
            return CountResult(share1=0, share2=0, num_triples_processed=0, opening_rounds=0)
        schedule = tile_schedule(n, self._block_size)
        window = self._tile_window or len(schedule)
        pool = self._make_pool()
        tracer = self._telemetry.tracer
        # The dealer key is pinned before any children are spawned so chunk
        # signatures match across runs regardless of which chunks run warm.
        dealer_key = self._dealer.fingerprint()
        sub_dealers = self._dealer.spawn_subdealers(len(schedule))
        total1 = 0
        total2 = 0
        opening_rounds = 0
        # Crash recovery (windowed runs): a journal of completed chunks.  Each
        # save captures the running subtotals, the opening-round count, every
        # completed group's view shard (merged in canonical order), and the
        # dealer tallies absorbed so far; a resumed run restores them and
        # skips straight to the first incomplete chunk.  Group randomness
        # comes from per-group sub-dealers, so the skipped chunks' absence
        # changes nothing downstream.
        resilience = self._resilience
        journal = None
        completed_chunks = 0
        journal_views: Optional[ViewRecorder] = None
        absorbed_accounting: List[tuple] = []
        if resilience.checkpoint_path is not None and self._tile_window is not None:
            journal = Checkpointer(
                resilience.checkpoint_path,
                kind="tiles",
                token=self._journal_token(n, dealer_key, share1, share2),
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
            tile_window=self._tile_window,
        ) as backend_span:
            for chunk_index, chunk_start in enumerate(range(0, len(schedule), window)):
                if chunk_index < completed_chunks:
                    # Already journalled by the interrupted run; its subtotals,
                    # rounds, views, and dealer tallies were restored above.
                    continue
                groups = range(chunk_start, min(chunk_start + window, len(schedule)))
                chunk_span = (
                    tracer.span("tile_chunk", chunk=chunk_index, groups=len(groups))
                    if self._tile_window is not None
                    else contextlib.nullcontext()
                )
                with chunk_span:
                    sources = self._chunk_sources(
                        n, dealer_key, chunk_index, schedule, groups, sub_dealers, pool
                    )
                    results = pool.map(
                        [
                            (lambda g=g, source=source: self._run_group(
                                schedule[g], source, share1, share2
                            ))
                            for g, source in zip(groups, sources)
                        ]
                    )
                    # Fixed reduction order: canonical group order.  View
                    # shards, tracer shards, and dealer tallies follow it.
                    for sum1, sum2, rounds, shard, tshard, tallies in results:
                        total1 = ring.add(total1, sum1)
                        total2 = ring.add(total2, sum2)
                        opening_rounds += rounds
                        self._dealer.absorb_accounting(*tallies)
                        if journal is not None:
                            absorbed_accounting.append(tuple(tallies))
                        if shard is not None:
                            self._views.merge_from(shard)
                            if journal_views is not None:
                                journal_views.merge_from(shard)
                        tracer.merge_shard(tshard)
                    # Release the chunk's material before the next one is
                    # dealt — the bounded-memory property the scale gates pin.
                    del sources, results
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
