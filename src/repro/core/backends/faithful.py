"""Algorithm 4 executed per candidate triple — the ``faithful``/``batched`` backends.

For each candidate triple ``i < j < k`` the servers multiply the three shared
bits ``a_ij`` (row ``i``), ``a_ik`` (row ``i``) and ``a_jk`` (row ``j``) with
the three-way multiplication protocol of Section III-D, consuming one
multiplication group per triple, and accumulate the product shares into their
running shares of the triangle count.

Two execution modes are provided:

* **faithful** — one opening round per triple, exactly the loop of
  Algorithm 4.  The reference implementation; cubic in ``n`` with large
  constants, so only sensible for small graphs and tests.
* **batched** — identical arithmetic, but candidate triples are grouped into
  vectorised blocks that share a single opening round.  The messages a server
  sees are the concatenation of what it would have seen in the faithful mode.

The online phase is loop-free at the Python level: the candidate set
``{(i, j, k) : i < j < k}`` depends only on the (public) number of users,
never on the graph, so :func:`candidate_triple_blocks` can emit whole blocks
of index arrays and the batch operands are gathered with one fancy-indexing
read per wire (``share[ii, jj]``).  Vectorising this enumeration is therefore
security-neutral by construction — it changes how the servers *schedule*
their local work, not a single value that crosses the wire.  The offline
phase is pre-provisioned through the dealer's buffered mode in large chunks,
which also makes the openings independent of the batch size (the
transcript-equivalence tests rely on this).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.core.backends.base import CountResult, TriangleCounterBackend, num_candidate_triples
from repro.core.backends.registry import register_backend
from repro.crypto.multiplication_groups import MG_FIELDS, MultiplicationGroupDealer
from repro.crypto.ring import DEFAULT_RING, Ring
from repro.crypto.secure_ops import secure_multiply_triple
from repro.crypto.views import ViewRecorder
from repro.exceptions import DealerError, ProtocolError
from repro.parallel import TripleSignature, WorkerPool, resolve_workers
from repro.telemetry import resolve_telemetry
from repro.utils.rng import RandomState

#: Upper bound on multiplication groups drawn per buffered offline-phase call.
#: 2^18 groups hold 7 ring elements per server each, ~29 MiB per provisioning
#: chunk — large enough to cover every run up to n ≈ 116 in a single call.
DEFAULT_PROVISION_LIMIT = 1 << 18


def iter_candidate_triples(num_users: int) -> Iterator[Tuple[int, int, int]]:
    """All ordered candidate triples ``i < j < k`` (the loop of Algorithm 4).

    Kept as the scalar reference enumeration; the protocol itself consumes
    :func:`candidate_triple_blocks`, which yields the same sequence as whole
    index arrays.
    """
    for i in range(num_users):
        for j in range(i + 1, num_users):
            for k in range(j + 1, num_users):
                yield (i, j, k)


def candidate_triple_blocks(
    num_users: int, batch_size: int
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Vectorised candidate enumeration: ``(ii, jj, kk)`` index-array blocks.

    Yields the exact lexicographic sequence of :func:`iter_candidate_triples`
    split into blocks of exactly *batch_size* triples (the final block may be
    shorter).  The enumeration depends only on the public ``num_users``, so
    emitting it as arrays is security-neutral; per anchor row ``i`` the
    ``(j, k)`` pairs come from one :func:`numpy.triu_indices` call, keeping
    the Python-level work at ``O(n)`` instead of ``O(n^3)``.
    """
    if batch_size <= 0:
        raise ProtocolError(f"batch_size must be positive, got {batch_size}")
    if num_users < 3:
        return
    # One shared pair table: base_j/base_k enumerate all 1 <= j < k < n in
    # lexicographic order.  For anchor i the valid pairs are exactly those
    # with j > i, and because the table is sorted by j they form a suffix —
    # so each anchor's pair list is an O(1) slice, no per-anchor rebuild.
    base_j, base_k = np.triu_indices(num_users - 1, k=1)
    base_j = base_j + 1
    base_k = base_k + 1
    pairs_total = base_j.shape[0]

    def pairs_before(anchor: int) -> int:
        """Number of table entries with j <= anchor (the skipped prefix)."""
        span = num_users - 1 - anchor
        return pairs_total - span * (span - 1) // 2

    pending: list[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    buffered = 0
    for i in range(num_users - 2):
        start = pairs_before(i)
        jj = base_j[start:]
        kk = base_k[start:]
        ii = np.full(jj.shape[0], i, dtype=base_j.dtype)
        pending.append((ii, jj, kk))
        buffered += jj.shape[0]
        if buffered < batch_size:
            continue
        # Concatenate the pending pieces once, then hand out consecutive
        # slice views — a cursor, not a rebuild, so enumeration stays linear
        # in the number of triples even when one anchor spans many blocks.
        if len(pending) == 1:
            ii_all, jj_all, kk_all = pending[0]
        else:
            ii_all, jj_all, kk_all = (
                np.concatenate([part[axis] for part in pending]) for axis in range(3)
            )
        start = 0
        while buffered >= batch_size:
            stop = start + batch_size
            yield ii_all[start:stop], jj_all[start:stop], kk_all[start:stop]
            start = stop
            buffered -= batch_size
        pending = [(ii_all[start:], jj_all[start:], kk_all[start:])] if buffered else []
    if buffered:
        if len(pending) == 1:
            yield pending[0]
        else:
            yield tuple(np.concatenate([part[axis] for part in pending]) for axis in range(3))


#: Cache of fused gather schedules, keyed by ``(num_users, batch_size)``.
#: The schedule is a pure function of public quantities, so sharing it across
#: runs (and across sweep threads — the arrays are marked read-only) is safe.
#: The triple cap bounds each entry at ~6 MiB of index arrays (48 bytes per
#: triple) and the block cap bounds the per-block Python object overhead
#: (which dominates at tiny batch sizes); schedules above either cap are
#: cheap to rebuild relative to their runs.
_GATHER_SCHEDULE_CACHE: dict = {}
_GATHER_SCHEDULE_CACHE_MAX_ENTRIES = 4
_GATHER_SCHEDULE_CACHE_MAX_TRIPLES = 1 << 17
_GATHER_SCHEDULE_CACHE_MAX_BLOCKS = 1 << 12


def _iter_gather_blocks(num_users: int, batch_size: int):
    """Lazily yield per-block fused gather indices ``(size, rows, cols)``."""
    for ii, jj, kk in candidate_triple_blocks(num_users, batch_size):
        rows = np.concatenate((ii, ii, jj))
        cols = np.concatenate((jj, kk, kk))
        rows.flags.writeable = False
        cols.flags.writeable = False
        yield ii.shape[0], rows, cols


def _gather_schedule(num_users: int, batch_size: int):
    """Per-block fused gather indices: an iterable of ``(size, rows, cols)``.

    ``rows``/``cols`` are the concatenated index arrays for the three wires
    ``a_ij, a_ik, a_jk`` of one block, so each server's operands come from a
    single fancy-indexing read.  Schedules for small runs are materialised
    and cached across invocations; larger runs get a lazy generator so peak
    index memory stays ``O(batch_size)`` regardless of ``n``.
    """
    total = num_candidate_triples(num_users)
    if (
        total > _GATHER_SCHEDULE_CACHE_MAX_TRIPLES
        or -(-total // batch_size) > _GATHER_SCHEDULE_CACHE_MAX_BLOCKS
    ):
        return _iter_gather_blocks(num_users, batch_size)
    key = (num_users, batch_size)
    cached = _GATHER_SCHEDULE_CACHE.get(key)
    if cached is not None:
        return cached
    schedule = list(_iter_gather_blocks(num_users, batch_size))
    if len(_GATHER_SCHEDULE_CACHE) >= _GATHER_SCHEDULE_CACHE_MAX_ENTRIES:
        try:
            _GATHER_SCHEDULE_CACHE.pop(next(iter(_GATHER_SCHEDULE_CACHE)), None)
        except (StopIteration, RuntimeError):
            # Another sweep thread evicted concurrently; the cap still holds.
            pass
    _GATHER_SCHEDULE_CACHE[key] = schedule
    return schedule


@register_backend("faithful")
class FaithfulTriangleCounter(TriangleCounterBackend):
    """Per-triple secure counting — the literal Algorithm 4.

    Parameters
    ----------
    ring:
        Secret-sharing ring.
    dealer:
        Multiplication-group dealer for the offline correlated randomness; a
        fresh one is created when not supplied.
    batch_size:
        When greater than 1, candidate triples are processed in vectorised
        blocks of this size (the "batched" execution mode); ``1`` gives the
        faithful one-opening-per-triple schedule.
    provision_limit:
        Maximum number of multiplication groups the backend pre-provisions
        per buffered offline-phase call (memory bound).  ``0`` disables
        buffered dealing and draws one group batch per opening round, exactly
        as the unbuffered dealer would.
    workers:
        Number of worker threads evaluating candidate blocks concurrently
        (default ``1``).  The provisioned mask stream and the per-block
        slices are fixed serially first (they depend only on the schedule),
        so the transcript is bit-identical for any worker count.
    triple_store:
        Optional :class:`~repro.parallel.store.TripleStore` memoising the
        provisioned group stream (streams larger than the store's per-entry
        budget are dealt lazily and not cached).
    """

    def __init__(
        self,
        ring: Ring = DEFAULT_RING,
        dealer: Optional[MultiplicationGroupDealer] = None,
        batch_size: int = 1,
        views: Optional[ViewRecorder] = None,
        provision_limit: int = DEFAULT_PROVISION_LIMIT,
        workers: int = 1,
        triple_store=None,
        telemetry=None,
        authenticator=None,
    ) -> None:
        if batch_size <= 0:
            raise ProtocolError(f"batch_size must be positive, got {batch_size}")
        if provision_limit < 0:
            raise ProtocolError(f"provision_limit must be non-negative, got {provision_limit}")
        if workers < 1:
            raise ProtocolError(f"workers must be at least 1, got {workers}")
        super().__init__(
            ring=ring, views=views, telemetry=telemetry, authenticator=authenticator
        )
        self._dealer = dealer if dealer is not None else MultiplicationGroupDealer(ring=ring)
        self._batch_size = batch_size
        self._provision_limit = provision_limit
        self._workers = int(workers)
        self._store = triple_store

    @classmethod
    def from_config(
        cls,
        config,
        dealer_rng: RandomState = None,
        views: Optional[ViewRecorder] = None,
        authenticator=None,
    ) -> "FaithfulTriangleCounter":
        dealer = MultiplicationGroupDealer(ring=config.ring, seed=dealer_rng)
        return cls(
            ring=config.ring,
            dealer=dealer,
            batch_size=1,
            views=views,
            workers=resolve_workers(config),
            triple_store=getattr(config, "triple_store", None),
            telemetry=resolve_telemetry(config),
            authenticator=authenticator,
        )

    def count_from_shares(
        self, share1: np.ndarray, share2: np.ndarray
    ) -> CountResult:
        """Run the secure count given each server's share matrix."""
        share1, share2 = self._validate_share_matrices(share1, share2)
        num_users = share1.shape[0]
        # One span for the whole backend step: per-triple spans would add
        # C(n, 3) nodes to the trace in faithful mode, so granularity stops
        # at the backend level here (the blocked backend traces per group).
        with self._telemetry.tracer.span(
            "backend",
            backend="faithful" if self._batch_size == 1 else "batched",
            num_users=num_users,
            batch_size=self._batch_size,
            candidates=num_candidate_triples(num_users),
        ) as backend_span:
            result = self._count_blocks(share1, share2)
            backend_span.annotate(opening_rounds=result.opening_rounds)
        return result

    # ------------------------------------------------------------------ #
    # Candidate blocks
    # ------------------------------------------------------------------ #
    def _run_block(
        self,
        size: int,
        rows: np.ndarray,
        cols: np.ndarray,
        group,
        share1: np.ndarray,
        share2: np.ndarray,
    ) -> tuple:
        """Online phase of one candidate block (pure given shares + group).

        One fused gather per server: the three wires ``a_ij, a_ik, a_jk`` of
        every candidate triple in the block share a single fancy-indexing
        read of shape ``(3, size)``.
        """
        ring = self._ring
        shard = ViewRecorder() if self._views is not None else None
        gathered1 = share1[rows, cols].reshape(3, size)
        gathered2 = share2[rows, cols].reshape(3, size)
        product1, product2 = secure_multiply_triple(
            (gathered1[0], gathered2[0]),
            (gathered1[1], gathered2[1]),
            (gathered1[2], gathered2[2]),
            group,
            ring=ring,
            views=shard,
            authenticator=self._authenticator,
        )
        return ring.sum(product1), ring.sum(product2), shard

    def _count_blocks(self, share1: np.ndarray, share2: np.ndarray) -> CountResult:
        """Fan candidate blocks out over a worker pool, in bounded waves.

        The offline phase is fixed serially first: the provisioning chunk
        sequence and the per-block group slices depend only on the schedule
        (never on worker interleaving), so each block's correlated
        randomness — and therefore each opening — is the same for every
        worker count.  Workers then evaluate blocks concurrently; block
        subtotals reduce and view shards merge in canonical block order.
        """
        ring = self._ring
        dealer = self._dealer
        num_users = share1.shape[0]
        total_candidates = num_candidate_triples(num_users)
        pool = WorkerPool(self._workers)

        # Buffered offline phase: provision the dealer in chunks of exactly
        # min(still-unprovisioned, provision_limit).  The chunk sequence
        # depends only on the total candidate count and the limit — never on
        # the batch size — so the provisioned mask stream (and therefore
        # every opening) is identical across batch sizes.
        to_provision = total_candidates if self._provision_limit else 0
        # Offline reuse: the provisioned stream is a deterministic function
        # of (dealer seed, total, provision_limit), so it is storable.  A
        # stream past the store's per-entry budget is dealt lazily instead
        # (bounded memory) and simply not cached.
        stream_bytes = total_candidates * len(MG_FIELDS) * 2 * 8
        use_store = (
            self._store is not None and self._provision_limit and total_candidates
        )
        if use_store:
            signature = TripleSignature(
                statistic="triangles",
                backend="faithful",
                num_users=num_users,
                geometry=(("provision_limit", self._provision_limit),),
                ring_bits=ring.bits,
                dealer_key=dealer.fingerprint(),
            )
            with self._telemetry.tracer.span("offline") as offline_span:
                stored = self._store.get(signature)
                if stored is not None:
                    dealer.import_pool(stored["blocks"])
                    if dealer.provisioned_remaining != total_candidates:
                        raise DealerError(
                            f"stored group stream holds {dealer.provisioned_remaining} "
                            f"groups but the run needs {total_candidates}"
                        )
                    to_provision = 0
                elif self._store.accepts_bytes(stream_bytes):
                    while to_provision:
                        draw = min(to_provision, self._provision_limit)
                        dealer.provision(draw)
                        to_provision -= draw
                    self._store.put(signature, {"blocks": dealer.export_pool()})
                offline_span.annotate(groups=total_candidates)

        total1 = 0
        total2 = 0
        triples_processed = 0
        opening_rounds = 0
        wave: list = []
        wave_capacity = 4 * self._workers

        def flush() -> None:
            nonlocal total1, total2
            results = pool.map(
                [
                    (
                        lambda s=size, r=rows, c=cols, g=group: self._run_block(
                            s, r, c, g, share1, share2
                        )
                    )
                    for size, rows, cols, group in wave
                ]
            )
            for sum1, sum2, shard in results:
                total1 = ring.add(total1, sum1)
                total2 = ring.add(total2, sum2)
                if shard is not None:
                    self._views.merge_from(shard)
            wave.clear()

        for size, rows, cols in _gather_schedule(num_users, self._batch_size):
            while to_provision and dealer.provisioned_remaining < size:
                draw = min(to_provision, self._provision_limit)
                dealer.provision(draw)
                to_provision -= draw
            # The group slice is assigned serially, in schedule order: the
            # masks a block carries depend only on its stream position.
            group = dealer.vector_group((size,))
            wave.append((size, rows, cols, group))
            triples_processed += size
            opening_rounds += 1
            if len(wave) >= wave_capacity:
                flush()
        flush()
        return CountResult(
            share1=int(total1),
            share2=int(total2),
            num_triples_processed=triples_processed,
            opening_rounds=opening_rounds,
        )


@register_backend("batched")
def _build_batched_backend(
    config,
    dealer_rng: RandomState = None,
    views: Optional[ViewRecorder] = None,
    authenticator=None,
) -> FaithfulTriangleCounter:
    """The batched execution mode: the faithful protocol at ``config.batch_size``."""
    dealer = MultiplicationGroupDealer(ring=config.ring, seed=dealer_rng)
    return FaithfulTriangleCounter(
        ring=config.ring,
        dealer=dealer,
        batch_size=config.batch_size,
        views=views,
        workers=resolve_workers(config),
        triple_store=getattr(config, "triple_store", None),
        telemetry=resolve_telemetry(config),
        authenticator=authenticator,
    )
