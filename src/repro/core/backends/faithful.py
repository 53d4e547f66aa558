"""Algorithm 4 executed per candidate triple — the ``faithful``/``batched`` backends.

For each candidate triple ``i < j < k`` the servers multiply the three shared
bits ``a_ij`` (row ``i``), ``a_ik`` (row ``i``) and ``a_jk`` (row ``j``), all
strict-upper entries of the packed shares, with the three-way multiplication
protocol of Section III-D, consuming one multiplication group per triple, and
accumulate the product shares into their running shares of the triangle
count.

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
read of their packed offsets (``share[upper_offset(n, ii, jj)]``).
Vectorising this enumeration is therefore security-neutral by construction
— it changes how the servers *schedule* their local work, not a single
value that crosses the wire.  The offline
phase deals a run of whole blocks per dealer draw (:func:`group_stream`); a
group's material depends only on its position in the dealer's stream, so
the openings are independent of the batch size (the transcript-equivalence
tests rely on this).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.core.backends.base import (
    CountResult,
    TriangleCounterBackend,
    num_candidate_triples,
    upper_offset,
)
from repro.core.backends.registry import register_backend
from repro.crypto.multiplication_groups import MultiplicationGroupDealer
from repro.crypto.ring import DEFAULT_RING, Ring, ring_of
from repro.crypto.secure_ops import secure_multiply_triple
from repro.crypto.views import ViewRecorder
from repro.exceptions import DealerError, ProtocolError
from repro.telemetry import resolve_telemetry
from repro.utils.rng import RandomState

#: Multiplication groups one dealer draw covers at least: :func:`group_stream`
#: draws the groups of ⌈DRAW_GROUPS / batch_size⌉ whole blocks at a time, so
#: the per-draw cost is shared by many one-triple blocks, while a draw holds
#: 17 ring elements per group (~560 KiB at 4096).
DRAW_GROUPS = 1 << 12


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
#: The triple cap bounds each entry at ~3 MiB of offset arrays (24 bytes per
#: triple) and the block cap bounds the per-block Python object overhead
#: (which dominates at tiny batch sizes); schedules above either cap are
#: cheap to rebuild relative to their runs.
_GATHER_SCHEDULE_CACHE: dict = {}
_GATHER_SCHEDULE_CACHE_MAX_ENTRIES = 4
_GATHER_SCHEDULE_CACHE_MAX_TRIPLES = 1 << 17
_GATHER_SCHEDULE_CACHE_MAX_BLOCKS = 1 << 12


def _iter_gather_blocks(num_users: int, batch_size: int):
    """Lazily yield per-block fused gather offsets ``(size, offsets)``."""
    for ii, jj, kk in candidate_triple_blocks(num_users, batch_size):
        rows, cols = np.concatenate((ii, ii, jj)), np.concatenate((jj, kk, kk))
        offsets = upper_offset(num_users, rows, cols)
        offsets.flags.writeable = False
        yield ii.shape[0], offsets


def _gather_schedule(num_users: int, batch_size: int):
    """Per-block fused gather offsets: an iterable of ``(size, offsets)``.

    ``offsets`` are the packed-share positions of the three wires ``a_ij,
    a_ik, a_jk`` of one block, concatenated, so each server's operands come
    from a single fancy-indexing read.  Schedules for small runs are materialised
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


def group_stream(
    dealer: MultiplicationGroupDealer, num_users: int, batch_size: int
) -> Iterator:
    """Yield each candidate block's multiplication group from *dealer*, in schedule order.

    One :meth:`~MultiplicationGroupDealer.vector_group` draw covers the next
    ⌈:data:`DRAW_GROUPS` / *batch_size*⌉ blocks, which are yielded as
    slices of it.  A group's material depends only on its position in the
    dealer's stream, so every batch size opens the same values.  The
    in-process backend and the runtime dealer both walk this stream, so
    their material is identical.
    """
    remaining = num_candidate_triples(num_users)
    per_draw = -(-DRAW_GROUPS // batch_size) * batch_size
    while remaining:
        drawn = min(per_draw, remaining)
        remaining -= drawn
        groups = dealer.vector_group((drawn,))
        for start in range(0, drawn, batch_size):
            yield groups[start:start + batch_size]


def count_blocks(schedule, groups, shares, ring, views, opener) -> tuple:
    """Count's online phase: each held role's count share, the triples and the rounds.

    *shares* holds one packed share per role the *opener* holds (see
    :mod:`repro.crypto.secure_ops`).  Walks the gather *schedule*
    (:func:`_gather_schedule`), drawing one of the blocks' multiplication
    *groups* per block, so a group iterator is never advanced past the last
    block; a stream that ends first raises
    :class:`~repro.exceptions.DealerError` instead of leaving blocks
    uncounted.  Per block, one fused gather per share: the three wires
    ``a_ij, a_ik, a_jk`` of every candidate triple in the block share a
    single fancy-indexing read of their offsets, reshaped to ``(3, size)``,
    and one three-way multiplication opens them.  The in-process backend
    and the distributed runtime's servers both run this loop.
    """
    totals = (0,) * len(shares)
    triples = rounds = 0
    groups = iter(groups)
    for size, offsets in schedule:
        group = next(groups, None)
        if group is None:
            raise DealerError(
                f"material mismatch: the group stream ended after {rounds} blocks"
            )
        ij, ik, jk = zip(*(share[offsets].reshape(3, size) for share in shares))
        products = secure_multiply_triple(
            ij, ik, jk, group, ring=ring, views=views, authenticator=opener
        )
        totals = tuple(
            ring.add(total, ring.sum(product)) for total, product in zip(totals, products)
        )
        triples += size
        rounds += 1
    return totals, triples, rounds


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
    """

    def __init__(
        self,
        ring: Ring = DEFAULT_RING,
        dealer: Optional[MultiplicationGroupDealer] = None,
        batch_size: int = 1,
        views: Optional[ViewRecorder] = None,
        telemetry=None,
        authenticator=None,
    ) -> None:
        if batch_size <= 0:
            raise ProtocolError(f"batch_size must be positive, got {batch_size}")
        super().__init__(
            ring=ring, views=views, telemetry=telemetry, authenticator=authenticator
        )
        self._dealer = dealer if dealer is not None else MultiplicationGroupDealer(ring=ring)
        self._batch_size = batch_size

    @classmethod
    def from_config(
        cls,
        config,
        dealer_rng: RandomState = None,
        views: Optional[ViewRecorder] = None,
        authenticator=None,
    ) -> "FaithfulTriangleCounter":
        ring = ring_of(config)
        dealer = MultiplicationGroupDealer(ring=ring, seed=dealer_rng)
        return cls(
            ring=ring,
            dealer=dealer,
            batch_size=1,
            views=views,
            telemetry=resolve_telemetry(config),
            authenticator=authenticator,
        )

    def count_from_shares(
        self, share1: np.ndarray, share2: np.ndarray
    ) -> CountResult:
        """Run the secure count given each server's packed share."""
        share1, share2, num_users = self._validate_shares(share1, share2)
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
            result = self._count_blocks(share1, share2, num_users)
            backend_span.annotate(opening_rounds=result.opening_rounds)
        return result

    # ------------------------------------------------------------------ #
    # Candidate blocks
    # ------------------------------------------------------------------ #
    def _count_blocks(self, share1, share2, num_users: int) -> CountResult:
        """Deal the blocks' groups as they are needed and run :func:`count_blocks`.

        Each block's group depends only on its position in the schedule, so
        every worker count opens the same values.
        """
        ring = self._ring
        groups = group_stream(self._dealer, num_users, self._batch_size)
        (total1, total2), triples, rounds = count_blocks(
            _gather_schedule(num_users, self._batch_size),
            groups,
            (share1, share2),
            ring,
            self._views,
            self._authenticator,
        )
        return CountResult(
            share1=int(total1),
            share2=int(total2),
            num_triples_processed=triples,
            opening_rounds=rounds,
            ring=ring,
        )


@register_backend("batched")
def _build_batched_backend(
    config,
    dealer_rng: RandomState = None,
    views: Optional[ViewRecorder] = None,
    authenticator=None,
) -> FaithfulTriangleCounter:
    """The batched execution mode: the faithful protocol at ``config.batch_size``."""
    ring = ring_of(config)
    dealer = MultiplicationGroupDealer(ring=ring, seed=dealer_rng)
    return FaithfulTriangleCounter(
        ring=ring,
        dealer=dealer,
        batch_size=config.batch_size,
        views=views,
        telemetry=resolve_telemetry(config),
        authenticator=authenticator,
    )
