"""Tiled secure triangle counting with ``C`` masked once: the ``blocked`` backend.

The matrix form of Algorithm 4 counts ``T = sum_{j<k} C[j, k] (C^T C)[j, k]``,
with ``C`` the strict upper part of the projected adjacency (``C[i, j] =
a_ij`` for ``i < j``, user ``i``'s entries).  ``C`` sits on both sides of
every product, so it is masked once (SPDZ input masking and square pairs,
Damgård et al., CRYPTO 2012; SecureML, Mohassel & Zhang, S&P 2017).  The
dealer deals a uniform strict-upper mask ``X = X_1 + X_2`` row by row: user
``i``'s row of each half expands from a 32-byte row seed spawned from that
server's material stream (:func:`input_seeds`), and user ``i`` receives
just her two seeds.  She uploads ``E_i = C_i - X_i`` to both servers
(:func:`upload_masked_input`), so no server opens ``E``; server 1's share of
``C`` is ``E + X_1`` and server 2's is ``X_2``.  Server ``i``'s share of
``M = C^T C`` is ``<Z>_i + E^T <X>_i + <X>_i^T E`` (plus ``E^T E`` on
server 2) with the dealer's ``Z = X^T X``; the servers open ``F = M - Y'``
for a fresh uniform ``Y'``, and server ``i`` keeps ``<W>_i + sum E ⊙ <Y'>_i
+ sum <C>_i ⊙ F`` with the dealer's ``W = sum X ⊙ Y'``, which reuses ``X``
as the finish's left mask.

``E`` is ``n (n - 1) / 2`` ring elements to each server and ``F`` is opened
packed to the strict upper triangle: ``n (n - 1) / 2`` elements per server
in one opening round, at any tile width.  **Security:** ``E`` and ``F`` are
uniform and independent of the secrets because ``X`` and ``Y'`` are fresh
uniform masks on exactly those entries and each server knows only its half
of ``X``; user ``i`` learns only her own row of ``X``; reusing ``X`` in the
finish is sound because it masks the same secret ``C``.

**Tiling.**  Column blocks of ``block_size`` are held packed (strict-upper
entries row by row, so the rows above a later block are a dense prefix).
:func:`tile_schedule` lists the block pairs ``J ≤ K`` with some ``j < k``;
each server forms every group of one ``J`` row in one pass of ring products
over the rows ``i < j``, and the dealer makes one ``Z`` product per row.
Each server holds its half of ``X`` for the whole count, in column blocks
(:func:`mask_blocks`).  The schedule is walked in chunks of ``tile_window``
groups (all of it when unset): a chunk gathers its column blocks of ``E``
from the packed upload (:func:`column_blocks`) and opens its groups' ``F``
tiles.  Group ``g``'s material always comes from the ``g``-th rewound group
sub-dealer, so every window and worker count deals and opens the same
values and releases the same shares.  The distributed
runtime's dealer runs the same dealing functions (:func:`input_seeds`,
:func:`mask_blocks`, :func:`deal_row`) and its servers the same kernel
(:func:`count_chunk`).

**Seeds, not matrices.**  Every group sub-dealer draws each server's half
of ``Y'``, and server 1's halves of ``Z`` and ``W``, from that server's
:class:`~repro.crypto.beaver.MaterialStream`, so a server given its stream
seeds (:func:`material_seeds`) regenerates its halves of ``X`` and ``Y'``
with the same draws (:func:`held_streams`, :func:`mask_blocks`,
:func:`held_row`); only server 2's corrections ``Z - <Z>_1`` and
``W - <W>_1`` must be shipped.  ``matrix`` is this backend at its default
tile width.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.backends.base import (
    CountResult,
    TriangleCounterBackend,
    Upload,
    expand_seeds,
    num_candidate_triples,
    pack_upper,
    upper_lengths,
    upper_offset,
    upper_users,
)
from repro.core.backends.registry import register_backend
from repro.crypto.beaver import BeaverTripleDealer, MaterialStream
from repro.crypto.ring import DEFAULT_RING, LIMB_CHUNK, Ring, ring_of
from repro.crypto.secure_ops import PlainOpener, held_material, open_round
from repro.crypto.views import ViewRecorder
from repro.exceptions import DealerError, ProtocolError
from repro.parallel import WorkerPool, cpu_budget
from repro.resilience import NULL_RESILIENCE, Checkpointer
from repro.telemetry import NULL_TRACER, resolve_telemetry
from repro.utils.rng import RandomState

#: Default tile width.
DEFAULT_BLOCK_SIZE = 128
#: Name of the dealt-material layout; tile journals carry it, so a journal
#: of another layout never resumes into this kernel.
LAYOUT = "masked_input_rows"
#: View label of the masked input ``E`` each server receives: an upload, not
#: an opening round.
INPUT_LABEL = "masked_input"
#: Rows of ``E`` and of ``X`` one server product stacks: its inner dimension
#: ``2 · STACK_ROWS`` is one :data:`~repro.crypto.ring.LIMB_CHUNK`, which
#: bounds a product's operands without adding GEMMs.
STACK_ROWS = LIMB_CHUNK // 2
#: Mean multiply-adds of a ``J`` row's server products from which a count
#: with ``workers`` unset runs its rows on the whole CPU budget.  Measured
#: on 2 CPUs: one row per thread loses below it (``n = 256``, block 64:
#: 2.6M a row) and wins above (``n = 256``, block 128: 8.4M).
POOL_MIN_ROW_MULTIPLY_ADDS = 160**3
#: Registry names whose triangle counts default to :func:`default_workers`.
POOLED_BACKENDS = ("blocked", "matrix")


def block_size_for(name: str, config) -> int:
    """The tile width backend *name* counts with: ``matrix`` is ``blocked`` at the default."""
    if name == "matrix":
        return DEFAULT_BLOCK_SIZE
    return getattr(config, "block_size", DEFAULT_BLOCK_SIZE)


def default_workers(num_users: int, block_size: int) -> int:
    """Worker threads a count runs its ``J`` rows on when ``workers`` is unset.

    The whole :func:`~repro.parallel.pool.cpu_budget`, at most one per row,
    once a row's server products average :data:`POOL_MIN_ROW_MULTIPLY_ADDS`:
    a row task runs the whole ring kernel (limb split, GEMMs, recombine)
    where BLAS threads only the GEMMs, so rows on every core with one BLAS
    thread each beat one row on multithreaded BLAS.  Below that, rows are
    too short to repay handing them to threads, and one worker runs them.

    >>> default_workers(128, 32), default_workers(128, 128)
    (1, 1)
    >>> default_workers(1024, 128) == min(cpu_budget(), 8)
    True
    """
    rows = [
        (j1 - j0) * 2 * j1 * (num_users - j0)
        for j0, j1 in _blocks(num_users, block_size)
        if j0 < num_users - 1
    ]
    if not rows or sum(rows) < POOL_MIN_ROW_MULTIPLY_ADDS * len(rows):
        return 1
    return min(cpu_budget(), len(rows))


def _blocks(num_users: int, block_size: int) -> List[tuple]:
    return [
        (start, min(start + block_size, num_users))
        for start in range(0, num_users, block_size)
    ]


def tile_schedule(num_users: int, block_size: int) -> List[tuple]:
    """Canonical ``(j0, j1, k0, k1)`` group list of the blocked count.

    A pure function of public quantities: the block pairs ``J ≤ K`` holding
    some ``j < k``, ``J``-major.  The dealing order, the reduction order, the
    chunking and the distributed runtime's frame order are all fixed by this
    list.

    Examples
    --------
    >>> tile_schedule(5, 2)
    [(0, 2, 0, 2), (0, 2, 2, 4), (0, 2, 4, 5), (2, 4, 2, 4), (2, 4, 4, 5)]
    """
    blocks = _blocks(num_users, block_size)
    return [
        (j0, j1, k0, k1)
        for j0, j1 in blocks
        for k0, k1 in blocks
        if j0 < k1 - 1
    ]


def chunk_columns(schedule: List[tuple], groups) -> List[tuple]:
    """The ``(c0, c1, rows)`` column blocks a chunk masks, rows ``[0, rows)`` each.

    Group ``(J, K)`` reads all of column block ``J`` and the rows of column
    block ``K`` above the end of ``J``.
    """
    rows = {}
    for g in groups:
        j0, j1, k0, k1 = schedule[g]
        rows[(j0, j1)] = j1
        rows[(k0, k1)] = max(rows.get((k0, k1), 0), j1)
    return [(c0, c1, height) for (c0, c1), height in sorted(rows.items())]


def chunk_rows(schedule: List[tuple], groups) -> List[tuple]:
    """A chunk's groups by ``J`` row: ``(j0, j1, positions)``, positions in the chunk."""
    rows: List[tuple] = []
    for position, g in enumerate(groups):
        j0, j1 = schedule[g][:2]
        if rows and rows[-1][0] == j0:
            rows[-1][2].append(position)
        else:
            rows.append((j0, j1, [position]))
    return rows


# ---------------------------------------------------------------------- #
# Packed column blocks: strict-upper entries, row by row
# ---------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def _upper(width: int) -> tuple:
    return np.triu_indices(width, 1)


def packed_length(c0: int, c1: int, rows: int) -> int:
    """Strict-upper entries in rows ``[0, rows)`` of column block ``[c0, c1)``.

    *rows* is at most ``c0`` (a dense prefix) or the whole block, ``c1``.

    Examples
    --------
    >>> packed_length(4, 6, 6), packed_length(4, 6, 2)
    (9, 4)
    """
    width = c1 - c0
    return rows * width if rows <= c0 else c0 * width + width * (width - 1) // 2


def _gather(share: np.ndarray, n: int, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """Entries ``(i, j)``, ``i < j``, of rows ``[r0, r1)`` and columns ``[c0, c1)``, row by row.

    *share* is a server's packed strict upper triangle
    (:func:`~repro.core.backends.base.upper_offset`), where each row's
    entries are one contiguous run: one fancy-indexing read of the runs.
    """
    rows = np.arange(r0, max(r0, min(r1, c1 - 1)))
    first = np.maximum(c0, rows + 1)
    lengths = c1 - first
    index = np.repeat(upper_offset(n, rows, first) - (np.cumsum(lengths) - lengths), lengths)
    index += np.arange(index.size)
    return share[index]


def _column_rows(packed: np.ndarray, c0: int, c1: int, r0: int, r1: int) -> np.ndarray:
    """Dense rows ``[r0, r1)`` of a packed column block, zero on and below the diagonal.

    Rows above the block's diagonal square are a view of the packed prefix.
    """
    width = c1 - c0
    top = packed[r0 * width : min(r1, c0) * width].reshape(-1, width)
    if r1 <= c0:
        return top
    square = np.zeros((width, width), dtype=packed.dtype)
    square[_upper(width)] = packed[c0 * width : packed_length(c0, c1, c1)]
    return np.concatenate((top, square[max(r0, c0) - c0 : r1 - c0]))


def _tile(packed: np.ndarray, group: tuple) -> np.ndarray:
    """Group ``(J, K)``'s entries ``j < k`` in packed column block ``K``, row by row."""
    j0, j1, k0, k1 = group
    return packed[j0 * (k1 - k0) : packed_length(k0, k1, j1)]


def _row_tile(row: np.ndarray, offset: int, group: tuple) -> np.ndarray:
    """The same entries of a ``J`` row product whose columns start at *offset*."""
    j0, _, k0, k1 = group
    tile = row[:, k0 - offset : k1 - offset]
    return tile[_upper(k1 - k0)] if k0 == j0 else tile.ravel()


# ---------------------------------------------------------------------- #
# Dealer side
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Dealt:
    """Both servers' shares of one piece of mask-once material."""

    server1: object
    server2: object


@dataclass(frozen=True)
class _Inputs:
    """What an in-process :meth:`BlockedMatrixTriangleCounter.upload` dealt, bound to its ``E``."""

    dealer_key: str
    dealers: tuple
    e: np.ndarray
    masks: Dealt


@dataclass(frozen=True)
class RowFinish:
    """One server's share of one ``J`` row's finish material.

    Per group of the row, ``y`` holds the finish mask ``Y'`` and ``z`` holds
    ``Z = X^T X``, both on the group's entries ``j < k``; ``w`` is the
    one-element share of ``W = sum X ⊙ Y'`` over the row's groups.
    """

    y: tuple
    z: tuple
    w: np.ndarray


def _inline(tasks) -> list:
    return [task() for task in tasks]


def chunk_dealers(dealer: BeaverTripleDealer, schedule) -> tuple:
    """``(mask dealer, [group dealer per schedule group])`` spawned from *dealer*.

    The mask dealer's per-server streams spawn the users' row seeds
    (:func:`input_seeds`).  The in-process backend and the runtime dealer
    both spawn through this, so their material is identical.
    """
    mask, *groups = dealer.spawn_subdealers(1 + len(schedule))
    return mask, groups


def input_seeds(dealers, num_users: int) -> np.ndarray:
    """Every user's two row seeds of ``X``: a ``(num_users, 2, 4)`` uint64 array.

    Row ``i`` is user ``i``'s one ``dealer->users`` message: her seed of
    ``X_1`` and her seed of ``X_2``, the ``i``-th children of the mask
    dealer's server-1 and server-2 streams
    (:meth:`~repro.crypto.beaver.MaterialStream.row_seeds`).  Row ``i`` of
    ``X_r`` is :func:`~repro.core.backends.base.expand_seeds` of her seed,
    ``n - 1 - i`` elements.
    """
    return np.stack([stream.row_seeds(num_users) for stream in dealers[0].streams()], axis=1)


def column_blocks(packed: np.ndarray, columns) -> dict:
    """``{c0: rows [0, rows) of column block [c0, c1)}`` of a packed strict upper triangle.

    *columns* lists ``(c0, c1, rows)`` (:func:`chunk_columns`); each block
    is packed row by row (:func:`packed_length`).
    """
    n = upper_users(packed.size)
    return {c0: _gather(packed, n, 0, rows, c0, c1) for c0, c1, rows in columns}


def all_columns(schedule) -> List[tuple]:
    """The :func:`chunk_columns` of the whole schedule: every column block, whole."""
    return chunk_columns(schedule, range(len(schedule)))


def mask_blocks(seeds: np.ndarray, schedule, ring: Ring) -> dict:
    """One server's half of ``X`` for a whole count, regenerated from its users' row seeds.

    *seeds* holds one 32-byte seed per user (that server's column of
    :func:`input_seeds`); the result is :func:`column_blocks` of the packed
    rows they expand to, the rows the users masked ``C`` with.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    packed = expand_seeds(seeds, upper_lengths(len(seeds)), ring)
    return column_blocks(packed, all_columns(schedule))


def dealer_tallies(groups, dealers) -> list:
    """The ``accounting()`` tallies of a chunk's group dealers, in canonical order."""
    return [dealers[1][g].accounting() for g in groups]


def _row_columns(schedule, groups, row) -> tuple:
    """A ``J`` row's groups and the ``(k0, k1)`` column blocks its products span."""
    row_groups = [schedule[groups[position]] for position in row[2]]
    return row_groups, [(k0, k1) for _, _, k0, k1 in row_groups]


def deal_row(schedule, groups, position: int, masks: Dealt, dealers, ring: Ring) -> Dealt:
    """The finish material of the chunk's *position*-th ``J`` row.

    The dealer recombines the row's masks from the shares it dealt, runs
    one ``Z = X_J^T X_K`` product, and shares each group's ``Y'``, ``Z`` and
    ``W`` from the group's own rewound dealer.  *masks* holds both halves'
    :func:`mask_blocks`.
    """
    row = chunk_rows(schedule, groups)[position]
    j0, j1, positions = row
    row_groups, blocks = _row_columns(schedule, groups, row)
    x = {}
    for c0, c1 in [(j0, j1)] + blocks:
        length = packed_length(c0, c1, j1)
        x[c0] = ring.add(masks.server1[c0][:length], masks.server2[c0][:length])
    z_row = ring.matmul(
        _column_rows(x[j0], j0, j1, 0, j1).T,
        np.concatenate([_column_rows(x[k0], k0, k1, 0, j1) for k0, k1 in blocks], axis=1),
    )
    halves = ([], [], [], [], [], [])
    for p, group in zip(positions, row_groups):
        dealer = dealers[1][groups[p]]
        dealer.rewind()
        z = _row_tile(z_row, blocks[0][0], group)
        y, *y_shares = dealer.mask(z.size)
        w = np.array([ring.sum(ring.mul(_tile(x[group[2]], group), y))], dtype=ring.dtype)
        for half, part in zip(halves, (*y_shares, *dealer.share(z), *dealer.share(w))):
            half.append(part)
    y1, y2, z1, z2, w1, w2 = halves
    return Dealt(
        RowFinish(tuple(y1), tuple(z1), functools.reduce(ring.add, w1)),
        RowFinish(tuple(y2), tuple(z2), functools.reduce(ring.add, w2)),
    )


def material_seeds(dealers, role: int) -> np.ndarray:
    """Server *role*'s stream seed of every :func:`chunk_dealers` sub-dealer.

    A ``(1 + groups, 4)`` uint64 matrix, the mask dealer's first:
    everything the server needs to regenerate its halves
    (:func:`held_streams`).
    """
    mask, groups = dealers
    return np.stack([dealer.streams()[role - 1].seed for dealer in (mask, *groups)])


# ---------------------------------------------------------------------- #
# Server side
# ---------------------------------------------------------------------- #
def held_streams(seeds: np.ndarray, ring: Ring, schedule):
    """One server's ``(mask stream, [group stream])`` from its :func:`material_seeds`.

    The held-role mirror of :func:`chunk_dealers`: the mask stream's
    :meth:`~repro.crypto.beaver.MaterialStream.row_seeds` are this server's
    column of :func:`input_seeds`.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    if seeds.shape != (1 + len(schedule), 4):
        raise DealerError(
            f"mask-once material mismatch: seed matrix of shape {seeds.shape} for "
            f"one mask stream and {len(schedule)} groups"
        )
    mask, *groups = (MaterialStream(ring, seed) for seed in seeds)
    return mask, groups


def held_row(schedule, groups, position: int, streams, correction=None) -> RowFinish:
    """One server's :func:`deal_row` half of the chunk's *position*-th ``J`` row.

    Each group's rewound stream yields the server's ``Y'`` share and, for
    server 1 (*correction* ``None``), its ``Z`` and ``W`` shares, the draws
    :func:`deal_row` makes.  Server 2 takes ``(z, w)``, its ``Z`` tiles and
    ``W`` share, from the dealer's *correction*.
    """
    y, z, w = [], [], []
    for p in chunk_rows(schedule, groups)[position][2]:
        j0, j1, k0, k1 = schedule[groups[p]]
        size = packed_length(k0, k1, j1) - j0 * (k1 - k0)
        stream = streams[1][groups[p]]
        stream.rewind()
        y.append(stream.draw(size))
        if correction is None:
            z.append(stream.draw(size))
            w.append(stream.draw(1))
    if correction is not None:
        return RowFinish(tuple(y), *correction)
    return RowFinish(tuple(y), tuple(z), functools.reduce(stream.ring.add, w))


def _row_share(role: int, ring: Ring, row: tuple, blocks: list, e: dict, x: dict) -> np.ndarray:
    """Server *role*'s ``E_J^T X_K + X_J^T E_K`` (``+ E_J^T E_K`` on server 2), no ``Z``.

    ``K`` runs over the row's column *blocks*; *e* and *x* map a column
    block's start to its packed ``E`` and ``X`` share.  Each ring product
    stacks ``STACK_ROWS`` rows of ``E`` and of ``X``,
    ``[E_J ; X_J]^T @ [X_K (+ E_K) ; E_K]``, server 2 folding
    ``E_J^T E_K`` into ``E_J^T (X_K + E_K)``.
    """
    j0, j1, _ = row
    cols = sum(k1 - k0 for k0, k1 in blocks)
    share = None
    for r0 in range(0, j1, STACK_ROWS):
        r1 = min(r0 + STACK_ROWS, j1)
        depth = r1 - r0
        right = np.empty((2 * depth, cols), dtype=ring.dtype)
        start = 0
        for k0, k1 in blocks:
            stop = start + k1 - k0
            e_rows = _column_rows(e[k0], k0, k1, r0, r1)
            x_rows = _column_rows(x[k0], k0, k1, r0, r1)
            if role == 2:
                # Bits above the ring's width never reach the reduced product.
                np.add(x_rows, e_rows, out=right[:depth, start:stop])
            else:
                right[:depth, start:stop] = x_rows
            right[depth:, start:stop] = e_rows
            start = stop
        del e_rows, x_rows
        left = np.empty((j1 - j0, 2 * depth), dtype=ring.dtype)
        left[:, :depth] = _column_rows(e[j0], j0, j1, r0, r1).T
        left[:, depth:] = _column_rows(x[j0], j0, j1, r0, r1).T
        product = ring.matmul(left, right)
        del left, right
        share = product if share is None else ring.add(share, product)
    return share


def _row_finish(schedule, groups, row, e, roles, masks, finish: list, ring) -> tuple:
    """One ``J`` row: each group's ``F = M - Y'`` share and a partial count per held role.

    *finish* lists the row's :class:`RowFinish` per held role.  The partial
    is ``W + sum E ⊙ Y'`` over the row, so ``Y'`` and ``Z`` are spent here
    and only the ``F`` shares outlive the row.
    """
    row_groups, blocks = _row_columns(schedule, groups, row)
    f_shares, partials = [], []
    for role, x in zip(roles, masks):
        # Popped, so each role's Y' and Z are freed before the next product.
        half = finish.pop(0)
        if len(half.y) != len(row_groups) or len(half.z) != len(row_groups):
            raise DealerError(
                f"mask-once material mismatch: {len(half.y)}/{len(half.z)} "
                f"finish tiles for a row of {len(row_groups)} groups"
            )
        m = _row_share(role, ring, row, blocks, e, x)
        partial = int(half.w[0])
        f_role = []
        for group, y, z in zip(row_groups, half.y, half.z):
            f_role.append(ring.sub(ring.add(z, _row_tile(m, blocks[0][0], group)), y))
            partial = ring.add(partial, ring.sum(ring.mul(_tile(e[group[2]], group), y)))
        del m
        f_shares.append(f_role)
        partials.append(partial)
    return list(zip(*f_shares)), partials


def _share_tile(role: int, ring: Ring, e: dict, x: dict, group: tuple) -> np.ndarray:
    """Server *role*'s share of ``C`` on a group's tile: ``E + X_1`` (role 1) or ``X_2``."""
    tile = _tile(x[group[2]], group)
    return ring.add(_tile(e[group[2]], group), tile) if role == 1 else tile


def count_chunk(
    schedule, groups, e, masks, finish, ring: Ring, views, opener, run=_inline,
    tracer=NULL_TRACER,
) -> tuple:
    """One chunk of groups through the mask-once kernel: each held role's subtotal.

    *e* is the users' packed masked input ``E = C - X``
    (:func:`upload_masked_input`); *masks* is both servers'
    :func:`mask_blocks` as a :class:`Dealt` pair (or, for the one role a
    server process holds, its own) and ``finish(position)`` returns its
    ``position``-th ``J`` row's :func:`deal_row` material, either a
    :class:`Dealt` pair or the held role's half (see
    :mod:`repro.crypto.secure_ops`).  The chunk gathers its ``E`` column
    blocks from *e* and opens one round, its groups' ``F`` tiles
    (``finish_opening``); server ``i`` keeps ``W_i + sum E ⊙ Y'_i +
    sum C_i ⊙ F`` with ``C_1 = E + X_1`` and ``C_2 = X_2``.  *run* maps the
    per-row tasks, whose ``tile_row`` spans land in *tracer* in row order;
    each holds a ``deal_row`` span around ``finish(position)``, which deals
    in process and receives and regenerates on a server.  The in-process
    backend and the distributed runtime's servers both run this kernel.
    """
    opener, roles, masks = held_material(opener, masks, ring)
    columns = chunk_columns(schedule, groups)
    missing = [c0 for c0, _, _ in columns if any(c0 not in x for x in masks)]
    if missing:
        raise DealerError(
            f"mask-once material mismatch: no mask for column blocks {missing} "
            "of the chunk"
        )
    e = column_blocks(e, columns)

    def row_task(position, row):
        shard = tracer.shard()
        with shard.span("tile_row", j0=row[0], groups=len(row[2])):
            with shard.span("deal_row"):
                # Only this list may hold the halves: _row_finish pops each to free it.
                halves = list(held_material(opener, finish(position), ring)[2])
            result = _row_finish(schedule, groups, row, e, roles, masks, halves, ring)
        return result, shard

    f_shares = []
    totals = [0] * len(roles)
    for (row_shares, partials), shard in run(
        [
            (lambda position=position, row=row: row_task(position, row))
            for position, row in enumerate(chunk_rows(schedule, groups))
        ]
    ):
        tracer.merge_shard(shard)
        f_shares.extend(row_shares)
        totals = [ring.add(total, partial) for total, partial in zip(totals, partials)]
    f = open_round("finish_opening", f_shares, opener, roles, views)
    del f_shares
    for opened, g in zip(f, groups):
        totals = [
            ring.add(
                total,
                ring.sum(ring.mul(_share_tile(role, ring, e, x, schedule[g]), opened)),
            )
            for total, role, x in zip(totals, roles, masks)
        ]
    return tuple(totals)


def record_input(views, roles, e: np.ndarray) -> None:
    """Book the masked input ``E`` once in each held role's view (:data:`INPUT_LABEL`)."""
    if views is not None:
        for role in roles:
            views.observe(role, INPUT_LABEL, (e,))


def upload_masked_input(
    projected_rows: np.ndarray, seeds: np.ndarray, ring: Ring, runtime=None, tracer=NULL_TRACER
) -> np.ndarray:
    """The mask-once users' step: every user uploads her row of ``C`` masked.

    User ``i`` expands her rows of ``X_1`` and ``X_2`` from her two
    :func:`input_seeds` (``n - 1 - i`` elements each) and sends
    ``E_i = C_i - X_1,i - X_2,i`` to both servers, inside one ``share`` span
    of *tracer*.  With a *runtime*
    (:class:`~repro.crypto.protocol.TwoServerRuntime`) the ledger books the
    dealer's 64-byte ``input_masks`` message to each user and both
    ``adjacency_share`` uploads of ``E``.  Returns the packed ``E`` and the
    users' packed rows of ``(X_1, X_2)``.
    """
    rows = np.asarray(projected_rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
        raise ProtocolError(f"projected_rows must be a square matrix, got {rows.shape}")
    num_users = rows.shape[0]
    seeds = np.asarray(seeds, dtype=np.uint64)
    if seeds.shape != (num_users, 2, 4):
        raise ProtocolError(
            f"input masks of shape {seeds.shape} for {num_users} users; "
            f"expected {(num_users, 2, 4)}"
        )
    with tracer.span("share", num_users=num_users):
        lengths = upper_lengths(num_users)
        halves = tuple(expand_seeds(seeds[:, role], lengths, ring) for role in range(2))
        masked = ring.sub(ring.sub(ring.encode(pack_upper(rows)), halves[0]), halves[1])
    if runtime is not None:
        runtime.dealer_to_users("input_masks", seeds)
        for server in (runtime.SERVER1, runtime.SERVER2):
            runtime.ledger.record(
                f"users->{server}",
                None,
                phase="adjacency_share",
                messages=num_users,
                total_bytes=masked.nbytes,
            )
    return masked, halves


@register_backend("blocked")
class BlockedMatrixTriangleCounter(TriangleCounterBackend):
    """Tiled secure triangle counting on a masked upload: one opening round per chunk.

    The users' step (:meth:`upload`) deals the count's material and uploads
    ``E = C - X`` to both servers; :meth:`count_from_shares` then consumes
    that material, so each count is one :meth:`upload` followed by one
    :meth:`count_from_shares` on its inputs (:meth:`count` runs both).

    Parameters
    ----------
    ring:
        Secret-sharing ring.
    dealer:
        Dealer whose seed the mask and group sub-dealers are spawned from;
        a fresh one is created when not supplied.
    block_size:
        Tile width.  It sets the size of the dealt pieces and of the local
        products, not the rounds or the opened bytes.
    views:
        Optional view recorder for the security tests.
    workers:
        Number of worker threads dealing and multiplying ``J`` rows
        concurrently; ``None`` (default) picks :func:`default_workers` for
        each count.  Transcripts are bit-identical for every value.
    tile_window:
        When set, the ``(J, K)`` tile groups are dealt, opened, and
        released in chunks of at most this many groups, one opening round
        each, so dealt material is held one chunk at a time and
        a ``resilience.checkpoint_path`` journals each completed chunk.
        ``None`` (default) makes the whole schedule one chunk.  Released
        shares and each group's opened ``F`` tile are bit-identical for
        every window.
    """

    masked_input = True

    def __init__(
        self,
        ring: Ring = DEFAULT_RING,
        dealer: Optional[BeaverTripleDealer] = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        views: Optional[ViewRecorder] = None,
        workers: Optional[int] = None,
        tile_window: Optional[int] = None,
        telemetry=None,
        resilience=None,
        authenticator=None,
    ) -> None:
        if block_size <= 0:
            raise ProtocolError(f"block_size must be positive, got {block_size}")
        if workers is not None and workers < 1:
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
        self._workers = workers
        self._tile_window = tile_window
        self._resilience = resilience if resilience is not None else NULL_RESILIENCE
        #: The :class:`_Inputs` the last in-process upload dealt, if any.
        self._dealt: Optional[_Inputs] = None

    @property
    def block_size(self) -> int:
        """Tile width of the column blocks."""
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
        name: str = "blocked",
    ) -> "BlockedMatrixTriangleCounter":
        """Build from *config* for the registered *name* (see :func:`block_size_for`)."""
        ring = ring_of(config)
        dealer = BeaverTripleDealer(ring=ring, seed=dealer_rng)
        return cls(
            ring=ring,
            dealer=dealer,
            block_size=block_size_for(name, config),
            views=views,
            workers=getattr(config, "workers", None),
            tile_window=getattr(config, "tile_window", None),
            telemetry=resolve_telemetry(config),
            resilience=getattr(config, "resilience", None),
            authenticator=authenticator,
        )

    def _make_pool(self, num_users: int) -> WorkerPool:
        """A worker pool for a count of *num_users*, with this backend's retry policy (if any)."""
        workers = self._workers or default_workers(num_users, self._block_size)
        pool = WorkerPool(workers)
        if self._resilience.retry is not None:
            pool.configure_resilience(
                retry=self._resilience.retry,
                metrics=self._telemetry.metrics if self._telemetry.enabled else None,
            )
        return pool

    def _journal_token(self, n: int, dealer_key: str, *shares: np.ndarray) -> str:
        """Binds a tile journal to this exact input, run geometry and dealer stream.

        A checkpoint written by a run over other shares (*shares* is
        digested), or with a different ``n``, tiling, material layout, ring,
        or dealer randomness, must never be resumed into this one — the
        token mismatch makes :class:`~repro.resilience.Checkpointer` raise
        instead.
        """
        digest = hashlib.sha256()
        for share in shares:
            # Hashed through the buffer protocol: no n²-byte copy.
            digest.update(np.ascontiguousarray(share))
        payload = (
            f"tiles|{n}|{self._block_size}|{LAYOUT}|{self._tile_window}|"
            f"{self._ring.bits}|{dealer_key}|{digest.hexdigest()}"
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]

    def upload(
        self,
        projected_rows: np.ndarray,
        rng: RandomState = None,
        runtime=None,
        tracer=NULL_TRACER,
        *,
        server1_tracer=NULL_TRACER,
        input_seeds: Optional[np.ndarray] = None,
    ) -> Upload:
        """The users' step: every user uploads her row of ``E = C - X`` to both servers.

        *input_seeds* are the dealer's :func:`input_seeds`, as the
        distributed runtime's dealer process sends them: this backend then
        keeps nothing, since the server processes count.  Unset, this
        backend's dealer deals them here, with the rest of the material of
        the :meth:`count_from_shares` that follows, which is bound to this
        upload's ``E``; the users' rows of ``X`` are, bit for bit, the
        servers' :func:`mask_blocks`, so they are kept as those, regrouped
        in a ``mask_blocks`` span of *server1_tracer* (where a server
        process receives its seeds and regenerates them).  The users draw
        no randomness of their own (*rng* is unused).
        """
        n = int(np.shape(projected_rows)[0])
        self._dealt = None
        if input_seeds is not None:
            e, _ = upload_masked_input(projected_rows, input_seeds, self._ring, runtime, tracer)
            return Upload(sent=(e, e), inputs=(e, e))
        dealer_key, dealers, seeds = self._deal_inputs(n)
        e, halves = upload_masked_input(projected_rows, seeds, self._ring, runtime, tracer)
        schedule = tile_schedule(n, self._block_size)
        # A server process counts nothing below three users, so it books no span.
        mask_tracer = server1_tracer if n >= 3 else NULL_TRACER
        with mask_tracer.span("mask_blocks", groups=len(schedule)):
            masks = Dealt(*(column_blocks(half, all_columns(schedule)) for half in halves))
        self._dealt = _Inputs(dealer_key, dealers, e, masks)
        return Upload(sent=(e, e), inputs=(e, e))

    def _deal_inputs(self, n: int) -> tuple:
        """Spawn a count's sub-dealers: ``(dealer key, sub-dealers, the users' input seeds)``."""
        # The dealer key is pinned before any children are spawned, so a
        # resumed count's journal token matches the interrupted one's.
        dealer_key = self._dealer.fingerprint()
        dealers = chunk_dealers(self._dealer, tile_schedule(n, self._block_size))
        if n >= 3:
            # X, dealt per user row: user i's row covers her n - 1 - i entries.
            self._dealer.absorb_accounting(n, n * (n - 1) // 2, n - 1)
        return dealer_key, dealers, input_seeds(dealers, n)

    def count_from_shares(self, share1: np.ndarray, share2: np.ndarray) -> CountResult:
        """Run the secure count on the users' masked input, one chunk at a time.

        Both servers receive the same packed ``E`` (``upload(...).inputs``),
        masked with the material the last :meth:`upload` dealt, which this
        count consumes; any other ``E`` is refused.  The schedule is walked
        in chunks of ``tile_window`` groups (the whole schedule when unset),
        each dealt, opened in one round and reduced before the next;
        subtotals, views and dealer tallies follow canonical schedule order.
        """
        ring = self._ring
        e, other, n = self._validate_shares(share1, share2)
        if other is not e and not np.array_equal(e, other):
            raise ProtocolError("both servers must receive the same masked input E")
        dealt, self._dealt = self._dealt, None
        if n < 3:
            return CountResult(
                share1=0, share2=0, num_triples_processed=0, opening_rounds=0, ring=ring
            )
        if dealt is None or (dealt.e is not e and not np.array_equal(dealt.e, e)):
            raise ProtocolError(
                "this masked input E was not dealt by the last upload: run this "
                "backend's users' step (upload) before every count_from_shares"
            )
        dealer_key = dealt.dealer_key
        schedule = tile_schedule(n, self._block_size)
        window = self._tile_window or len(schedule)
        pool = self._make_pool(n)
        tracer = self._telemetry.tracer
        total1 = 0
        total2 = 0
        opening_rounds = 0
        # Crash recovery (windowed runs): a journal of completed chunks.  Each
        # save captures the running subtotals, the opening-round count, every
        # completed chunk's views, and the dealer tallies absorbed so far; a
        # resumed run restores them and skips straight to the first
        # incomplete chunk.  Chunk randomness comes from the users' row seeds
        # and per-group sub-dealers, so the skipped chunks' absence changes
        # nothing downstream.
        resilience = self._resilience
        journal = None
        completed_chunks = 0
        journal_views: Optional[ViewRecorder] = None
        absorbed_accounting: List[tuple] = []
        if resilience.checkpoint_path is not None and self._tile_window is not None:
            journal = Checkpointer(
                resilience.checkpoint_path,
                kind="tiles",
                token=self._journal_token(n, dealer_key, e),
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
        if not completed_chunks:
            # A resumed run restored E with the journal's views.
            for recorder in (self._views, journal_views):
                record_input(recorder, PlainOpener.roles, e)
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
                shard = ViewRecorder() if self._views is not None else None
                with chunk_span:
                    # Each row's finish is dealt just before its products.
                    finish = functools.partial(
                        deal_row, schedule, groups,
                        masks=dealt.masks, dealers=dealt.dealers, ring=ring,
                    )
                    sum1, sum2 = count_chunk(
                        schedule, groups, e, dealt.masks, finish, ring, shard,
                        self._authenticator, pool.map, tracer,
                    )
                total1 = ring.add(total1, sum1)
                total2 = ring.add(total2, sum2)
                opening_rounds += 1
                for tallies in dealer_tallies(groups, dealt.dealers):
                    self._dealer.absorb_accounting(*tallies)
                    if journal is not None:
                        absorbed_accounting.append(tuple(tallies))
                if shard is not None:
                    self._views.merge_from(shard)
                    if journal_views is not None:
                        journal_views.merge_from(shard)
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
            ring=ring,
        )


#: With rounds and bytes independent of the tiling, the monolithic
#: formulation is one tiling of ``blocked``.
register_backend("matrix")(
    functools.partial(BlockedMatrixTriangleCounter.from_config, name="matrix")
)
