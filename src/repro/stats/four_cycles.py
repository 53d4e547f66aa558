"""The 4-cycle statistic — wedge-pair openings over secret shares.

A *4-cycle* is a closed walk ``u–x–v–y–u`` on four distinct vertices.  Every
4-cycle contains exactly two opposite (diagonal) vertex pairs, so with
``w_uv = |N(u) ∩ N(v)|`` the co-degree (wedge count) of a pair,

``#C4 = (1/2) · sum_{u<v} C(w_uv, 2) = (1/4) · sum_{u<v} w_uv (w_uv - 1)``.

The secure kernel evaluates the right-hand sum ``S = 4 · #C4`` — division is
not defined inside the ring, so the servers compute the integer multiple and
the orchestrator divides after the (noisy) reconstruction, which is pure
post-processing.

**Edge convention.**  Projection is local, so user ``u`` may drop the edge
to ``v`` while ``v`` keeps it.  The 4-cycle kernel counts an edge only when
*both* endpoints report it (``A_uv = â_uv · â_vu``, "mutual consent"): this
makes the symmetrised degree of every node bounded by her *own* projected
row sum, so the θ-degree bound that projection enforces locally is a valid
global bound and ``Δ#C4 ≤ (θ-1)²`` per edge flip is honest.  (The triangle
kernel's one-sided convention cannot bound a node's in-edges from other
users' rows, which is harmless for triangles — its sensitivity argument
only reads the flipped user's own row — but not for 4-cycles.)  On an
unprojected graph both directions agree and the convention is invisible.

Execution strategies, selected by the configured counting-backend name:

* ``matrix`` — one element-wise product for the mutual-edge matrix, one
  matrix Beaver product for ``W = A @ A``, one element-wise product for
  ``W ⊙ (W - 1)`` over the strict upper triangle: three opening rounds.
* ``blocked`` — the same algebra streamed in ``block_size``-wide tiles with
  one small triple per tile, bounding peak triple memory at
  ``O(block_size²)`` exactly like the blocked triangle backend.
* ``faithful`` / ``batched`` — *wedge-pair openings*: candidate pairs
  ``(j, k)``, ``j < k``, are enumerated in blocks
  (:func:`candidate_pair_blocks`, the pair analogue of the triangle
  backends' ``candidate_triple_blocks``), each block's co-degrees are
  computed with one element-wise Beaver product over the gathered columns
  of ``A`` plus a local column sum, and the dealer's offline phase is
  pre-provisioned in one buffered draw per block.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.core.backends.base import CountResult
from repro.core.backends.registry import resolve_backend_name
from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.protocol import TwoServerRuntime
from repro.crypto.ring import Ring, matmul_mod
from repro.crypto.secure_ops import secure_matrix_multiply, secure_multiply_pair
from repro.crypto.views import ViewRecorder
from repro.exceptions import ProtocolError
from repro.graph.graph import Graph
from repro.parallel import WorkerPool, resolve_workers
from repro.stats.base import SubgraphStatistic, validate_projected_rows
from repro.stats.registry import register_statistic
from repro.telemetry import resolve_telemetry
from repro.utils.rng import RandomState

__all__ = [
    "FourCycleStatistic",
    "candidate_pair_blocks",
    "count_four_cycles_exact",
    "four_cycle_sensitivity_bounded",
]


def count_four_cycles_exact(graph: Graph) -> int:
    """Exact number of 4-cycles via the co-degree (wedge-pair) identity.

    Examples
    --------
    >>> from repro.graph.graph import Graph
    >>> square = Graph(4, edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    >>> count_four_cycles_exact(square)
    1
    >>> complete4 = Graph(4, edges=[(u, v) for u in range(4) for v in range(u + 1, 4)])
    >>> count_four_cycles_exact(complete4)
    3
    """
    n = graph.num_nodes
    if n < 4:
        return 0
    adjacency = graph.adjacency_matrix(copy=False)
    wedges = matmul_mod(adjacency, adjacency).view(np.int64)
    upper_j, upper_k = np.triu_indices(n, k=1)
    w = wedges[upper_j, upper_k]
    return int(np.sum(w * (w - 1))) // 4


def four_cycle_sensitivity_bounded(degree_bound: float) -> float:
    """Edge-DP 4-cycle sensitivity on a θ-bounded graph: ``(θ - 1)²``.

    A 4-cycle containing edge ``{u, v}`` is determined by one further
    neighbour of each endpoint, so one edge flip moves the count by at most
    ``(θ - 1)²``; clamped below at 1 so noise scales stay positive.
    """
    bound = max(float(degree_bound) - 1.0, 0.0)
    return max(bound * bound, 1.0)


def candidate_pair_blocks(
    num_users: int, batch_size: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Vectorised pair enumeration: ``(jj, kk)`` index-array blocks.

    The pair analogue of the triangle backends'
    :func:`~repro.core.backends.faithful.candidate_triple_blocks`: yields the
    lexicographic sequence of all ``j < k`` split into blocks of exactly
    *batch_size* pairs (the final block may be shorter).  The enumeration
    depends only on the public ``num_users``, so emitting it as arrays is
    security-neutral.

    Examples
    --------
    >>> [len(jj) for jj, kk in candidate_pair_blocks(4, 4)]
    [4, 2]
    """
    if batch_size <= 0:
        raise ProtocolError(f"batch_size must be positive, got {batch_size}")
    if num_users < 2:
        return
    jj_all, kk_all = np.triu_indices(num_users, k=1)
    for start in range(0, jj_all.shape[0], batch_size):
        yield jj_all[start : start + batch_size], kk_all[start : start + batch_size]


def _column_share_sum(ring: Ring, shares: np.ndarray) -> np.ndarray:
    """Sum a share matrix over its first axis inside the ring (a local op)."""
    total = np.sum(np.asarray(shares, dtype=ring.dtype), axis=0, dtype=np.uint64)
    if ring.bits == 64:
        return total
    return total & ring.dtype.type(ring.mask)


@register_statistic("4cycles")
class FourCycleStatistic(SubgraphStatistic):
    """4-cycle counting: ``#C4 = (1/4) sum_{u<v} w_uv (w_uv - 1)``.

    Examples
    --------
    >>> from repro.graph.graph import Graph
    >>> stat = FourCycleStatistic()
    >>> stat.plain_count(Graph(5, edges=[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
    1
    >>> stat.release_scale
    4
    """

    name = "4cycles"
    description = "number of 4-cycles (quadrilaterals)"
    #: The secure kernel computes ``S = 4 · #C4`` (ring division is not
    #: defined); the orchestrator divides after reconstruction.
    release_scale = 4

    @classmethod
    def from_config(cls, config) -> "FourCycleStatistic":
        """4-cycles take no parameters; *config* is accepted for uniformity."""
        return cls()

    def plain_count(self, graph: Graph) -> int:
        """Exact 4-cycle count of a clear graph."""
        return count_four_cycles_exact(graph)

    def projected_count(self, projected_rows: np.ndarray) -> int:
        """Plaintext evaluation under the mutual-consent edge convention."""
        rows = validate_projected_rows(projected_rows)
        n = rows.shape[0]
        if n < 4:
            return 0
        mutual = rows * rows.T
        wedges = matmul_mod(mutual, mutual).view(np.int64)
        upper_j, upper_k = np.triu_indices(n, k=1)
        w = wedges[upper_j, upper_k]
        return int(np.sum(w * (w - 1))) // 4

    # ------------------------------------------------------------------ #
    # Secure kernel
    # ------------------------------------------------------------------ #
    def secure_count(
        self,
        projected_rows: np.ndarray,
        config,
        share_rng: RandomState = None,
        dealer_rng: RandomState = None,
        views: Optional[ViewRecorder] = None,
        runtime: Optional[TwoServerRuntime] = None,
        authenticator=None,
    ) -> CountResult:
        """Secure evaluation of ``S = 4 · #C4`` on the users' uploaded shares.

        Users upload shares of their projected rows exactly as for the
        triangle kernel; the strategy the servers then follow is selected by
        the configured counting-backend name (see the module docstring).
        """
        from repro.core.backends import share_adjacency_rows

        ring: Ring = config.ring
        rows = validate_projected_rows(projected_rows)
        n = rows.shape[0]
        share1, share2 = share_adjacency_rows(rows, ring=ring, rng=share_rng)
        if runtime is not None:
            runtime.users_to_server(1, "adjacency_share", share1)
            runtime.users_to_server(2, "adjacency_share", share2)
        if n < 4:
            return CountResult(share1=0, share2=0, num_triples_processed=0, opening_rounds=0)

        dealer = BeaverTripleDealer(ring=ring, seed=dealer_rng)
        # Worker-count neutrality: with more than one worker, the dealer's
        # Z = X @ Y products and the servers' local matrix products run as
        # row-striped pool matmuls.  Row strips are bit-identical to the
        # plain product and the dealing order is unchanged, so the
        # transcript is the same for every worker count.
        workers = resolve_workers(config)
        matmul = None
        if workers > 1:
            pool = WorkerPool(workers)
            matmul = pool.ring_matmul(ring)
            dealer.matmul = matmul
        tracer = resolve_telemetry(config).tracer
        backend = resolve_backend_name(getattr(config, "counting_backend", "matrix"))
        if backend in ("faithful", "batched"):
            batch = 1 if backend == "faithful" else int(getattr(config, "batch_size", 4096))
            with tracer.span(
                "backend",
                backend=backend,
                kernel="pair-stream",
                num_users=n,
                batch_size=batch,
                candidates=self.num_candidates(n),
            ) as span:
                result = self._count_pair_stream(
                    share1, share2, ring, dealer, batch, views,
                    authenticator=authenticator,
                )
                span.annotate(opening_rounds=result.opening_rounds)
            return result
        tile = int(getattr(config, "block_size", n)) if backend == "blocked" else n
        with tracer.span(
            "backend",
            backend=backend,
            kernel="matrix",
            num_users=n,
            block_size=tile,
            candidates=self.num_candidates(n),
        ) as span:
            result = self._count_matrix(
                share1, share2, ring, dealer, tile, views, matmul=matmul,
                authenticator=authenticator,
            )
            span.annotate(opening_rounds=result.opening_rounds)
        return result

    def _mutual_upper_shares(
        self, share1, share2, ring, dealer, tile, views, authenticator=None
    ):
        """Shares of the strict-upper mutual-edge matrix ``B_uv = â_uv · â_vu``.

        One element-wise Beaver product per tile (a single monolithic tile
        when *tile* covers the matrix): the left operand reads the bit the
        lower-indexed user holds, the right operand the transposed bit.
        """
        n = share1.shape[0]
        m1 = np.zeros((n, n), dtype=ring.dtype)
        m2 = np.zeros((n, n), dtype=ring.dtype)
        rounds = 0
        for r0 in range(0, n, tile):
            r1 = min(r0 + tile, n)
            for c0 in range(0, n, tile):
                c1 = min(c0 + tile, n)
                if r0 >= c1 - 1:
                    continue  # no u < v inside this tile (public index fact)
                mask = (
                    np.arange(r0, r1, dtype=np.int64)[:, None]
                    < np.arange(c0, c1, dtype=np.int64)[None, :]
                ).astype(ring.dtype)
                left = (
                    ring.mul(share1[r0:r1, c0:c1], mask),
                    ring.mul(share2[r0:r1, c0:c1], mask),
                )
                right = (
                    ring.mul(share1.T[r0:r1, c0:c1], mask),
                    ring.mul(share2.T[r0:r1, c0:c1], mask),
                )
                triple = dealer.vector_triple((r1 - r0, c1 - c0))
                m1[r0:r1, c0:c1], m2[r0:r1, c0:c1] = secure_multiply_pair(
                    left, right, triple, ring=ring, views=views,
                    authenticator=authenticator,
                )
                rounds += 1
        return m1, m2, rounds

    def _count_matrix(
        self, share1, share2, ring, dealer, tile, views, matmul=None, authenticator=None
    ) -> CountResult:
        """Matrix-formulation path: ``W = A @ A`` then ``W ⊙ (W - 1)`` upper-summed."""
        n = share1.shape[0]
        m1, m2, rounds = self._mutual_upper_shares(
            share1, share2, ring, dealer, tile, views, authenticator=authenticator
        )
        a1 = ring.add(m1, m1.T)
        a2 = ring.add(m2, m2.T)

        w1 = np.zeros((n, n), dtype=ring.dtype)
        w2 = np.zeros((n, n), dtype=ring.dtype)
        if tile >= n:
            triple = dealer.matrix_triple((n, n), (n, n))
            w1, w2 = secure_matrix_multiply(
                (a1, a2), (a1, a2), triple, ring=ring, views=views, matmul=matmul,
                authenticator=authenticator,
            )
            rounds += 1
        else:
            # Tiled A @ A: one small matrix triple per (J, I, K) tile, the
            # blocked triangle backend's streaming pattern (A is dense, so no
            # structurally-zero tiles to skip).
            edges = list(range(0, n, tile))
            for j0 in edges:
                j1 = min(j0 + tile, n)
                for k0 in edges:
                    k1 = min(k0 + tile, n)
                    acc1 = np.zeros((j1 - j0, k1 - k0), dtype=ring.dtype)
                    acc2 = np.zeros((j1 - j0, k1 - k0), dtype=ring.dtype)
                    for i0 in edges:
                        i1 = min(i0 + tile, n)
                        left = (
                            np.ascontiguousarray(a1[j0:j1, i0:i1]),
                            np.ascontiguousarray(a2[j0:j1, i0:i1]),
                        )
                        right = (
                            np.ascontiguousarray(a1[i0:i1, k0:k1]),
                            np.ascontiguousarray(a2[i0:i1, k0:k1]),
                        )
                        triple = dealer.matrix_triple((j1 - j0, i1 - i0), (i1 - i0, k1 - k0))
                        partial1, partial2 = secure_matrix_multiply(
                            left, right, triple, ring=ring, views=views, matmul=matmul,
                            authenticator=authenticator,
                        )
                        acc1 = ring.add(acc1, partial1)
                        acc2 = ring.add(acc2, partial2)
                        rounds += 1
                    w1[j0:j1, k0:k1] = acc1
                    w2[j0:j1, k0:k1] = acc2

        # Finish: shares of W ⊙ (W - 1) over the strict upper triangle (the
        # public constant 1 is subtracted from one server's share), tile by
        # tile so the element-wise triples follow the same memory bound.
        total1 = 0
        total2 = 0
        for r0 in range(0, n, tile):
            r1 = min(r0 + tile, n)
            for c0 in range(0, n, tile):
                c1 = min(c0 + tile, n)
                if r0 >= c1 - 1:
                    continue
                mask = (
                    np.arange(r0, r1, dtype=np.int64)[:, None]
                    < np.arange(c0, c1, dtype=np.int64)[None, :]
                ).astype(ring.dtype)
                wu1 = ring.mul(w1[r0:r1, c0:c1], mask)
                wu2 = ring.mul(w2[r0:r1, c0:c1], mask)
                wm1 = wu1
                wm2 = ring.mul(ring.sub(w2[r0:r1, c0:c1], 1), mask)
                triple = dealer.vector_triple((r1 - r0, c1 - c0))
                prod1, prod2 = secure_multiply_pair(
                    (wu1, wu2), (wm1, wm2), triple, ring=ring, views=views,
                    authenticator=authenticator,
                )
                total1 = ring.add(total1, ring.sum(prod1))
                total2 = ring.add(total2, ring.sum(prod2))
                rounds += 1
        return CountResult(
            share1=int(total1),
            share2=int(total2),
            num_triples_processed=self.num_candidates(n),
            opening_rounds=rounds,
        )

    def _count_pair_stream(
        self, share1, share2, ring, dealer, batch, views, authenticator=None
    ) -> CountResult:
        """Wedge-pair path: per-pair co-degrees via block openings.

        For each block of candidate pairs the servers gather the paired
        columns of ``A``, multiply them element-wise with one Beaver product
        (shares of ``A_ij · A_ik`` for every middle vertex ``i``), sum the
        columns locally into co-degree shares, and finish the block with a
        second product for ``w (w - 1)``.  The dealer's offline phase for
        both products is pre-provisioned in a single buffered draw per
        block.
        """
        n = share1.shape[0]
        m1, m2, rounds = self._mutual_upper_shares(
            share1, share2, ring, dealer, n, views, authenticator=authenticator
        )
        a1 = ring.add(m1, m1.T)
        a2 = ring.add(m2, m2.T)

        total1 = 0
        total2 = 0
        pairs = 0
        for jj, kk in candidate_pair_blocks(n, batch):
            size = jj.shape[0]
            # Buffered offline phase: both triples of this block in one draw.
            if dealer.provisioned_vector_remaining == 0:
                dealer.provision_vector(n * size + size)
            left = (a1[:, jj], a2[:, jj])
            right = (a1[:, kk], a2[:, kk])
            triple = dealer.vector_triple((n, size))
            prod1, prod2 = secure_multiply_pair(
                left, right, triple, ring=ring, views=views,
                authenticator=authenticator,
            )
            w1 = _column_share_sum(ring, prod1)
            w2 = _column_share_sum(ring, prod2)
            pair_triple = dealer.vector_triple((size,))
            s1, s2 = secure_multiply_pair(
                (w1, w2), (w1, ring.sub(w2, 1)), pair_triple, ring=ring, views=views,
                authenticator=authenticator,
            )
            total1 = ring.add(total1, ring.sum(s1))
            total2 = ring.add(total2, ring.sum(s2))
            pairs += size
            rounds += 2
        return CountResult(
            share1=int(total1),
            share2=int(total2),
            num_triples_processed=pairs,
            opening_rounds=rounds,
        )

    # ------------------------------------------------------------------ #
    # Sensitivity and geometry
    # ------------------------------------------------------------------ #
    def statistic_sensitivity(self, degree_bound: float) -> float:
        """Edge-DP sensitivity ``(θ - 1)²`` after projection to θ."""
        return four_cycle_sensitivity_bounded(degree_bound)

    def node_sensitivity(self, degree_bound: float) -> float:
        """Node-DP bound ``C(θ, 2) · (θ - 1)``: neighbour pairs times closures."""
        bound = max(float(degree_bound), 0.0)
        return max(bound * (bound - 1.0) / 2.0 * max(bound - 1.0, 0.0), 1.0)

    def num_candidates(self, num_users: int) -> int:
        """``C(n, 2)`` wedge pairs — the co-degree geometry."""
        if num_users < 2:
            return 0
        return num_users * (num_users - 1) // 2
