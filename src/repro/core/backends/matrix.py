"""Vectorised secure triangle counting via secret-shared matrix products.

The faithful Algorithm 4 consumes one multiplication group per candidate
triple, which is cubic in the number of users.  This backend computes exactly
the same quantity,

``T = sum_{i<j<k} a_ij * a_ik * a_jk``,

with two opening rounds by rewriting it in matrix form.  Let ``C`` be the
strictly upper-triangular matrix with ``C[i, j] = a_ij`` for ``i < j`` (each
entry taken from user ``i``'s shared row, exactly the bits Algorithm 4
reads).  Then

``T = sum_{j<k} C[j, k] * (C^T C)[j, k]``

because ``(C^T C)[j, k] = sum_i C[i, j] C[i, k]`` and the strict upper
triangularity of ``C`` enforces ``i < j``.  The servers therefore

1. locally mask their shares down to the strict upper triangle,
2. compute shares of ``M = C^T C`` with one secret-shared matrix
   multiplication (a matrix Beaver triple, one opening of two ``n x n``
   matrices), and
3. compute shares of the element-wise product ``C ⊙ M`` over the upper
   triangle with one element-wise Beaver triple, then locally sum.

The three bits entering each product and the final count are identical to
the faithful protocol's; only the grouping of the openings differs, so the
backend is a drop-in replacement for `Count` in experiments at realistic
graph sizes.  Its weakness is memory: the monolithic matrix triple holds
several ``n x n`` arrays at once, which is what the ``blocked`` backend
(:mod:`repro.core.backends.blocked`) fixes.
"""

from __future__ import annotations

from typing import Optional

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
from repro.parallel import TripleSignature, WorkerPool, resolve_workers
from repro.telemetry import resolve_telemetry
from repro.utils.rng import RandomState


def count_online(
    shares, matrix_triple, elementwise_triple, ring, views, opener, matmul=None
) -> tuple:
    """The online phase of the matrix count: each held role's share of ``T``.

    *shares* holds one share matrix per role the *opener* holds (see
    :mod:`repro.crypto.secure_ops`).  The in-process backend and the
    distributed runtime's servers both run this kernel; *matmul* optionally
    replaces the servers' local ``ring.matmul`` with a bit-identical product.
    """
    # Step 1 — each server locally zeroes everything outside the strict
    # upper triangle.  The mask is public (it only depends on indices), so
    # this is a local linear operation on shares.
    c = tuple(strict_upper(share) for share in shares)

    # Step 2 — shares of M = C^T @ C via one matrix Beaver triple.
    m = secure_matrix_multiply(
        tuple(part.T.copy() for part in c), c, matrix_triple,
        ring=ring, views=views, matmul=matmul, authenticator=opener,
    )

    # Step 3 — shares of C ⊙ M over the upper triangle via one element-wise
    # Beaver triple, then a local sum.
    products = secure_multiply_pair(
        c, tuple(strict_upper(part) for part in m), elementwise_triple,
        ring=ring, views=views, authenticator=opener,
    )
    return tuple(ring.sum(product) for product in products)


@register_backend("matrix")
class MatrixTriangleCounter(TriangleCounterBackend):
    """Secure triangle counting with secret-shared matrix algebra.

    Parameters
    ----------
    ring:
        Secret-sharing ring.
    dealer:
        Beaver-triple dealer supplying the matrix and element-wise triples; a
        fresh one is created when not supplied.
    views:
        Optional view recorder for the security tests.
    workers:
        Above ``1`` (the default), the local ``n x n`` matrix products (the
        dealer's ``Z = X @ Y`` and the servers' online combination) run in
        parallel row strips.  Row strips equal the plain product bit for
        bit, so the transcript never depends on the worker count.
    triple_store:
        Optional :class:`~repro.parallel.store.TripleStore` memoising the
        monolithic matrix and element-wise triples.
    """

    def __init__(
        self,
        ring: Ring = DEFAULT_RING,
        dealer: Optional[BeaverTripleDealer] = None,
        views: Optional[ViewRecorder] = None,
        workers: int = 1,
        triple_store=None,
        telemetry=None,
        authenticator=None,
    ) -> None:
        super().__init__(
            ring=ring, views=views, telemetry=telemetry, authenticator=authenticator
        )
        self._dealer = dealer if dealer is not None else BeaverTripleDealer(ring=ring)
        self._workers = int(workers)
        self._store = triple_store
        self._pool = WorkerPool(self._workers) if self._workers > 1 else None
        if self._pool is not None and self._dealer.matmul is None:
            # Parallelise the dealer's Z = X @ Y (bit-identical row strips).
            self._dealer.matmul = self._pool.ring_matmul(ring)

    @classmethod
    def from_config(
        cls,
        config,
        dealer_rng: RandomState = None,
        views: Optional[ViewRecorder] = None,
        authenticator=None,
    ) -> "MatrixTriangleCounter":
        dealer = BeaverTripleDealer(ring=config.ring, seed=dealer_rng)
        return cls(
            ring=config.ring,
            dealer=dealer,
            views=views,
            workers=resolve_workers(config),
            triple_store=getattr(config, "triple_store", None),
            telemetry=resolve_telemetry(config),
            authenticator=authenticator,
        )

    def _dealt_triples(self, n: int):
        """The run's two triples: via the triple store when one is configured."""
        if self._store is None:
            return self._dealer.matrix_triple((n, n), (n, n)), self._dealer.vector_triple((n, n))
        signature = TripleSignature(
            statistic="triangles",
            backend="matrix",
            num_users=n,
            geometry=(("layout", "monolithic"),),
            ring_bits=self._ring.bits,
            dealer_key=self._dealer.fingerprint(),
        )
        stored = self._store.get(signature)
        if stored is not None:
            self._dealer.absorb_accounting(*stored["accounting"])
            return stored["matrix"], stored["elementwise"]
        before = self._dealer.accounting()
        matrix_triple = self._dealer.matrix_triple((n, n), (n, n))
        elementwise_triple = self._dealer.vector_triple((n, n))
        after = self._dealer.accounting()
        self._store.put(
            signature,
            {
                "matrix": matrix_triple,
                "elementwise": elementwise_triple,
                "accounting": (
                    after[0] - before[0],
                    after[1] - before[1],
                    max(after[2], before[2]),
                ),
            },
        )
        return matrix_triple, elementwise_triple

    def count_from_shares(self, share1: np.ndarray, share2: np.ndarray) -> CountResult:
        """Run the secure count given each server's share matrix."""
        ring = self._ring
        share1, share2 = self._validate_share_matrices(share1, share2)
        n = share1.shape[0]
        if n < 3:
            return CountResult(share1=0, share2=0, num_triples_processed=0, opening_rounds=0)

        tracer = self._telemetry.tracer
        num_triples = num_candidate_triples(n)
        with tracer.span(
            "backend", backend="matrix", num_users=n, candidates=num_triples
        ):
            with tracer.span("offline"):
                matrix_triple, elementwise_triple = self._dealt_triples(n)
            with tracer.span("online", opening_rounds=2):
                matmul = self._pool.ring_matmul(ring) if self._pool is not None else None
                total1, total2 = count_online(
                    (share1, share2), matrix_triple, elementwise_triple,
                    ring, self._views, self._authenticator, matmul,
                )
        return CountResult(
            share1=total1,
            share2=total2,
            num_triples_processed=num_triples,
            opening_rounds=2,
        )
