"""The triangle statistic — CARGO's original query on the new abstraction.

This is a pure repackaging of what :class:`~repro.core.cargo.Cargo` always
did: the plain kernel is :func:`~repro.graph.triangles.count_triangles` /
:func:`~repro.core.projection.projected_triangle_count`, the secure kernel
routes through the counting-backend registry (``faithful`` / ``batched`` /
``matrix`` / ``blocked`` — every backend computes the identical count), and
the sensitivity is the paper's Theorem: on a θ-degree-bounded graph one edge
change moves the count by at most θ common neighbours.  The transcript-
equivalence tests pin the refactor down: running ``triangles`` through the
statistic registry is bit-identical to the pre-registry pipeline for every
backend, including the communication ledger.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.backends import create_backend
from repro.core.backends.base import CountResult, num_candidate_triples
from repro.core.projection import projected_triangle_count
from repro.crypto.protocol import TwoServerRuntime
from repro.crypto.views import ViewRecorder
from repro.graph.graph import Graph
from repro.graph.triangles import count_triangles
from repro.stats.base import SubgraphStatistic, row_degree_cap
from repro.stats.registry import register_statistic
from repro.telemetry import NULL_TRACER, resolve_telemetry
from repro.utils.rng import RandomState

__all__ = ["TriangleStatistic"]


@register_statistic("triangles")
class TriangleStatistic(SubgraphStatistic):
    """Triangle counting: ``T = sum_{i<j<k} a_ij · a_ik · a_jk``.

    Examples
    --------
    >>> from repro.graph.graph import Graph
    >>> stat = TriangleStatistic()
    >>> stat.plain_count(Graph(4, edges=[(0, 1), (0, 2), (1, 2), (2, 3)]))
    1
    >>> stat.statistic_sensitivity(10.0)
    10.0
    """

    name = "triangles"
    description = "number of triangles (3-cliques)"
    release_scale = 1

    @classmethod
    def from_config(cls, config) -> "TriangleStatistic":
        """Triangles take no parameters; *config* is accepted for uniformity."""
        return cls()

    def plain_count(self, graph: Graph) -> int:
        """Exact triangle count of a clear graph."""
        return count_triangles(graph)

    def projected_count(self, projected_rows: np.ndarray) -> int:
        """Plaintext evaluation of the expression Algorithm 4 computes securely."""
        return projected_triangle_count(projected_rows)

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
        """Algorithm 4 through whichever counting backend *config* names.

        Backends self-register with the backend registry; this kernel only
        knows the configured name.  The backend's users' step
        (:meth:`~repro.core.backends.base.TriangleCounterBackend.upload`)
        runs first: each user uploads her entries ``a_ij``, ``j > i``, shared
        (the seed of server 1's share, server 2's packed share row) or, on
        the mask-once backends, masked to both servers.  With a *runtime* the
        uploads, the dominant communication cost, are visible in the ledger
        (the openings between servers are internal to the counter backends).
        """
        counter = create_backend(
            config.counting_backend, config=config, dealer_rng=dealer_rng, views=views,
            authenticator=authenticator,
        )
        tracer = resolve_telemetry(config).tracer
        upload = counter.upload(
            projected_rows, share_rng, runtime,
            tracer if runtime is not None else NULL_TRACER,
            server1_tracer=tracer,
        )
        return counter.count_from_shares(*upload.inputs)

    def statistic_sensitivity(self, degree_bound: float) -> float:
        """Edge-DP sensitivity θ: one edge closes at most θ triangles (Theorem 2)."""
        return float(degree_bound)

    def secure_output_bound(self, num_users: int, degree_bound: float) -> int:
        """``Σ_i C(min(θ, n − 1 − i), 2)``: user ``i``'s row supplies both ``a_ij`` and ``a_ik``.

        Each triangle ``i < j < k`` is one pair ``j < k`` of user ``i``'s at
        most ``min(θ, n − 1 − i)`` later neighbours, so row ``i`` closes at
        most that many choose two.  With ``θ`` capped at ``n − 1``, the last
        ``θ`` rows sum to ``C(θ, 3)`` and the rest give ``C(θ, 2)`` each.  At
        most ``nθ(θ − 1)/2``, not the ``nθ(θ − 1)/6`` of symmetric degrees,
        which asymmetric projection does not guarantee.

        >>> TriangleStatistic().secure_output_bound(4, 9.5)  # C(4, 3)
        4
        >>> TriangleStatistic().secure_output_bound(6, 2.0)  # 1 + 1 + 1 + 1 + 0 + 0
        4
        """
        theta = row_degree_cap(num_users, degree_bound)
        return (num_users - theta) * math.comb(theta, 2) + math.comb(theta, 3)

    def node_sensitivity(self, degree_bound: float) -> float:
        """Node-DP bound ``C(θ, 2)``: a node's removal opens every neighbour pair."""
        bounded = float(degree_bound)
        return max(bounded * (bounded - 1.0) / 2.0, 1.0)

    def num_candidates(self, num_users: int) -> int:
        """``C(n, 3)`` vertex triples — Algorithm 4's candidate set."""
        return num_candidate_triples(num_users)
