"""The k-star statistic — a degree polynomial with a share-only secure kernel.

A *k-star* is a node together with ``k`` of its neighbours, so the global
count is ``S_k = sum_v C(d_v, k)`` (``k = 2`` gives wedges, the clustering
coefficient's denominator).  The statistic is *local*: each user evaluates
her own contribution ``C(d_i, k)`` in the clear from her projected bit
vector, exactly like she evaluates her degree for `Max`.  The secure kernel
therefore needs **no secure multiplication at all** — every user additively
shares her contribution and the servers sum their share columns locally:

1. user ``i`` computes ``c_i = C(sum_j â_ij, k)`` on her projected row,
2. she sends one additive share of ``c_i`` to each server,
3. each server sums the ``n`` shares it received (a local linear operation);
   the two sums are shares of ``S_k``, with zero opening rounds.

Compare the triangle kernel, which needs one three-way product per vertex
triple: k-stars trade candidate geometry (``n`` per-user contributions
instead of ``C(n, 3)`` triples) for a protocol that any backend name
executes identically, since there is nothing to schedule.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.core.backends.base import CountResult
from repro.crypto.protocol import TwoServerRuntime
from repro.crypto.ring import Ring, ring_of
from repro.crypto.sharing import share_per_user
from repro.crypto.views import ViewRecorder
from repro.exceptions import ConfigurationError
from repro.graph.graph import Graph
from repro.stats.base import SubgraphStatistic, row_degree_cap, validate_projected_rows
from repro.stats.registry import register_statistic
from repro.telemetry import resolve_telemetry
from repro.utils.rng import RandomState

__all__ = ["KStarStatistic", "count_k_stars_exact", "k_star_sensitivity_bounded"]


def _binomials_per_distinct_degree(degrees, k: int):
    """``C(d, k)`` once per distinct degree ``d``.

    Returns the exact (arbitrary-precision) binomials of the distinct
    degrees, the index of each input degree's distinct value, and the
    multiplicity of each distinct value.  Degree sequences repeat heavily, so
    this evaluates far fewer binomials than one per user.
    """
    distinct, inverse, multiplicity = np.unique(
        np.asarray(degrees, dtype=np.int64).reshape(-1),
        return_inverse=True,
        return_counts=True,
    )
    return [math.comb(int(d), k) for d in distinct], inverse, multiplicity


def count_k_stars_exact(degrees: Sequence[int], k: int) -> int:
    """``sum_v C(d_v, k)`` from a degree sequence.

    Examples
    --------
    >>> count_k_stars_exact([2, 2, 2], 2)  # a triangle has 3 wedges
    3
    """
    if k < 1:
        raise ConfigurationError(f"k must be at least 1, got {k}")
    binomials, _, multiplicity = _binomials_per_distinct_degree(degrees, k)
    return sum(value * int(times) for value, times in zip(binomials, multiplicity))


def k_star_sensitivity_bounded(degree_bound: float, k: int) -> float:
    """Edge-DP k-star sensitivity on a θ-bounded graph: ``2 · C(θ-1, k-1)``.

    Flipping edge ``{u, v}`` moves each endpoint's contribution by
    ``C(d-1, k-1) <= C(θ-1, k-1)``; clamped below at 1 so noise scales stay
    positive on degenerate graphs.
    """
    if k < 1:
        raise ConfigurationError(f"k must be at least 1, got {k}")
    bound = max(int(degree_bound), 0)
    return max(2.0 * math.comb(max(bound - 1, 0), k - 1), 1.0)


@register_statistic("kstars")
class KStarStatistic(SubgraphStatistic):
    """k-star counting: ``S_k = sum_v C(d_v, k)``.

    Parameters
    ----------
    k:
        Star size; ``2`` (the default) counts wedges.

    Examples
    --------
    >>> from repro.graph.graph import Graph
    >>> star = Graph(4, edges=[(0, 1), (0, 2), (0, 3)])
    >>> KStarStatistic(k=2).plain_count(star)
    3
    >>> KStarStatistic(k=3).plain_count(star)
    1
    """

    name = "kstars"
    description = "number of k-stars (a node plus k of its neighbours)"
    release_scale = 1
    supports_degree_kernel = True

    def __init__(self, k: int = 2) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be at least 1, got {k}")
        self._k = int(k)

    @property
    def k(self) -> int:
        """The star size."""
        return self._k

    @classmethod
    def from_config(cls, config) -> "KStarStatistic":
        """Read ``star_k`` from the (duck-typed) config; default 2 (wedges)."""
        return cls(k=getattr(config, "star_k", 2))

    def plain_count(self, graph: Graph) -> int:
        """Exact k-star count of a clear graph."""
        return count_k_stars_exact(graph.degrees(), self._k)

    def degree_count(self, degrees) -> int:
        """``sum_i C(d_i, k)`` straight from a (projected) degree vector."""
        return count_k_stars_exact(degrees, self._k)

    def projected_count(self, projected_rows: np.ndarray) -> int:
        """``sum_i C(row-degree_i, k)`` on the users' projected rows."""
        rows = validate_projected_rows(projected_rows)
        return self.degree_count(rows.sum(axis=1))

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
        """Additive aggregation of locally computed contributions.

        The statistic is a function of the degree sequence alone, so the
        dense entry point just reduces the rows to their degree vector and
        delegates to :meth:`secure_count_from_degrees` — one kernel, two
        input shapes, bit-identical transcripts.
        """
        rows = validate_projected_rows(projected_rows)
        return self.secure_count_from_degrees(
            rows.sum(axis=1),
            config=config,
            share_rng=share_rng,
            dealer_rng=dealer_rng,
            views=views,
            runtime=runtime,
            authenticator=authenticator,
        )

    def secure_count_from_degrees(
        self,
        degrees,
        config,
        share_rng: RandomState = None,
        dealer_rng: RandomState = None,
        views: Optional[ViewRecorder] = None,
        runtime: Optional[TwoServerRuntime] = None,
        authenticator=None,
    ) -> CountResult:
        """The sparse (degree-vector) secure kernel — ``O(n)`` memory.

        Each user's share mask comes from her own spawned generator (the
        same non-coordinating pattern as
        :func:`~repro.core.backends.base.share_adjacency_rows`, via
        :func:`~repro.crypto.sharing.share_per_user`); the servers only ever
        see uniformly masked values and their local sums.  The dealer
        substream is accepted for interface uniformity but unused — there is
        no multiplication to provision for.  Likewise the *authenticator*:
        the kernel performs **zero opening rounds**, so its only wire-borne
        value is the final release reconstruction, which the orchestrator
        MAC-checks itself.
        """
        ring: Ring = ring_of(config)
        binomials, user_binomial, _ = _binomials_per_distinct_degree(degrees, self._k)
        num_users = user_binomial.shape[0]
        tracer = resolve_telemetry(config).tracer
        with tracer.span(
            "backend",
            backend="degree-local",
            num_users=num_users,
            candidates=num_users,
            opening_rounds=0,
        ):
            # Contributions are arbitrary-precision Python ints reduced into
            # the ring once per distinct degree (C(d, k) can exceed 64 bits
            # for large stars), then gathered per user.
            encoded = np.array(
                [value & ring.mask for value in binomials], dtype=ring.dtype
            )[user_binomial]
            pair = share_per_user(encoded, ring=ring, rng=share_rng)
            share1, share2 = pair.share1, pair.share2
            if runtime is not None:
                runtime.users_to_server(1, "statistic_share", share1)
                runtime.users_to_server(2, "statistic_share", share2)
            if views is not None:
                views.observe(1, "statistic_share", share1)
                views.observe(2, "statistic_share", share2)
        return CountResult(
            share1=int(ring.sum(share1)),
            share2=int(ring.sum(share2)),
            num_triples_processed=num_users,
            opening_rounds=0,
            ring=ring,
        )

    def statistic_sensitivity(self, degree_bound: float) -> float:
        """Edge-DP sensitivity ``2 · C(θ-1, k-1)`` after projection to θ."""
        return k_star_sensitivity_bounded(degree_bound, self._k)

    def secure_output_bound(self, num_users: int, degree_bound: float) -> int:
        """``n · C(min(θ, n − 1), k)``: every user's own row degree is at most that."""
        return num_users * math.comb(row_degree_cap(num_users, degree_bound), self._k)

    def node_sensitivity(self, degree_bound: float) -> float:
        """Node-DP bound: own stars ``C(θ, k)`` plus θ neighbour shifts."""
        bound = max(int(degree_bound), 0)
        own = math.comb(bound, self._k)
        neighbours = bound * math.comb(max(bound - 1, 0), self._k - 1)
        return max(float(own + neighbours), 1.0)

    def num_candidates(self, num_users: int) -> int:
        """``n`` per-user contributions — the degree-local geometry."""
        return max(int(num_users), 0)


@register_statistic("wedges")
def _build_wedge_statistic(config=None) -> KStarStatistic:
    """The 2-star (wedge) statistic: the k-star kernel pinned at ``k = 2``."""
    return KStarStatistic(k=2)
