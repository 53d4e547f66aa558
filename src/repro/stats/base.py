"""The subgraph-statistic contract: one object per privately released count.

CARGO's two-server architecture — private `Max`, similarity projection,
secure `Count` on secret shares, calibrated noise — is statistic-agnostic:
nothing in the pipeline is specific to triangles except the counting kernel,
its sensitivity bound, and the geometry of the candidate set the servers
enumerate.  :class:`SubgraphStatistic` bundles exactly those three pieces so
the orchestrator (:class:`~repro.core.cargo.Cargo`) can release *any*
registered subgraph count through the same protocol:

* the **plain kernel** (:meth:`plain_count` / :meth:`projected_count`) —
  the exact count on a clear graph and on the users' projected bit vectors,
* the **secure-share formulation** (:meth:`secure_count`) — how the two
  servers evaluate the same quantity on additive secret shares, reusing the
  counting-backend registry, Beaver/multiplication-group dealers, and the
  communication runtime,
* the **sensitivity bound** (:meth:`statistic_sensitivity` /
  :meth:`node_sensitivity`) — how much one edge (Edge-DP) or one node
  (Node-DP) can move the count on a degree-bounded graph, which calibrates
  the `Perturb` noise, and
* the **candidate geometry** (:meth:`num_candidates`) — how many secure
  products the servers' enumeration processes, the quantity cost models and
  the progress accounting are built on.

Some statistics are most naturally evaluated on an integer multiple of the
final count (the 4-cycle kernel computes ``4 · #C4`` so the servers never
divide inside the ring, where division is not defined); :attr:`release_scale`
records that multiple and the orchestrator divides once after the noisy
reconstruction — post-processing, so the DP guarantee is untouched.

Concrete statistics register with
:func:`~repro.stats.registry.register_statistic`, the exact pattern of the
counting-backend registry, and are selected by name through
``CargoConfig(statistic=...)``.

.. note::
   Modules in :mod:`repro.stats` must not import :mod:`repro.analysis`,
   :mod:`repro.core.config` or :mod:`repro.core.cargo` at module level:
   ``Cargo`` imports this package while :mod:`repro.core` is still
   initialising, and :mod:`repro.analysis` imports ``Cargo``.  Plain
   counting kernels therefore live here (on the statistic objects) and
   :mod:`repro.analysis.subgraphs` re-exports them, not the other way
   around.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.core.backends.base import CountResult
from repro.crypto.protocol import TwoServerRuntime
from repro.crypto.views import ViewRecorder
from repro.exceptions import ProtocolError
from repro.graph.graph import Graph
from repro.utils.rng import RandomState

__all__ = ["SubgraphStatistic", "row_degree_cap", "validate_projected_rows"]


def validate_projected_rows(projected_rows: np.ndarray) -> np.ndarray:
    """Coerce *projected_rows* to a square int64 matrix (the users' bit rows).

    Every statistic's plaintext and secure kernels consume the same object:
    one (possibly asymmetric, because projection is local) 0/1 row per user.

    Examples
    --------
    >>> import numpy as np
    >>> validate_projected_rows(np.eye(3)).dtype
    dtype('int64')
    """
    rows = np.asarray(projected_rows, dtype=np.int64)
    if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
        raise ProtocolError(f"projected_rows must be a square matrix, got {rows.shape}")
    return rows


def row_degree_cap(num_users: int, degree_bound: float) -> int:
    """Most ones a projected row holds: ``θ = ⌊degree_bound⌋``, at most ``n − 1``.

    >>> row_degree_cap(10, 4.7), row_degree_cap(3, 9.0), row_degree_cap(0, 2.0)
    (4, 2, 0)
    """
    return max(min(int(degree_bound), num_users - 1), 0)


class SubgraphStatistic(abc.ABC):
    """Abstract base class for privately releasable subgraph statistics.

    Subclasses define the class attributes :attr:`name` (the registry key),
    :attr:`description`, and :attr:`release_scale`, plus the abstract
    methods below.  The pair convention shared by every built-in kernel is
    the one Algorithm 4 fixes for triangles: the bit for the unordered pair
    ``{u, v}`` with ``u < v`` is always read from user ``u``'s (projected)
    row, so asymmetric local projections yield a well-defined count.
    """

    #: Registry key; subclasses override.
    name: str = ""
    #: One-line human description for CLIs and docs.
    description: str = ""
    #: The secure kernel computes ``release_scale * statistic``; the
    #: orchestrator divides once after the noisy reconstruction.
    release_scale: int = 1
    #: ``True`` for statistics that are functions of the degree sequence
    #: alone (k-stars, wedges).  Such statistics implement
    #: :meth:`degree_count` and :meth:`secure_count_from_degrees`, which lets
    #: the orchestrators run the whole release on degree vectors — ``O(n)``
    #: memory, no adjacency matrix — while remaining bit-identical to the
    #: dense row path.
    supports_degree_kernel: bool = False

    # ------------------------------------------------------------------ #
    # Plain kernel
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def plain_count(self, graph: Graph) -> int:
        """Exact statistic on a clear :class:`~repro.graph.graph.Graph`.

        Evaluation-only ground truth; a deployment never computes it.
        """

    @abc.abstractmethod
    def projected_count(self, projected_rows: np.ndarray) -> int:
        """Exact statistic on the users' (projected) bit rows.

        This is the quantity the secure kernel protects — the plaintext
        evaluation of the very expression the servers compute on shares, so
        ``secure_count(...).reconstruct() // release_scale`` must equal it
        bit for bit.
        """

    # ------------------------------------------------------------------ #
    # Secure-share formulation
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
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
        """Run the users' upload plus the two-server secure evaluation.

        Parameters
        ----------
        projected_rows:
            The users' projected bit rows (each user knows only her own).
        config:
            Duck-typed configuration; only the attributes a statistic needs
            (``ring``, ``counting_backend``, ``batch_size``, ``block_size``,
            ``star_k``, …) are read, so :class:`~repro.core.config.CargoConfig`
            and :class:`~repro.stream.orchestrator.StreamingConfig` both work.
        share_rng / dealer_rng:
            Independent substreams for the users' share masks and the
            offline dealer.
        views:
            Optional per-server view recorder for the security tests.
        runtime:
            Optional communication runtime; when given, user uploads are
            routed through it so they appear in the ledger.
        authenticator:
            Optional :class:`~repro.crypto.mac.OpeningAuthenticator`; when
            given, every opening round of the secure evaluation runs under
            its batched MAC check (statistics with zero opening rounds
            simply ignore it — the final release reconstruction is covered
            by the orchestrator).

        Returns
        -------
        CountResult
            Shares of ``release_scale *`` the projected statistic.
        """

    # ------------------------------------------------------------------ #
    # Optional degree-local (sparse) kernel
    # ------------------------------------------------------------------ #
    def degree_count(self, degrees: np.ndarray) -> int:
        """Exact statistic from a (projected) degree vector.

        Only meaningful when :attr:`supports_degree_kernel` is ``True``; a
        degree-local statistic must satisfy
        ``degree_count(rows.sum(axis=1)) == projected_count(rows)`` for every
        square 0/1 row matrix, which is what makes the sparse path a drop-in
        replacement for the dense one.
        """
        raise ProtocolError(
            f"statistic {self.name!r} has no degree-local kernel; "
            "it needs the full projected rows"
        )

    def secure_count_from_degrees(
        self,
        degrees: np.ndarray,
        config,
        share_rng: RandomState = None,
        dealer_rng: RandomState = None,
        views: Optional[ViewRecorder] = None,
        runtime: Optional[TwoServerRuntime] = None,
        authenticator=None,
    ) -> CountResult:
        """Secure kernel on a (projected) degree vector instead of bit rows.

        The sparse twin of :meth:`secure_count`: the transcript (messages,
        share values, reconstruction) must be bit-identical to
        ``secure_count(rows, ...)`` whenever ``degrees == rows.sum(axis=1)``
        and the same ``share_rng`` substream is supplied.  Peak memory is
        ``O(n)``, so degree-local statistics release at scales where the
        ``n x n`` row matrix cannot exist.
        """
        raise ProtocolError(
            f"statistic {self.name!r} has no degree-local secure kernel; "
            "it needs the full projected rows"
        )

    # ------------------------------------------------------------------ #
    # Sensitivity after degree projection
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def statistic_sensitivity(self, degree_bound: float) -> float:
        """Edge-DP sensitivity of the statistic on a ``degree_bound``-bounded graph.

        The bound that calibrates the Laplace noise once projection has
        enforced ``degree_bound`` on every user's row (CARGO passes the noisy
        maximum degree ``d'_max``).  Expressed in units of the *statistic*,
        not of the scaled secure output; the orchestrator multiplies by
        :attr:`release_scale` when it perturbs the raw shares.
        """

    @abc.abstractmethod
    def node_sensitivity(self, degree_bound: float) -> float:
        """Node-DP sensitivity on a degree-bounded graph (paper's extension)."""

    def secure_output_bound(self, num_users: int, degree_bound: float) -> Optional[int]:
        """Public bound on the raw secure output once projection enforced *degree_bound*.

        An integer no smaller than ``release_scale *`` the projected
        statistic on any ``num_users``-user input whose projected rows each
        hold at most ``θ = ⌊degree_bound⌋`` ones, read under the kernel's own
        pair convention.  It depends on public values only, so a release
        derives its ring width from it (:func:`~repro.core.cargo.release_ring`).
        ``None`` (this default) declares no bound, and the release keeps the
        64-bit ring.
        """
        return None

    # ------------------------------------------------------------------ #
    # Candidate-enumeration geometry
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def num_candidates(self, num_users: int) -> int:
        """Size of the candidate set the secure enumeration processes.

        Triangles enumerate ``C(n, 3)`` vertex triples, 4-cycles ``C(n, 2)``
        wedge pairs, k-stars ``n`` per-user contributions; cost models and
        the backends' progress accounting are built on this geometry.
        """

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def secure_output_sensitivity(self, degree_bound: float) -> float:
        """Sensitivity of the raw (scaled) secure output: ``scale · Δstatistic``."""
        return self.release_scale * self.statistic_sensitivity(degree_bound)

    def finalise(self, raw_value: float) -> float:
        """Undo :attr:`release_scale` on a reconstructed (possibly noisy) output."""
        if self.release_scale == 1:
            return raw_value
        return raw_value / self.release_scale

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
