"""Configuration for a CARGO protocol execution."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.backends.registry import (
    available_backends,
    backend_registered,
    resolve_backend_name,
)
from repro.crypto.ring import Ring
from repro.crypto.secure_ops import PlainOpener
from repro.dp.budget import DEFAULT_MAX_DEGREE_FRACTION, PrivacyBudget
from repro.exceptions import ConfigurationError


class CountingBackend(str, enum.Enum):
    """Which secure counting implementation `Count` uses.

    * ``FAITHFUL`` — the per-triple three-way multiplication exactly as in
      Algorithm 4.  O(n^3) scalar protocol rounds; only practical for small
      graphs but is the reference implementation.
    * ``BATCHED`` — the same per-triple protocol, but candidate triples are
      processed in vectorised blocks so each block needs a single opening
      round.  Identical messages content-wise, far fewer Python-level rounds.
    * ``BLOCKED`` — secret-shared matrix formulation (``C^T C`` then an
      element-wise product) with ``C`` masked once: the users upload
      ``E = C - X`` to both servers and the servers open one round of
      ``n (n - 1) / 2`` elements, computed in ``block_size`` tiles.
    * ``MATRIX`` — ``BLOCKED`` at its default tile width; the default
      backend for the experiments.

    Beyond these built-ins, ``counting_backend`` also accepts any string
    registered via :func:`repro.core.backends.register_backend`, so
    third-party execution strategies plug in without touching the
    orchestrator.
    """

    FAITHFUL = "faithful"
    BATCHED = "batched"
    MATRIX = "matrix"
    BLOCKED = "blocked"


@dataclass(frozen=True)
class CargoConfig:
    """All knobs of one CARGO run.

    Parameters
    ----------
    epsilon:
        Total privacy budget ε; split into (ε1, ε2) with
        *max_degree_fraction* unless an explicit :class:`PrivacyBudget` is
        supplied via *budget*.
    budget:
        Explicit (ε1, ε2) pair; overrides *epsilon* when given.
    max_degree_fraction:
        Fraction of ε spent on the `Max` step (paper default 0.1).
    counting_backend:
        Secure counting implementation to use (default: matrix backend).
        Accepts a :class:`CountingBackend` member or the registered name of
        any backend (built-in or third-party); names matching a built-in are
        normalised to the enum member, other registered names are kept as
        strings.
    statistic:
        Which subgraph statistic the protocol releases (default:
        ``triangles``).  Any name registered with
        :func:`repro.stats.register_statistic` is accepted — built-ins are
        ``triangles``, ``kstars``, ``wedges``, and ``4cycles``.
    star_k:
        Star size for the ``kstars`` statistic (``2`` counts wedges);
        ignored by other statistics.
    ring:
        Secret-sharing ring ``Z_{2^l}``.  ``None`` (default) derives ``l``
        per release, right after `Max`, from public values only: the fewest
        bits that hold the statistic's bound on its raw output on ``n`` users
        of degree at most ``⌊d'_max⌋``, `Perturb`'s integer noise up to a
        ``2^-40`` tail, and a sign bit
        (:func:`~repro.core.cargo.release_ring`).  `Count` and `Perturb`
        both run in that ring, so ring products run fewer limb-pair GEMMs;
        released counts are the same as in 64 bits.  MAC-checked releases
        count and perturb in 64 bits.  An explicit
        :class:`Ring` pins ``l``, and a release it cannot hold raises
        :class:`~repro.exceptions.ConfigurationError` after `Max`, before
        any material is dealt.
    sparse:
        Degree-local (sparse) execution policy.  ``"auto"`` (default) runs
        the whole release on degree vectors — ``O(n)`` memory, no adjacency
        matrix — whenever the configured statistic supports it (k-stars,
        wedges); transcripts are bit-identical to the dense row path, so
        this is purely a memory/scale lever.  ``"never"`` forces the dense
        path; ``"force"`` demands the sparse path and raises when the
        statistic has no degree-local kernel.
    batch_size:
        Number of candidate triples per opening round for the batched
        backend.
    block_size:
        Tile width of the blocked backend: the size of its dealt pieces and
        local products, not of its rounds or opened bytes.
    tile_window:
        When set, the blocked backend walks its tile schedule in chunks of
        at most this many groups, dealing and holding one chunk's material
        at a time, and a checkpoint journals each completed chunk.  ``None``
        (default) makes the whole schedule one chunk.  Each chunk opens one
        round of its own; released shares and every opened value are
        bit-identical for every window.
    workers:
        Worker threads for the secure count (:mod:`repro.parallel`).
        ``None`` (default) gives triangles on ``blocked``/``matrix`` the
        whole CPU budget (``len(os.sched_getaffinity(0))``, at most one
        worker per ``J`` row) once their rows are long enough to repay it
        (:func:`~repro.core.backends.blocked.default_workers`), and every
        other kernel one worker.  An in-process release caps BLAS at
        ``max(1, cores // workers)`` threads while it runs and restores the
        caller's count after, so pool workers × BLAS threads never exceed
        the cores.  Every backend runs the same execution path at every
        worker count, so transcripts, ledgers, and released counts are
        bit-identical and the knob is purely a wall-clock lever.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` bundle.  When set, the
        run records hierarchical spans and feeds the metrics registry
        (bytes per phase, opening rounds, ε spent), and
        ``CargoResult.telemetry`` carries the per-phase summary.  ``None``
        (default) disables all instrumentation beyond the legacy phase
        timings; transcripts are bit-identical either way.
    resilience:
        Optional :class:`~repro.resilience.ResilienceConfig`.  When set, the
        run wraps its fallible boundaries (pool tasks, checkpoint I/O) in
        the configured retry policy and — for the ``tile_window``
        blocked pipeline — journals completed tile windows to
        ``checkpoint_path`` so a killed run resumes bit-identically.
        ``None`` (default) keeps every fault hook a no-op.
    seed:
        Master seed for the run; all users, servers, and the dealer derive
        independent substreams from it.
    record_views:
        When ``True`` the secure operations record each server's view, which
        the security tests inspect.  Off by default (it costs memory).
    authenticate:
        When ``True`` every opening round (and the final release
        reconstruction) runs under a SPDZ-style information-theoretic MAC
        check (:mod:`repro.crypto.mac`): a cheating server triggers a typed
        :class:`~repro.exceptions.CheaterDetectedError` instead of a
        silently wrong count.  Honest authenticated runs release counts
        bit-identical to unauthenticated runs.  Off by default.
    authenticator:
        Optional pre-built :class:`~repro.crypto.mac.OpeningAuthenticator`
        to use instead of deriving one from the run seed — the injection
        point for the active-adversary harness (tamper hooks).  Setting it
        implies ``authenticate=True``, except for the key-less
        :class:`~repro.crypto.secure_ops.PlainOpener` (the perf gate's inert
        arm), which checks nothing and opens like no authenticator at all.
    track_communication:
        When ``True`` the protocol routes user/server messages through the
        :class:`~repro.crypto.protocol.TwoServerRuntime` so byte counts are
        available in the result.
    distributed:
        When ``True`` the run executes on the process-separated runtime
        (:mod:`repro.runtime`): the dealer and the two servers fork as
        separate OS processes and every share payload, provisioning frame,
        and opening round crosses a socket as wire frames.  Releases,
        ledgers, views, and MAC counters are bit-identical to the
        in-process engine; the run additionally reconciles the ledger
        against the bytes physically written and reports a ``transport``
        telemetry section.  Requires the ``triangles`` statistic and
        rejects worker pools and tile windows — see
        ``docs/distributed-runtime.md``.

    Examples
    --------
    >>> config = CargoConfig(epsilon=2.0, statistic="Wedges")
    >>> config.statistic, config.backend_name
    ('wedges', 'matrix')
    >>> budget = config.resolved_budget()
    >>> (budget.epsilon1, budget.epsilon2)
    (0.2, 1.8)
    """

    epsilon: float = 2.0
    budget: Optional[PrivacyBudget] = None
    max_degree_fraction: float = DEFAULT_MAX_DEGREE_FRACTION
    counting_backend: Union[CountingBackend, str] = CountingBackend.MATRIX
    statistic: str = "triangles"
    star_k: int = 2
    ring: Optional[Ring] = None
    sparse: str = "auto"
    batch_size: int = 4096
    block_size: int = 128
    tile_window: Optional[int] = None
    workers: Optional[int] = None
    telemetry: Optional[object] = field(default=None, compare=False, repr=False)
    resilience: Optional[object] = field(default=None, compare=False, repr=False)
    seed: Optional[int] = None
    record_views: bool = False
    track_communication: bool = False
    authenticate: bool = False
    authenticator: Optional[object] = field(default=None, compare=False, repr=False)
    distributed: bool = False

    def __post_init__(self) -> None:
        if self.authenticator is not None and not isinstance(self.authenticator, PlainOpener):
            # Only an opener that checks MACs makes the release authenticated.
            object.__setattr__(self, "authenticate", True)
        if self.budget is None and self.epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(
                f"workers must be at least 1 (or None for the default), "
                f"got {self.workers}"
            )
        if not (0 < self.max_degree_fraction < 1):
            raise ConfigurationError(
                f"max_degree_fraction must be in (0, 1), got {self.max_degree_fraction}"
            )
        if self.batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {self.batch_size}")
        if self.block_size <= 0:
            raise ConfigurationError(f"block_size must be positive, got {self.block_size}")
        if self.sparse not in ("auto", "never", "force"):
            raise ConfigurationError(
                f"sparse must be 'auto', 'never', or 'force', got {self.sparse!r}"
            )
        if self.tile_window is not None and self.tile_window < 1:
            raise ConfigurationError(
                f"tile_window must be at least 1 (or None for no windowing), "
                f"got {self.tile_window}"
            )
        if self.star_k < 1:
            raise ConfigurationError(f"star_k must be at least 1, got {self.star_k}")
        # Imported lazily: repro.stats pulls in repro.core.backends, which
        # initialises repro.core (and therefore this module) — by the time a
        # config is constructed all imports have settled.
        from repro.stats import (
            available_statistics,
            resolve_statistic_name,
            statistic_registered,
        )

        statistic_name = resolve_statistic_name(self.statistic)
        if not statistic_registered(statistic_name):
            raise ConfigurationError(
                f"unknown statistic {self.statistic!r}; "
                f"registered: {', '.join(available_statistics())}"
            )
        object.__setattr__(self, "statistic", statistic_name)
        if not isinstance(self.counting_backend, CountingBackend):
            name = resolve_backend_name(self.counting_backend)
            try:
                backend = CountingBackend(name)
            except ValueError:
                # Not a built-in: keep the registered name as a pass-through
                # so third-party backends plug in without touching this enum.
                if not backend_registered(name):
                    raise ConfigurationError(
                        f"unknown counting backend {self.counting_backend!r}; "
                        f"registered: {', '.join(available_backends())}"
                    ) from None
                backend = name
            object.__setattr__(self, "counting_backend", backend)

    @property
    def backend_name(self) -> str:
        """The configured backend's registry name (enum members normalised)."""
        return resolve_backend_name(self.counting_backend)

    def resolved_budget(self) -> PrivacyBudget:
        """The (ε1, ε2) pair this configuration resolves to."""
        if self.budget is not None:
            return self.budget
        return PrivacyBudget.from_total(self.epsilon, self.max_degree_fraction)
