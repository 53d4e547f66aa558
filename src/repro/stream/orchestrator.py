"""Continual private subgraph-statistic release over an edge stream.

:class:`StreamingCargo` turns the one-shot CARGO pipeline into a continual-
release system for any registered statistic (triangles by default):

1. an incremental maintainer (:func:`~repro.stream.delta.make_maintainer`)
   tracks the exact count per edge event — ``O(min degree)`` for triangles,
   ``O(1)`` for k-stars, a length-3 path count for 4-cycles,
2. a release policy (every-``k``-events or a fixed stream-time cadence)
   decides *when* an estimate is published,
3. a :class:`~repro.stream.release.BinaryTreeRelease` turns the per-release
   deltas into noisy prefix sums, so ``T`` releases cost a single total ε
   with only ``O(log T)`` accountant ledger entries, and
4. optionally, every *anchor_every*-th release re-runs the statistic's
   secure `Count` kernel (through any registered counting backend) to
   obtain a fresh, independently perturbed absolute count.  The anchor is *blended* with the
   continual estimate by inverse-variance weighting (the continual side uses
   a conservative upper bound on its variance), so a noisy anchor is
   discounted instead of replacing the estimate outright and
   continual-release noise cannot accumulate unboundedly across the stream
   lifetime.  Between anchors the served estimate is ``base + (noisy prefix
   now − noisy prefix at the anchor)``.

Sensitivity caveats: the anchor's Laplace scale uses ``anchor_sensitivity``
when configured; otherwise each anchor spends a
:data:`~repro.dp.budget.DEFAULT_MAX_DEGREE_FRACTION` slice of its own budget
on a private maximum-degree estimate (one-shot CARGO's `Max` step).  Either
way the snapshot is *projected* to the bound before the secure count — a
degree bound is only a valid statistic sensitivity for the projected
graph — so each anchor is a faithful mini-CARGO pass and ε-DP end to end.
The tree mechanism's noise is scaled by ``delta_sensitivity``, whose
default of 1.0 bounds the edge-event count rather than the statistic delta
(one edge closes up to ``d_max`` triangles and up to ``(d_max-1)²``
4-cycles); production deployments should supply the configured statistic's
sensitivity at their projection's degree bound
(``statistic.statistic_sensitivity(θ)``), mirroring the anchor path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.core.config import CountingBackend
from repro.core.backends.registry import (
    available_backends,
    backend_registered,
    resolve_backend_name,
)
from repro.core.cargo import resolve_sparse_mode
from repro.core.max_degree import MaxDegreeEstimator
from repro.core.projection import SimilarityProjection
from repro.crypto.ring import DEFAULT_RING, Ring
from repro.dp.accountant import PrivacyAccountant
from repro.dp.budget import DEFAULT_MAX_DEGREE_FRACTION
from repro.dp.mechanisms import LaplaceMechanism
from repro.exceptions import ConfigurationError, StreamError
from repro.graph.graph import Graph
from repro.stats import (
    available_statistics,
    create_statistic,
    resolve_statistic_name,
    statistic_registered,
)
from repro.stream.delta import make_maintainer
from repro.stream.events import EdgeStream
from repro.resilience import Checkpointer, resolve_resilience
from repro.resilience.faults import fault_point
from repro.stream.release import (
    BinaryTreeRelease,
    EveryKEventsPolicy,
    FixedIntervalPolicy,
    ReleasePolicy,
)
from repro.telemetry import Tracer, build_result_telemetry, resolve_telemetry
from repro.utils.rng import derive_rng, restore_rng_position, rng_position, spawn_rngs

__all__ = ["StreamingConfig", "StreamRelease", "StreamingResult", "StreamingCargo"]


def _release_schedule(stream: "EdgeStream", policy, final_release: bool):
    """Yield ``(event_index, event, release_now)`` for every event in *stream*.

    This is the single source of truth for when a release happens — both
    :meth:`StreamingConfig.expected_releases` (capacity and anchor planning)
    and :meth:`StreamingCargo.run` iterate it, so the plan can never diverge
    from what the run publishes.
    """
    num_events = len(stream)
    last_index = 0
    last_time = 0.0
    for index, event in enumerate(stream, start=1):
        due = policy.should_release(index, event.time, last_index, last_time)
        release_now = due or (index == num_events and final_release)
        if release_now:
            last_index = index
            last_time = event.time
        yield index, event, release_now


@dataclass(frozen=True)
class StreamingConfig:
    """All knobs of one continual-release run.

    Parameters
    ----------
    epsilon:
        Total privacy budget for the whole stream.  When anchors are enabled
        it is split: ``(1 - anchor_fraction) · ε`` funds the binary-tree
        continual release and ``anchor_fraction · ε`` is divided evenly among
        the planned anchors.
    release_every:
        Publish a release every this many applied events (the default
        policy).  Ignored when *release_interval* is set.
    release_interval:
        When set, publish on a fixed stream-time cadence (synthetic seconds)
        instead of an event count.
    anchor_every:
        Re-run the secure `Count` phase every this many releases; ``0``
        disables anchoring.
    anchor_fraction:
        Fraction of ε reserved for anchors when they are enabled.  The
        reserved budget is divided evenly among the anchors the *actual
        stream* can produce (computed at ``run()`` time), not the tree
        capacity, so long capacity headroom does not starve each anchor.
    max_releases:
        Capacity ``T`` of the binary-tree mechanism.  ``None`` (the default)
        derives a tight capacity from the stream at ``run()`` time — the
        right choice for almost all callers.  An explicit value fixes the
        tree depth up front (e.g. for an open-ended deployment); streams
        that would release more often than it raise rather than silently
        overspending.
    delta_sensitivity:
        L1 sensitivity of one release's aggregated delta — how much the
        protected unit (one edge, under Edge-DP) can change the sum of deltas
        inside a single release window.  **The ε guarantee is only as honest
        as this bound**, and the bound is *per statistic*: one edge flip
        moves the count by up to ``θ`` for triangles, ``2·C(θ-1, k-1)`` for
        k-stars, and ``(θ-1)²`` for 4-cycles on a θ-degree-bounded graph —
        exactly ``statistic.statistic_sensitivity(θ)``, the same bound the
        anchor path applies.  The default of 1.0 protects only the
        *edge-event count* and understates every statistic's delta.
        Deployments must set it to the configured statistic's sensitivity at
        the degree bound their projection enforces; the evaluation
        experiments keep the default because they report accuracy
        trajectories, not a formal guarantee.
    anchor_sensitivity:
        Public sensitivity bound for the anchor perturbation.  ``None`` (the
        default) makes each anchor privately estimate the maximum degree
        with a fraction of its own budget — CARGO's `Max` step — and use
        that ``d'_max``, keeping the anchor ε-DP without any configured
        bound.
    counting_backend:
        Registered name (or :class:`~repro.core.config.CountingBackend`
        member) of the secure backend anchors run through.
    statistic:
        Registered name of the subgraph statistic the stream maintains and
        anchors (default ``triangles``; any
        :func:`repro.stats.register_statistic` name works — built-ins get a
        bespoke incremental maintainer, others fall back to exact
        recounting per event).
    star_k:
        Star size for the ``kstars`` statistic; ignored by other statistics.
    ring / block_size / batch_size:
        Backend construction parameters, mirroring
        :class:`~repro.core.config.CargoConfig`.
    workers:
        Worker threads for each anchor's secure count; ``None`` (default)
        means one.  Transcripts and released estimates are identical for
        every count.
    sparse:
        Degree-local anchor policy, mirroring ``CargoConfig.sparse``:
        ``"auto"`` (the default) runs anchors for degree statistics
        (k-stars/wedges) on the ``O(n)`` secret-shared degree vector
        instead of the ``n x n`` projected rows — released estimates are
        bit-identical either way; ``"never"`` forces the dense path;
        ``"force"`` raises for statistics without a degree kernel.
    memory_mode:
        ``"full"`` (the default) keeps the classic graph-backed incremental
        maintainer; ``"bounded"`` swaps in the bounded-memory maintainers —
        degree-vector state for k-stars/wedges, capped neighbour sets with
        an exact edge-set fallback for triangles — with bit-identical
        running counts.  Bounded mode keeps no graph snapshot, so anchors
        require the degree-local path (a non-degree statistic with anchors
        enabled raises at ``run()``).
    neighbor_cap:
        Per-node neighbour budget for the bounded triangle maintainer
        (``None`` uses :data:`repro.stream.delta.DEFAULT_NEIGHBOR_CAP`);
        ignored outside ``memory_mode="bounded"``.
    triple_store:
        Optional :class:`~repro.parallel.store.TripleStore`.  When set, the
        offline dealer randomness is pinned per run (one fixed substream
        reused by every anchor) so all anchors after the first fetch their
        correlated randomness warm instead of re-dealing.  Like
        ``offline_seed``, this reuses masks across anchor snapshots —
        evaluation-only; see ``docs/performance.md``.
    offline_seed:
        When set, anchors deal from ``derive_rng(offline_seed)`` (shared
        with any other run pinning the same value), making the dealt
        material reusable across whole runs, not just within one.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` session.  When set (and
        enabled) the run records a hierarchical span tree (run → anchor /
        release), stream metrics (events, releases, anchors, per-ledger-entry
        ε, anchor/release latency histograms), and a release entry for the
        exportable run manifest.  ``None`` (the default) is a true no-op and
        never perturbs released estimates either way.
    resilience:
        Optional :class:`~repro.resilience.ResilienceConfig`.  When set, each
        anchor runs inside an accountant transaction with its randomness
        substreams snapshotted (a failed anchor is retried under the
        configured policy with no double-spent ε and no divergent
        randomness), triple-store reads are retried/verified as configured,
        and — with a ``checkpoint_path`` — the run checkpoints its complete
        recovery state after every ``checkpoint_every``-th release so a
        killed process resumes (``resume=True``) with bit-identical
        releases, ledger, and transcripts.  ``None`` (the default) disables
        everything.
    seed:
        Master seed; the tree noise, the anchor noise, the share masks and
        the dealer all derive independent substreams from it.
    final_release:
        Publish one last release at end-of-stream even if the policy has not
        fired, so the stream's terminal state is always served.
    """

    epsilon: float = 2.0
    release_every: int = 64
    release_interval: Optional[float] = None
    anchor_every: int = 0
    anchor_fraction: float = 0.5
    max_releases: Optional[int] = None
    delta_sensitivity: float = 1.0
    anchor_sensitivity: Optional[float] = None
    counting_backend: Union[CountingBackend, str] = CountingBackend.MATRIX
    statistic: str = "triangles"
    star_k: int = 2
    ring: Ring = DEFAULT_RING
    block_size: int = 128
    batch_size: int = 4096
    workers: Optional[int] = None
    sparse: str = "auto"
    memory_mode: str = "full"
    neighbor_cap: Optional[int] = None
    triple_store: Optional[object] = field(default=None, compare=False, repr=False)
    offline_seed: Optional[int] = None
    telemetry: Optional[object] = field(default=None, compare=False, repr=False)
    resilience: Optional[object] = field(default=None, compare=False, repr=False)
    seed: Optional[int] = None
    final_release: bool = True

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(
                f"workers must be at least 1 (or None for one worker), "
                f"got {self.workers}"
            )
        if self.release_every <= 0:
            raise ConfigurationError(
                f"release_every must be positive, got {self.release_every}"
            )
        if self.release_interval is not None and self.release_interval <= 0:
            raise ConfigurationError(
                f"release_interval must be positive, got {self.release_interval}"
            )
        if self.anchor_every < 0:
            raise ConfigurationError(
                f"anchor_every must be non-negative, got {self.anchor_every}"
            )
        if self.anchor_every > 0 and not (0 < self.anchor_fraction < 1):
            raise ConfigurationError(
                f"anchor_fraction must be in (0, 1), got {self.anchor_fraction}"
            )
        if self.max_releases is not None and self.max_releases <= 0:
            raise ConfigurationError(
                f"max_releases must be positive, got {self.max_releases}"
            )
        if self.delta_sensitivity <= 0:
            raise ConfigurationError(
                f"delta_sensitivity must be positive, got {self.delta_sensitivity}"
            )
        if self.anchor_sensitivity is not None and self.anchor_sensitivity <= 0:
            raise ConfigurationError(
                f"anchor_sensitivity must be positive, got {self.anchor_sensitivity}"
            )
        if self.sparse not in ("auto", "never", "force"):
            raise ConfigurationError(
                f"sparse must be 'auto', 'never' or 'force', got {self.sparse!r}"
            )
        if self.memory_mode not in ("full", "bounded"):
            raise ConfigurationError(
                f"memory_mode must be 'full' or 'bounded', got {self.memory_mode!r}"
            )
        if self.neighbor_cap is not None and self.neighbor_cap < 1:
            raise ConfigurationError(
                f"neighbor_cap must be at least 1, got {self.neighbor_cap}"
            )
        # Validate the backend and statistic names eagerly (mirroring
        # CargoConfig) so a typo fails at construction rather than thousands
        # of events into the run.
        if not backend_registered(self.counting_backend):
            raise ConfigurationError(
                f"unknown counting backend {self.counting_backend!r}; "
                f"registered: {', '.join(available_backends())}"
            )
        if self.star_k < 1:
            raise ConfigurationError(f"star_k must be at least 1, got {self.star_k}")
        statistic_name = resolve_statistic_name(self.statistic)
        if not statistic_registered(statistic_name):
            raise ConfigurationError(
                f"unknown statistic {self.statistic!r}; "
                f"registered: {', '.join(available_statistics())}"
            )
        object.__setattr__(self, "statistic", statistic_name)

    @property
    def backend_name(self) -> str:
        """Registry name of the anchor backend."""
        return resolve_backend_name(self.counting_backend)

    def release_policy(self) -> ReleasePolicy:
        """The policy object this configuration resolves to."""
        if self.release_interval is not None:
            return FixedIntervalPolicy(self.release_interval)
        return EveryKEventsPolicy(self.release_every)

    def expected_releases(self, stream: "EdgeStream") -> int:
        """Exact number of releases this configuration publishes on *stream*.

        Replays the configured policy over the stream via the same
        :func:`_release_schedule` iterator :class:`StreamingCargo` runs on,
        so tree capacity and anchor budgeting are sized to exactly what the
        run will publish — for any policy, with no over-bound leaving budget
        unspent.
        """
        schedule = _release_schedule(stream, self.release_policy(), self.final_release)
        return sum(1 for _, _, release_now in schedule if release_now)

    def planned_anchors(self, num_releases: Optional[int] = None) -> int:
        """How many cadence anchors the budget is divided among (0 when disabled).

        *num_releases* is how many releases the run will actually publish;
        it defaults to ``max_releases`` (and must be supplied when that is
        ``None`` and anchors are enabled).
        """
        if self.anchor_every <= 0:
            return 0
        if num_releases is None:
            num_releases = self.max_releases
        if num_releases is None:
            raise ConfigurationError(
                "planned_anchors needs num_releases when max_releases is None"
            )
        return num_releases // self.anchor_every

    def release_epsilon(self) -> float:
        """Budget funding the binary-tree continual release."""
        if self.anchor_every > 0:
            return self.epsilon * (1.0 - self.anchor_fraction)
        return self.epsilon

    def anchor_epsilon(self, num_anchors: Optional[int] = None) -> float:
        """Budget for each individual anchor (0.0 when anchors are disabled).

        *num_anchors* is the total number of anchors planned (cadence plus a
        possible bootstrap); it defaults to :meth:`planned_anchors`.
        """
        if self.anchor_every <= 0:
            return 0.0
        if num_anchors is None:
            num_anchors = self.planned_anchors()
        if num_anchors <= 0:
            return 0.0
        return self.epsilon * self.anchor_fraction / num_anchors


@dataclass(frozen=True)
class StreamRelease:
    """One published estimate.

    ``true_count`` is evaluation-only ground truth (a deployment would not
    have it); ``is_anchor`` marks releases backed by a fresh secure count.
    ``epsilon_spent`` and ``ledger_entries`` snapshot the accountant *at this
    release*, so the O(log T) budget trajectory is visible release by
    release.
    """

    index: int
    event_index: int
    time: float
    estimate: float
    true_count: int
    is_anchor: bool
    epsilon_spent: float = 0.0
    ledger_entries: int = 0

    @property
    def absolute_error(self) -> float:
        """``|T - T'|`` for this release."""
        return abs(self.true_count - self.estimate)


@dataclass
class StreamingResult:
    """Everything an experiment needs from one continual-release run."""

    releases: List[StreamRelease] = field(default_factory=list)
    events_processed: int = 0
    anchors_run: int = 0
    epsilon_spent: float = 0.0
    ledger: List[tuple] = field(default_factory=list)
    backend: str = "matrix"
    statistic: str = "triangles"
    timings: dict = field(default_factory=dict)
    capacity: int = 0
    telemetry: Optional[dict] = None

    @property
    def final_estimate(self) -> float:
        """The last published estimate (NaN when nothing was released)."""
        return self.releases[-1].estimate if self.releases else float("nan")

    @property
    def final_true_count(self) -> int:
        """Ground-truth count at the last release (0 when nothing was released)."""
        return self.releases[-1].true_count if self.releases else 0

    def mean_absolute_error(self) -> float:
        """Mean ``|T - T'|`` across releases (NaN when nothing was released)."""
        if not self.releases:
            return float("nan")
        return sum(r.absolute_error for r in self.releases) / len(self.releases)


class StreamingCargo:
    """Continual private triangle counting orchestrator.

    Examples
    --------
    >>> from repro.graph import load_dataset
    >>> from repro.stream import StreamingCargo, StreamingConfig, replay_stream
    >>> stream = replay_stream(load_dataset("facebook", num_nodes=80), rng=0)
    >>> config = StreamingConfig(epsilon=4.0, release_every=20, seed=7)
    >>> result = StreamingCargo(config).run(stream)
    >>> len(result.releases) > 0
    True
    """

    def __init__(self, config: Optional[StreamingConfig] = None) -> None:
        self._config = config if config is not None else StreamingConfig()

    @property
    def config(self) -> StreamingConfig:
        """The configuration this instance runs with."""
        return self._config

    def run(
        self, stream: EdgeStream, initial_graph: Optional[Graph] = None
    ) -> StreamingResult:
        """Process *stream* end to end and return every published release.

        The dynamic graph starts from *initial_graph* when given and from the
        empty graph on ``stream.num_nodes`` nodes otherwise.  With anchors
        enabled, a non-empty starting graph is *bootstrapped* through the
        secure-count + Laplace anchor path before the first event, so no
        release ever serves its exact count; with anchors disabled the
        starting count is treated as public (exactly like the empty graph's
        zero).
        """
        config = self._config
        if initial_graph is not None and initial_graph.num_nodes != stream.num_nodes:
            raise ConfigurationError(
                f"initial graph has {initial_graph.num_nodes} nodes but the "
                f"stream covers {stream.num_nodes}"
            )
        statistic = create_statistic(config.statistic, config)
        telemetry = resolve_telemetry(config)
        resilience = resolve_resilience(config)
        resilience_metrics = telemetry.metrics if telemetry.enabled else None
        if config.triple_store is not None and resilience.enabled:
            config.triple_store.configure_resilience(
                retry=resilience.retry,
                strict_integrity=resilience.strict_integrity,
                metrics=resilience_metrics,
            )
        # An untraced run still times its phases: a private enabled tracer
        # records only the legacy spans, so ``result.timings`` keeps the
        # exact key set the TimerRegistry era produced.
        tracer = telemetry.tracer if telemetry.enabled else Tracer()
        master_rng = derive_rng(config.seed)
        tree_rng, anchor_rng, share_rng, dealer_rng = spawn_rngs(master_rng, 4)
        # With a triple store (or an explicit offline seed) every anchor
        # deals from the same pinned substream: the dealt material becomes a
        # pure function of (seed, anchor geometry), so anchors after the
        # first fetch it warm instead of re-dealing.  Released estimates are
        # unaffected — the secure count is exact regardless of the masks.
        anchor_offline_seed: Optional[int] = None
        if config.offline_seed is not None:
            anchor_offline_seed = int(config.offline_seed)
        elif config.triple_store is not None:
            anchor_offline_seed = int(dealer_rng.integers(0, 1 << 63))

        def anchor_dealer_rng():
            if anchor_offline_seed is not None:
                return derive_rng(anchor_offline_seed)
            return dealer_rng

        # Size the tree from the stream unless the caller pinned a capacity,
        # and divide the anchor budget among the anchors this stream can
        # actually produce (capacity headroom must not starve each anchor).
        expected = config.expected_releases(stream)
        capacity = (
            config.max_releases if config.max_releases is not None else max(1, expected)
        )
        if expected > capacity:
            # Fail before any event is processed (and any budget spent)
            # rather than exhausting the tree mid-run.
            raise StreamError(
                f"stream would publish {expected} releases but max_releases "
                f"pins the tree capacity at {capacity}; raise max_releases or "
                "leave it unset to auto-size from the stream"
            )
        # A starting graph with no edges has a public count of 0 (same as no
        # starting graph), and a stream that publishes nothing has nobody to
        # serve the bootstrapped estimate to — neither may consume an
        # anchor's budget.
        bootstrap = (
            initial_graph is not None
            and initial_graph.num_edges > 0
            and config.anchor_every > 0
            and expected > 0
        )
        cadence_anchors = config.planned_anchors(min(capacity, expected))
        total_anchors = cadence_anchors + (1 if bootstrap else 0)
        epsilon_anchor = config.anchor_epsilon(total_anchors)
        # If anchors are enabled but this stream is too short for any to
        # fire, fold the reserved anchor budget back into the tree instead of
        # silently leaving it unspent (and the estimates doubly noisy).
        epsilon_release = (
            config.release_epsilon() if total_anchors > 0 else config.epsilon
        )

        accountant = PrivacyAccountant(total_budget=config.epsilon * (1.0 + 1e-9))
        tree = BinaryTreeRelease(
            epsilon=epsilon_release,
            max_releases=capacity,
            sensitivity=config.delta_sensitivity,
            accountant=accountant,
            rng=tree_rng,
        )
        # Degree-local anchors (mirroring one-shot CARGO's sparse path):
        # resolved once per run so a "force" typo on a non-degree statistic
        # fails before any budget is spent.
        use_sparse = resolve_sparse_mode(config, statistic)
        if (
            config.memory_mode == "bounded"
            and config.anchor_every > 0
            and not use_sparse
        ):
            raise ConfigurationError(
                "memory_mode='bounded' keeps no graph snapshot, so anchors "
                f"need the degree-local path; statistic {config.statistic!r} "
                "has no degree kernel (disable anchors or use memory_mode="
                "'full')"
            )
        policy = config.release_policy()
        maintainer = make_maintainer(
            statistic,
            num_nodes=stream.num_nodes,
            initial_graph=initial_graph,
            memory_mode=config.memory_mode,
            neighbor_cap=config.neighbor_cap,
        )

        result = StreamingResult(
            backend=config.backend_name,
            statistic=config.statistic,
            capacity=capacity,
        )
        # The continual estimate is served relative to the latest anchor:
        # estimate = anchor_base + (noisy prefix now - noisy prefix at anchor).
        # base_var / diff_var track the noise variance of the two terms so an
        # anchor can be blended by inverse-variance weighting below.
        anchor_base = float(maintainer.count)
        prefix_at_anchor = 0.0
        base_var = 0.0
        # Upper bound on Var(prefix_t - prefix_anchor): each prefix reads at
        # most `levels` noisy nodes of variance 2·scale² apiece.
        diff_var = 4.0 * tree.levels * tree.noise_scale**2
        pending_delta = 0
        releases_since_anchor = 0

        # Crash recovery: a checkpointer bound to this (config, stream)
        # identity, and — when resuming — the saved state swapped in before
        # any event is replayed.  Everything the continuation depends on is
        # restored bit-for-bit: the tree (with its noise substream), the
        # accountant ledger, the maintainer, the blend state, and the
        # anchor/share/dealer substream positions, so the resumed run's
        # releases and ledger are indistinguishable from an uninterrupted
        # run's.
        checkpointer = None
        resumed_event_index = 0
        if resilience.checkpoint_path is not None:
            checkpointer = Checkpointer(
                resilience.checkpoint_path,
                kind="stream",
                token=self._checkpoint_token(stream),
                retry=resilience.retry,
                metrics=resilience_metrics,
            )
        if checkpointer is not None and resilience.resume and checkpointer.exists():
            state = checkpointer.load()
            tree = state["tree"]
            accountant = state["accountant"]
            maintainer = state["maintainer"]
            restore_rng_position(anchor_rng, state["anchor_rng"])
            restore_rng_position(share_rng, state["share_rng"])
            restore_rng_position(dealer_rng, state["dealer_rng"])
            anchor_offline_seed = state["anchor_offline_seed"]
            anchor_base = state["anchor_base"]
            prefix_at_anchor = state["prefix_at_anchor"]
            base_var = state["base_var"]
            releases_since_anchor = state["releases_since_anchor"]
            result.releases = list(state["releases"])
            result.anchors_run = state["anchors_run"]
            resumed_event_index = state["event_index"]
            diff_var = 4.0 * tree.levels * tree.noise_scale**2
            bootstrap = False  # already ran (or was never due) before the save

        def run_anchor():
            """One anchor attempt, transactional and retryable.

            Each attempt snapshots the anchor/share/dealer substream
            positions (draws and spawn counters: `Max` and the share step
            spawn one child per user) and opens an accountant transaction; a
            failure rolls both back, so a retried anchor consumes exactly the
            randomness and ε the first attempt would have — the released
            estimate and the ledger are bit-identical to a fault-free run.
            """

            def attempt():
                anchor_state = rng_position(anchor_rng)
                share_state = rng_position(share_rng)
                dealer_state = rng_position(dealer_rng)
                reservation = accountant.reserve()
                try:
                    fault_point("stream.anchor")
                    return self._run_anchor(
                        statistic, maintainer, accountant, epsilon_anchor,
                        anchor_rng, share_rng, anchor_dealer_rng(), use_sparse,
                    )
                except BaseException:
                    accountant.rollback(reservation)
                    restore_rng_position(anchor_rng, anchor_state)
                    restore_rng_position(share_rng, share_state)
                    restore_rng_position(dealer_rng, dealer_state)
                    raise

            if resilience.retry is not None:
                return resilience.retry.run(
                    "stream.anchor", attempt, metrics=resilience_metrics
                )
            return attempt()

        # The root span covers the whole run *including* any bootstrap
        # anchor, so the "total" timing is genuinely end to end (the
        # TimerRegistry era excluded the bootstrap from "total").
        with tracer.span(
            "total",
            backend=config.backend_name,
            statistic=config.statistic,
            capacity=capacity,
        ) as run_span:
            if bootstrap:
                # Bootstrap anchor: a private starting graph must never be
                # served exactly, so its count is released through the secure
                # count + Laplace path before the first event, consuming one
                # planned anchor's budget.
                with tracer.span("anchor", bootstrap=True) as anchor_span:
                    anchor_base, base_var = run_anchor()
                telemetry.metrics.observe(
                    "anchor_seconds", anchor_span.seconds, statistic=config.statistic
                )
                result.anchors_run += 1
            for event_index, event, release_now in _release_schedule(
                stream, policy, config.final_release
            ):
                if event_index <= resumed_event_index:
                    # Already applied (and possibly released) before the
                    # checkpoint; the restored maintainer carries its effect.
                    continue
                pending_delta += maintainer.apply(event)
                if not release_now:
                    continue
                with tracer.span("release") as release_span:
                    noisy_prefix = tree.release(float(pending_delta))
                telemetry.metrics.observe(
                    "release_seconds", release_span.seconds, statistic=config.statistic
                )
                pending_delta = 0
                releases_since_anchor += 1
                estimate = anchor_base + (noisy_prefix - prefix_at_anchor)
                is_anchor = (
                    config.anchor_every > 0
                    and releases_since_anchor >= config.anchor_every
                    and result.anchors_run < total_anchors
                )
                if is_anchor:
                    with tracer.span("anchor") as anchor_span:
                        anchored, anchored_var = run_anchor()
                    telemetry.metrics.observe(
                        "anchor_seconds",
                        anchor_span.seconds,
                        statistic=config.statistic,
                    )
                    # Precision-weighted blend of the fresh anchor and the
                    # continual estimate; estimate_var is a conservative
                    # upper bound, so a noisy anchor is discounted rather
                    # than replacing the estimate outright.
                    estimate_var = base_var + diff_var
                    weight = estimate_var / (estimate_var + anchored_var)
                    estimate = weight * anchored + (1.0 - weight) * estimate
                    base_var = (estimate_var * anchored_var) / (
                        estimate_var + anchored_var
                    )
                    anchor_base = estimate
                    prefix_at_anchor = noisy_prefix
                    releases_since_anchor = 0
                    result.anchors_run += 1
                result.releases.append(
                    StreamRelease(
                        index=len(result.releases) + 1,
                        event_index=event_index,
                        time=event.time,
                        estimate=float(estimate),
                        true_count=maintainer.count,
                        is_anchor=is_anchor,
                        epsilon_spent=accountant.spent,
                        ledger_entries=len(accountant.ledger()),
                    )
                )
                if (
                    checkpointer is not None
                    and len(result.releases) % resilience.checkpoint_every == 0
                ):
                    # One pickle holds tree + accountant + maintainer +
                    # releases, so shared references (the tree spends through
                    # this very accountant) survive the round-trip.
                    checkpointer.save(
                        {
                            "event_index": event_index,
                            "tree": tree,
                            "accountant": accountant,
                            "maintainer": maintainer,
                            "releases": list(result.releases),
                            "anchors_run": result.anchors_run,
                            "anchor_rng": rng_position(anchor_rng),
                            "share_rng": rng_position(share_rng),
                            "dealer_rng": rng_position(dealer_rng),
                            "anchor_offline_seed": anchor_offline_seed,
                            "anchor_base": anchor_base,
                            "prefix_at_anchor": prefix_at_anchor,
                            "base_var": base_var,
                            "releases_since_anchor": releases_since_anchor,
                        }
                    )
        result.events_processed = maintainer.events_applied
        result.epsilon_spent = accountant.spent
        result.ledger = accountant.ledger()
        timings = run_span.timings()
        result.timings = timings
        if telemetry.enabled:
            metrics = telemetry.metrics
            labels = {"statistic": config.statistic, "backend": config.backend_name}
            metrics.increment("stream_events", maintainer.events_applied, **labels)
            metrics.increment("stream_releases", len(result.releases), **labels)
            metrics.increment("stream_anchors", result.anchors_run, **labels)
            for label, eps in result.ledger:
                metrics.increment("epsilon_spent", eps, mechanism=label)
            store_stats = None
            if config.triple_store is not None:
                store_stats = config.triple_store.stats()
                for key, value in store_stats.items():
                    metrics.gauge_set(f"triple_store_{key}", value)
            telemetry.record_release(
                {
                    "kind": "streaming",
                    "statistic": config.statistic,
                    "backend": config.backend_name,
                    "seed": config.seed,
                    "noisy_count": result.final_estimate,
                    "releases": len(result.releases),
                    "anchors": result.anchors_run,
                    "events": maintainer.events_applied,
                    "capacity": capacity,
                    "epsilon": {"total": config.epsilon, "spent": accountant.spent},
                    "timings": timings,
                }
            )
            result.telemetry = build_result_telemetry(
                timings, {}, triple_store_stats=store_stats
            )
        return result

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _checkpoint_token(self, stream: EdgeStream) -> str:
        """Identity token binding a checkpoint to this (config, stream) pair.

        A checkpoint resumed under a different configuration or stream shape
        could never reproduce the killed run bit-for-bit, so the
        :class:`~repro.resilience.Checkpointer` refuses it outright on a
        token mismatch.  The frozen config's ``repr`` covers every
        transcript-relevant knob (runtime-only attachments — store,
        telemetry, resilience — are ``repr=False`` and rightly excluded).
        """
        payload = f"{self._config!r}|{stream.num_nodes}|{len(stream)}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]

    def _run_anchor(
        self, statistic, maintainer, accountant, epsilon_anchor,
        anchor_rng, share_rng, dealer_rng, use_sparse=False,
    ):
        """One mini-CARGO pass over the current graph: Max → Project → Count → noise.

        The degree bound used for the Laplace sensitivity is *enforced* by
        projecting the snapshot before the secure count (exactly as
        Algorithm 1 does — a noisy ``d'_max`` is only a valid sensitivity
        bound for the projected graph), so the anchor is ε-DP whether the
        bound is the configured public ``anchor_sensitivity`` or the private
        `Max` estimate bought with a slice of this anchor's budget.  The
        secure count runs the configured statistic's share kernel and the
        noise scale is that statistic's post-projection sensitivity at the
        bound.

        With *use_sparse* (degree statistics) the anchor never materialises
        the ``n x n`` projected rows: the projection truncates the degree
        vector directly and the count runs the statistic's degree kernel,
        consuming the same randomness substreams — released estimates are
        bit-identical to the dense path wherever both can run.

        Returns ``(noisy_count, noise_variance)`` so the caller can blend the
        anchor with the continual estimate by inverse-variance weighting.
        """
        config = self._config
        degree_bound = config.anchor_sensitivity
        epsilon_count = epsilon_anchor
        noisy_degrees = None
        if degree_bound is None:
            # No public bound configured: privately estimate the maximum
            # degree with a slice of this anchor's budget, exactly as
            # one-shot CARGO's `Max` step does.
            epsilon_degree = epsilon_anchor * DEFAULT_MAX_DEGREE_FRACTION
            epsilon_count = epsilon_anchor - epsilon_degree
            estimator = MaxDegreeEstimator(epsilon_degree)
            max_result = estimator.run(maintainer.degrees(), rng=anchor_rng)
            degree_bound = max_result.noisy_max_degree
            noisy_degrees = max_result.noisy_degrees
            accountant.spend(epsilon_degree, label="anchor/max-degree")
        # Projection is a local per-user operation; with a configured public
        # bound the similarity reference falls back to the users' own degree
        # knowledge (project_graph's default).
        projection = SimilarityProjection(degree_bound)
        if use_sparse:
            projection_result = projection.project_degrees(
                maintainer.degree_vector(copy=False)
            )
            count_result = statistic.secure_count_from_degrees(
                projection_result.projected_degrees,
                config=config,
                share_rng=share_rng,
                dealer_rng=dealer_rng,
            )
        else:
            projection_result = projection.project_graph(
                maintainer.graph, noisy_degrees=noisy_degrees
            )
            count_result = statistic.secure_count(
                projection_result.projected_rows,
                config=config,
                share_rng=share_rng,
                dealer_rng=dealer_rng,
            )
        exact = statistic.finalise(float(count_result.reconstruct(config.ring)))
        mechanism = LaplaceMechanism(
            epsilon=epsilon_count,
            sensitivity=statistic.statistic_sensitivity(degree_bound),
        )
        accountant.spend(epsilon_count, label="anchor")
        return exact + mechanism.sample_noise(anchor_rng), mechanism.variance
