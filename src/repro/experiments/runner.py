"""Shared experiment infrastructure.

The paper's figures are all of the form *"for each graph, for each value of a
swept parameter, run each protocol a few times and plot a summary of an error
metric"*.  :class:`ProtocolSweep` captures that shape once so each figure
module only declares what varies.

Seed scheme
-----------
All trial loops use a single documented derivation: trial ``t`` of a cell
whose base seed is ``s`` runs with seed ``s + t``.  For a bare
:func:`run_protocol_trials` call the base seed is the caller's ``base_seed``;
inside a :class:`ProtocolSweep` every (dataset, parameter, protocol) cell gets
its own deterministic base seed derived from the sweep seed and the cell's
labels (via :func:`~repro.utils.rng.stable_seed_from_name`), which makes each
cell independent of every other cell — and therefore of execution order, so a
parallel sweep (``max_workers > 1``) returns row-for-row identical reports to
a serial one.
"""

from __future__ import annotations

import inspect
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.central_lap import CentralLaplaceTriangleCounting
from repro.baselines.local_two_rounds import LocalTwoRoundsTriangleCounting
from repro.core.cargo import Cargo
from repro.core.config import CargoConfig
from repro.exceptions import ExperimentError
from repro.experiments.reporting import format_table
from repro.graph.datasets import load_dataset
from repro.graph.graph import Graph
from repro.graph.triangles import count_triangles
from repro.metrics.aggregate import aggregate_trials
from repro.metrics.error import l2_loss, relative_error
from repro.utils.rng import stable_seed_from_name


@dataclass
class ExperimentReport:
    """The output of one experiment: named rows plus rendering helpers."""

    name: str
    description: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    columns: Optional[List[str]] = None

    def add_row(self, **values: Any) -> None:
        """Append one result row."""
        self.rows.append(values)

    def to_text(self) -> str:
        """Render the report as an aligned plain-text table."""
        return format_table(self.rows, columns=self.columns, title=f"{self.name}: {self.description}")

    def column(self, key: str) -> List[Any]:
        """All values of one column, in row order."""
        return [row.get(key) for row in self.rows]

    def filter_rows(self, **criteria: Any) -> List[Dict[str, Any]]:
        """Rows whose values match every ``column=value`` criterion."""
        return [
            row
            for row in self.rows
            if all(row.get(column) == value for column, value in criteria.items())
        ]


#: Callable that builds a fresh protocol runner for a given (epsilon, seed).
ProtocolFactory = Callable[[float, int], Any]


def default_protocols(
    epsilon: float,
    counting_backend: Optional[Any] = None,
    cargo_overrides: Optional[Dict[str, Any]] = None,
) -> Dict[str, ProtocolFactory]:
    """The three protocols compared throughout the evaluation section.

    *counting_backend* (an enum member or registered name) selects CARGO's
    secure counting backend; ``None`` keeps the config default.
    *cargo_overrides* passes additional :class:`CargoConfig` fields through
    to the CARGO runs only (``workers``, ``offline_seed``, ``triple_store``,
    …); the baselines have no secure phase to tune.
    """
    cargo_kwargs = {} if counting_backend is None else {"counting_backend": counting_backend}
    if cargo_overrides:
        cargo_kwargs.update(cargo_overrides)
    return {
        "Local2Rounds": lambda eps, seed: LocalTwoRoundsTriangleCounting(epsilon=eps),
        "Cargo": lambda eps, seed: Cargo(CargoConfig(epsilon=eps, seed=seed, **cargo_kwargs)),
        "CentralLap": lambda eps, seed: CentralLaplaceTriangleCounting(epsilon=eps),
    }


def _execute_cell_payload(payload: Dict[str, Any]) -> Dict[str, float]:
    """Process-pool entry point: rebuild one sweep cell from plain data.

    Lives at module level (and consumes only picklable payloads) so a
    :class:`~concurrent.futures.ProcessPoolExecutor` can ship it to worker
    processes.  The graph is reloaded by dataset name inside the worker —
    datasets are deterministic synthetic graphs, so every process sees the
    identical cell the thread path would run.
    """
    from repro.parallel import TripleStore

    overrides = dict(payload["cargo_overrides"] or {})
    cache_dir = overrides.pop("triple_store_cache_dir", None)
    if cache_dir is not None:
        # In-memory stores cannot cross a process boundary; a disk-backed
        # store is rebuilt on its cache directory so cells still share
        # dealt material through the filesystem.
        overrides["triple_store"] = TripleStore(cache_dir=cache_dir)
    factories = default_protocols(
        payload["epsilon"], payload["counting_backend"], overrides
    )
    graph = load_dataset(payload["dataset"], num_nodes=payload["num_nodes"])
    return _execute_trials(
        factories[payload["protocol"]],
        graph,
        payload["epsilon"],
        payload["num_trials"],
        payload["base_seed"],
    )


def _accepts_rng(protocol: Any) -> bool:
    """Whether the runner's ``run`` accepts an ``rng`` argument.

    Decided by signature inspection rather than type checks so that new
    protocol runners (third-party or internal) get the right call convention
    without this module having to know about them: baselines take the trial
    seed at ``run()`` time, :class:`Cargo`-style runners take it in their
    config.
    """
    run = getattr(protocol, "run", None)
    if run is None:
        return False
    try:
        parameters = inspect.signature(run).parameters
    except (TypeError, ValueError):
        return False
    return "rng" in parameters


def _execute_trials(
    protocol_factory: ProtocolFactory,
    graph: Graph,
    epsilon: float,
    num_trials: int,
    base_seed: int,
) -> Dict[str, float]:
    """Run ``num_trials`` independent trials and aggregate both error metrics.

    This is the single trial loop behind :func:`run_protocol_trials` and
    :class:`ProtocolSweep`; trial ``t`` runs with seed ``base_seed + t`` (see
    the module docstring).
    """
    if num_trials <= 0:
        raise ExperimentError(f"num_trials must be positive, got {num_trials}")
    l2_values: List[float] = []
    re_values: List[float] = []
    for trial in range(num_trials):
        seed = base_seed + trial
        protocol = protocol_factory(epsilon, seed)
        # Baseline runners take the rng seed at run() time; Cargo takes it in
        # its config.  Both expose the same result interface.
        result = protocol.run(graph, rng=seed) if _accepts_rng(protocol) else protocol.run(graph)
        true_count = result.true_triangle_count
        estimate = result.noisy_triangle_count
        l2_values.append(l2_loss(true_count, estimate))
        if true_count > 0:
            re_values.append(relative_error(true_count, estimate))
    l2_aggregate = aggregate_trials(l2_values)
    re_aggregate = aggregate_trials(re_values) if re_values else None
    return {
        "l2_mean": l2_aggregate.mean,
        "l2_median": l2_aggregate.median,
        "re_mean": re_aggregate.mean if re_aggregate else float("inf"),
        "re_median": re_aggregate.median if re_aggregate else float("inf"),
    }


def run_protocol_trials(
    protocol_factory: ProtocolFactory,
    graph: Graph,
    epsilon: float,
    num_trials: int,
    base_seed: int = 0,
) -> Dict[str, float]:
    """Run one protocol *num_trials* times and aggregate both error metrics.

    Returns a dictionary with the mean/median of the l2 loss and relative
    error across trials, which is what every figure reports.
    """
    return _execute_trials(protocol_factory, graph, epsilon, num_trials, base_seed)


@dataclass(frozen=True)
class _SweepCell:
    """One (dataset, parameter, protocol) cell of a sweep, ready to execute."""

    dataset: str
    parameter_name: str
    parameter_value: Any
    protocol: str
    factory: ProtocolFactory
    graph: Graph
    epsilon: float


@dataclass
class ProtocolSweep:
    """A generic utility-versus-parameter sweep over several protocols.

    Parameters
    ----------
    datasets:
        Dataset names to evaluate on.
    num_nodes:
        Induced-subgraph size used for every dataset (the paper's default is
        2000 users; the repository default is smaller so benches stay quick).
    num_trials:
        Independent repetitions per (dataset, parameter, protocol) cell.
    seed:
        Base seed from which every trial seed is derived (see the module
        docstring for the exact scheme).
    max_workers:
        When greater than 1, sweep cells execute concurrently on a thread
        pool (or a process pool with *use_processes*).  Every cell derives
        its own seed from its labels, so the report is row-for-row identical
        to a serial run.
    use_processes:
        Run the concurrent cells on a :class:`ProcessPoolExecutor` instead
        of threads — sidesteps the GIL entirely for the Python-level parts
        of a cell at the cost of reloading each cell's (deterministic)
        dataset in the worker process.  Rows remain identical to a serial
        run; an in-memory *triple_store* cannot cross process boundaries
        (use a disk-backed one to share dealt material between processes).
    counting_backend:
        Secure counting backend for the CARGO runs in the sweep (enum member
        or registered name); ``None`` keeps the config default.
    workers:
        Per-run worker threads for each CARGO cell's secure count
        (``CargoConfig(workers=...)``); ``None`` keeps one worker.
    sparse:
        Degree-local execution policy for the CARGO cells
        (``CargoConfig(sparse=...)``: ``auto`` / ``never`` / ``force``);
        ``None`` keeps the config default.
    tile_window:
        Tile groups per schedule chunk for the blocked backend
        (``CargoConfig(tile_window=...)``); ``None`` makes the whole
        schedule one chunk.
    distributed:
        When ``True`` every CARGO cell runs on the process-separated
        runtime (``CargoConfig(distributed=...)``): dealer and servers as
        forked OS processes with all protocol messages on sockets.  Rows
        are identical to an in-process sweep (releases are bit-identical);
        ``None`` keeps the in-process engine.
    offline_seed:
        Pins the offline dealer randomness of every CARGO cell to one
        stream, which makes the dealt material identical across cells —
        combined with *triple_store* the sweep deals once and every further
        cell of the same geometry starts warm.  Evaluation-only mask reuse;
        see ``docs/performance.md``.
    triple_store:
        Optional :class:`~repro.parallel.store.TripleStore` shared by every
        CARGO cell.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` session shared by every
        CARGO cell (serial and thread-pool sweeps only: the session holds
        locks, so it cannot cross a process boundary and is silently dropped
        for ``use_processes=True`` cells).  Spans and metrics from all cells
        accumulate into the one session; reports are unchanged either way.
    """

    datasets: Sequence[str]
    num_nodes: int = 300
    num_trials: int = 3
    seed: int = 0
    max_workers: Optional[int] = None
    use_processes: bool = False
    counting_backend: Optional[Any] = None
    workers: Optional[int] = None
    sparse: Optional[str] = None
    tile_window: Optional[int] = None
    distributed: Optional[bool] = None
    offline_seed: Optional[int] = None
    triple_store: Optional[Any] = None
    telemetry: Optional[Any] = field(default=None, repr=False, compare=False)
    _graph_cache: Dict[Tuple[str, int], Graph] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def run_epsilon_sweep(self, epsilons: Sequence[float]) -> ExperimentReport:
        """Error of each protocol as ε varies (Figures 5 and 6)."""
        report = ExperimentReport(
            name="epsilon-sweep",
            description="l2 loss and relative error vs privacy budget",
            columns=["dataset", "epsilon", "protocol", "l2_mean", "re_mean"],
        )
        cells = [
            _SweepCell(
                dataset=dataset,
                parameter_name="epsilon",
                parameter_value=epsilon,
                protocol=label,
                factory=factory,
                graph=self._load_graph(dataset, self.num_nodes),
                epsilon=epsilon,
            )
            for dataset in self.datasets
            for epsilon in epsilons
            for label, factory in self._protocol_factories(epsilon).items()
        ]
        for cell, metrics in zip(cells, self._execute_cells(cells)):
            report.add_row(
                dataset=cell.dataset,
                epsilon=cell.parameter_value,
                protocol=cell.protocol,
                l2_mean=metrics["l2_mean"],
                re_mean=metrics["re_mean"],
            )
        return report

    def run_user_sweep(self, user_counts: Sequence[int], epsilon: float) -> ExperimentReport:
        """Error of each protocol as the number of users varies (Figures 7 and 8)."""
        report = ExperimentReport(
            name="user-sweep",
            description=f"l2 loss and relative error vs number of users (epsilon={epsilon})",
            columns=["dataset", "num_users", "protocol", "l2_mean", "re_mean"],
        )
        cells = [
            _SweepCell(
                dataset=dataset,
                parameter_name="num_users",
                parameter_value=num_users,
                protocol=label,
                factory=factory,
                graph=self._load_graph(dataset, num_users),
                epsilon=epsilon,
            )
            for dataset in self.datasets
            for num_users in user_counts
            for label, factory in self._protocol_factories(epsilon).items()
        ]
        for cell, metrics in zip(cells, self._execute_cells(cells)):
            report.add_row(
                dataset=cell.dataset,
                num_users=cell.parameter_value,
                protocol=cell.protocol,
                l2_mean=metrics["l2_mean"],
                re_mean=metrics["re_mean"],
            )
        return report

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _load_graph(self, dataset: str, num_nodes: int) -> Graph:
        """Load each (dataset, size) graph once and pre-compute its ground truth.

        The exact triangle count is cached on the graph instance up front so
        that concurrent trials only ever read it (no recomputation per trial,
        no write races in a parallel sweep).
        """
        key = (dataset, num_nodes)
        if key not in self._graph_cache:
            graph = load_dataset(dataset, num_nodes=num_nodes)
            count_triangles(graph)  # warm the per-graph ground-truth cache
            self._graph_cache[key] = graph
        return self._graph_cache[key]

    def _cargo_overrides(self, for_process: bool = False) -> Dict[str, Any]:
        """Extra :class:`CargoConfig` fields the sweep applies to CARGO cells."""
        overrides: Dict[str, Any] = {}
        if self.workers is not None:
            overrides["workers"] = self.workers
        if self.sparse is not None:
            overrides["sparse"] = self.sparse
        if self.tile_window is not None:
            overrides["tile_window"] = self.tile_window
        if self.distributed is not None:
            overrides["distributed"] = self.distributed
        if self.offline_seed is not None:
            overrides["offline_seed"] = self.offline_seed
        if self.triple_store is not None:
            if for_process:
                cache_dir = getattr(self.triple_store, "cache_dir", None)
                if cache_dir is not None:
                    overrides["triple_store_cache_dir"] = cache_dir
            else:
                overrides["triple_store"] = self.triple_store
        if self.telemetry is not None and not for_process:
            # The session holds locks (unpicklable); process-pool cells run
            # untraced rather than failing to serialise.
            overrides["telemetry"] = self.telemetry
        return overrides

    def _protocol_factories(self, epsilon: float) -> Dict[str, ProtocolFactory]:
        return default_protocols(epsilon, self.counting_backend, self._cargo_overrides())

    def _cell_seed(self, cell: _SweepCell) -> int:
        """Deterministic, order-independent base seed for one sweep cell."""
        label = (
            f"{cell.dataset}|{cell.parameter_name}={cell.parameter_value!r}"
            f"|{cell.protocol}|n={cell.graph.num_nodes}"
        )
        # Keep headroom so base_seed + trial stays well inside 2**63.
        return stable_seed_from_name(label, base_seed=self.seed) % (1 << 31)

    def _execute_cells(self, cells: Sequence[_SweepCell]) -> List[Dict[str, float]]:
        """Run every cell's trial loop: serially, on threads, or on processes."""

        def run_cell(cell: _SweepCell) -> Dict[str, float]:
            return _execute_trials(
                cell.factory, cell.graph, cell.epsilon, self.num_trials, self._cell_seed(cell)
            )

        if self.max_workers is None or self.max_workers <= 1 or len(cells) <= 1:
            return [run_cell(cell) for cell in cells]
        if self.use_processes:
            payloads = [
                {
                    "dataset": cell.dataset,
                    "num_nodes": cell.graph.num_nodes,
                    "protocol": cell.protocol,
                    "epsilon": cell.epsilon,
                    "num_trials": self.num_trials,
                    "base_seed": self._cell_seed(cell),
                    "counting_backend": (
                        None
                        if self.counting_backend is None
                        else getattr(self.counting_backend, "value", self.counting_backend)
                    ),
                    "cargo_overrides": self._cargo_overrides(for_process=True),
                }
                for cell in cells
            ]
            with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
                return list(pool.map(_execute_cell_payload, payloads))
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            return list(pool.map(run_cell, cells))
