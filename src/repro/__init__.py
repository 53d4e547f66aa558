"""CARGO: crypto-assisted differentially private triangle counting.

Reproduction of Liu et al., "CARGO: Crypto-Assisted Differentially Private
Triangle Counting without Trusted Servers" (ICDE 2024).

The public API is organised by subpackage:

* :mod:`repro.graph` — graphs, generators, synthetic datasets, exact counts,
* :mod:`repro.crypto` — additive secret sharing and the two-server runtime,
* :mod:`repro.dp` — differential-privacy mechanisms and sensitivity analysis,
* :mod:`repro.core` — the CARGO protocol itself (Algorithms 1-5),
* :mod:`repro.baselines` — CentralLap△, Local2Rounds△ and friends,
* :mod:`repro.metrics` — l2 loss / relative error and trial aggregation,
* :mod:`repro.experiments` — the harness regenerating every table and figure,
* :mod:`repro.stats` — the subgraph-statistic registry (triangles, k-stars,
  4-cycles, derived clustering coefficient) the pipeline is generalised
  over,
* :mod:`repro.stream` — continual private statistic release over edge
  streams (incremental maintenance, binary-tree continual DP release,
  secure-count anchors),
* :mod:`repro.resilience` — fault injection, deterministic retries,
  integrity-checked persistence, and crash-safe checkpoint/resume.

Quickstart::

    from repro import Cargo, CargoConfig, load_dataset

    graph = load_dataset("facebook", num_nodes=400)
    result = Cargo(CargoConfig(epsilon=2.0, seed=7)).run(graph)
    print(result.noisy_triangle_count, result.relative_error)
"""

from repro._version import __version__
from repro.baselines import (
    CentralLaplaceTriangleCounting,
    LocalTwoRoundsTriangleCounting,
    NonPrivateTriangleCounting,
    OneRoundLdpTriangleCounting,
    RandomProjection,
)
from repro.core import (
    Cargo,
    CargoConfig,
    CargoResult,
    CountingBackend,
    MaxDegreeEstimator,
    SimilarityProjection,
)
from repro.dp import LaplaceMechanism, PrivacyBudget, RandomizedResponse
from repro.exceptions import (
    CheckpointError,
    IntegrityError,
    ReproError,
    RetryExhaustedError,
)
from repro.graph import Graph, available_datasets, count_triangles, load_dataset
from repro.metrics import l2_loss, relative_error
from repro.parallel import WorkerPool
from repro.resilience import FaultPlan, ResilienceConfig, RetryPolicy
from repro.stats import (
    ClusteringCoefficientRelease,
    SubgraphStatistic,
    available_statistics,
    create_statistic,
    register_statistic,
)
from repro.stream import (
    EdgeEvent,
    EdgeStream,
    IncrementalTriangleMaintainer,
    StreamingCargo,
    StreamingConfig,
    replay_stream,
)

__all__ = [
    "__version__",
    "Cargo",
    "CargoConfig",
    "CargoResult",
    "CountingBackend",
    "MaxDegreeEstimator",
    "SimilarityProjection",
    "CentralLaplaceTriangleCounting",
    "LocalTwoRoundsTriangleCounting",
    "OneRoundLdpTriangleCounting",
    "NonPrivateTriangleCounting",
    "RandomProjection",
    "LaplaceMechanism",
    "RandomizedResponse",
    "PrivacyBudget",
    "Graph",
    "load_dataset",
    "available_datasets",
    "count_triangles",
    "l2_loss",
    "relative_error",
    "WorkerPool",
    "ReproError",
    "IntegrityError",
    "CheckpointError",
    "RetryExhaustedError",
    "FaultPlan",
    "ResilienceConfig",
    "RetryPolicy",
    "SubgraphStatistic",
    "register_statistic",
    "available_statistics",
    "create_statistic",
    "ClusteringCoefficientRelease",
    "EdgeEvent",
    "EdgeStream",
    "IncrementalTriangleMaintainer",
    "StreamingCargo",
    "StreamingConfig",
    "replay_stream",
]
