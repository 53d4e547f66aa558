"""CARGO core: the paper's Algorithms 1-5.

* :mod:`repro.core.max_degree` — Algorithm 2 (`Max`): private estimation of
  the maximum degree under ε1-Edge LDP.
* :mod:`repro.core.projection` — Algorithm 3 (`Project`): similarity-based
  local graph projection that bounds every user's degree by ``d'_max``.
* :mod:`repro.core.backends` — Algorithm 4 (`Count`): the pluggable secure
  counting backends (``faithful``, ``batched``, ``matrix``, ``blocked``) and
  the registry that maps configuration names onto them.
* :mod:`repro.core.perturbation` — Algorithm 5 (`Perturb`): distributed
  discrete Laplace noise (Pólya differences, the integer form of the
  paper's Gamma differences) added inside the secret-shared domain.
* :mod:`repro.core.cargo` — Algorithm 1: the end-to-end protocol
  orchestration, producing a :class:`~repro.core.result.CargoResult`.

The pipeline is generalised over :mod:`repro.stats`: `Count` executes the
secure kernel of whichever registered subgraph statistic the configuration
names (``triangles`` by default), and `Perturb` calibrates its noise to
that statistic's post-projection sensitivity.
"""

from repro.core.config import CargoConfig, CountingBackend
from repro.core.max_degree import MaxDegreeEstimator, MaxDegreeResult
from repro.core.projection import (
    DegreeProjectionResult,
    ProjectionResult,
    SimilarityProjection,
    degree_similarity,
    projected_triangle_count,
)
from repro.core.backends import (
    BlockedMatrixTriangleCounter,
    FaithfulTriangleCounter,
    TriangleCounterBackend,
    available_backends,
    create_backend,
    register_backend,
)
from repro.core.perturbation import DistributedPerturbation, PerturbationResult
from repro.core.cargo import Cargo
from repro.core.node_dp import NodeDpCargo, NodeDpMaxDegreeEstimator, edge_vs_node_dp_gap
from repro.core.result import CargoResult

__all__ = [
    "CargoConfig",
    "CountingBackend",
    "MaxDegreeEstimator",
    "MaxDegreeResult",
    "SimilarityProjection",
    "ProjectionResult",
    "DegreeProjectionResult",
    "degree_similarity",
    "projected_triangle_count",
    "FaithfulTriangleCounter",
    "BlockedMatrixTriangleCounter",
    "TriangleCounterBackend",
    "available_backends",
    "create_backend",
    "register_backend",
    "DistributedPerturbation",
    "PerturbationResult",
    "Cargo",
    "NodeDpCargo",
    "NodeDpMaxDegreeEstimator",
    "edge_vs_node_dp_gap",
    "CargoResult",
]
