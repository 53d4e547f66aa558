"""Differential privacy substrate.

Provides the noise mechanisms, budget accounting, and sensitivity analysis
the CARGO protocol and its baselines rely on:

* :mod:`repro.dp.mechanisms` — Laplace, geometric, and randomized-response
  mechanisms,
* :mod:`repro.dp.discrete_laplace` — the Pólya-difference partial noise
  whose sum over ``n`` users is a discrete Laplace random variable (the
  integer form of Lemma 1's infinite divisibility),
* :mod:`repro.dp.budget` — privacy budget objects and the ε1/ε2 split,
* :mod:`repro.dp.accountant` — simple sequential-composition accounting,
* :mod:`repro.dp.sensitivity` — global/local sensitivity of degree and
  triangle queries under Edge DP and Node DP,
* :mod:`repro.dp.smooth_sensitivity` — smooth sensitivity and residual
  sensitivity of triangle counting (the Table III comparison).
"""

from repro.dp.auditing import (
    AuditResult,
    audit_mechanism,
    audit_randomized_response,
    epsilon_lower_bound_from_samples,
)
from repro.dp.budget import PrivacyBudget, split_budget
from repro.dp.accountant import PrivacyAccountant
from repro.dp.discrete_laplace import DistributedDiscreteLaplace
from repro.dp.mechanisms import (
    GeometricMechanism,
    LaplaceMechanism,
    RandomizedResponse,
)
from repro.dp.sensitivity import (
    degree_sensitivity_edge_dp,
    degree_sensitivity_node_dp,
    triangle_sensitivity_edge_dp,
    triangle_sensitivity_node_dp,
)
from repro.dp.smooth_sensitivity import (
    local_sensitivity_triangles,
    residual_sensitivity_triangles,
    smooth_sensitivity_triangles,
)

__all__ = [
    "AuditResult",
    "audit_mechanism",
    "audit_randomized_response",
    "epsilon_lower_bound_from_samples",
    "PrivacyBudget",
    "split_budget",
    "PrivacyAccountant",
    "DistributedDiscreteLaplace",
    "LaplaceMechanism",
    "GeometricMechanism",
    "RandomizedResponse",
    "degree_sensitivity_edge_dp",
    "degree_sensitivity_node_dp",
    "triangle_sensitivity_edge_dp",
    "triangle_sensitivity_node_dp",
    "local_sensitivity_triangles",
    "residual_sensitivity_triangles",
    "smooth_sensitivity_triangles",
]
