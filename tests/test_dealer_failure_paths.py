"""Dealer exhaustion behaviour across every backend.

When the correlated-randomness dealer cannot provision (injected as a
:class:`~repro.exceptions.DealerError` at the ``dealer.provision`` fault
site), every counting backend fails *typed*, never with a wrong count or an
opaque crash.
"""

from __future__ import annotations

import pytest

from repro.core.backends import BlockedMatrixTriangleCounter, FaithfulTriangleCounter
from repro.exceptions import DealerError
from repro.graph.generators import erdos_renyi_graph
from repro.graph.triangles import count_triangles
from repro.resilience import FaultKind, FaultPlan, FaultSpec, install_fault_plan

BACKENDS = ("faithful", "batched", "matrix", "blocked")


def _backend(name: str, **kwargs):
    if name == "faithful":
        return FaithfulTriangleCounter(batch_size=1, **kwargs)
    if name == "batched":
        return FaithfulTriangleCounter(batch_size=32, **kwargs)
    if name == "matrix":
        return BlockedMatrixTriangleCounter(**kwargs)
    if name == "blocked":
        return BlockedMatrixTriangleCounter(block_size=5, **kwargs)
    raise AssertionError(name)


def _graph(num_nodes=12, density=0.5, seed=3):
    return erdos_renyi_graph(num_nodes, density, seed=seed)


def _count(counter, graph, seed=3):
    """The backend's users' step on *graph*'s rows, then its secure count."""
    return counter.count(graph.adjacency_matrix(), rng=seed)


@pytest.mark.parametrize("name", BACKENDS)
def test_dealer_exhaustion_is_a_typed_failure(name):
    graph = _graph()
    plan = FaultPlan([FaultSpec("dealer.provision", FaultKind.EXHAUST, at=1)])
    with install_fault_plan(plan):
        with pytest.raises(DealerError):
            _count(_backend(name), graph)
    assert [entry["site"] for entry in plan.triggered()] == ["dealer.provision"]


@pytest.mark.parametrize("name", BACKENDS)
def test_late_dealer_exhaustion_is_still_typed(name):
    # Exhaustion mid-run (not on the first draw) must not surface as a
    # partial result; faithful/batched draw a run of blocks per dealer call,
    # the matrix/blocked dealers once per mask.
    graph = _graph()
    plan = FaultPlan([FaultSpec("dealer.provision", FaultKind.EXHAUST, at=2)])
    with install_fault_plan(plan):
        try:
            result = _count(_backend(name), graph)
        except DealerError:
            return  # the typed failure is the expected outcome...
    # ...unless the backend legitimately provisions only once — then the
    # fault never fires and the count must be correct.
    assert result.reconstruct() == count_triangles(graph)


@pytest.mark.parametrize("name", BACKENDS)
def test_unfaulted_count_is_exact(name):
    # Control for the exhaustion tests: the same flow without a fault plan
    # reconstructs the true count.
    graph = _graph()
    assert _count(_backend(name), graph).reconstruct() == count_triangles(graph)
