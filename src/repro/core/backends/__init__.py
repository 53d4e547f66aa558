"""Pluggable secure counting backends for CARGO's `Count` phase.

All backends compute the identical projected triangle count from the same
secret shares; they differ in how the secure multiplications are grouped into
opening rounds (and therefore in round count, wall-clock time, and peak
memory).  Importing this package registers the four built-in strategies:

* ``faithful`` — one scalar three-way multiplication per candidate triple
  (the literal Algorithm 4; the reference implementation),
* ``batched`` — the faithful protocol with candidate triples grouped into
  vectorised blocks sharing one opening round,
* ``matrix`` — the monolithic secret-shared ``C^T C`` formulation: two
  opening rounds, but ``O(n^2)`` peak triple memory,
* ``blocked`` — the matrix formulation streamed in ``block_size``-wide
  tiles, I tiles fused into ranges of up to ``FUSED_DEPTH`` rows:
  ``O(block_size · max(block_size, FUSED_DEPTH))`` peak memory per opening
  round, suitable for much larger ``n``.

Third-party strategies plug in with :func:`register_backend` and are then
selectable by name via ``CargoConfig(counting_backend="<name>")``.
"""

from repro.core.backends.base import (
    CountResult,
    TriangleCounterBackend,
    share_adjacency_rows,
)
from repro.core.backends.registry import (
    available_backends,
    backend_registered,
    create_backend,
    get_backend_factory,
    register_backend,
    resolve_backend_name,
    unregister_backend,
)
from repro.core.backends.faithful import FaithfulTriangleCounter, iter_candidate_triples
from repro.core.backends.matrix import MatrixTriangleCounter
from repro.core.backends.blocked import DEFAULT_BLOCK_SIZE, BlockedMatrixTriangleCounter

__all__ = [
    "CountResult",
    "TriangleCounterBackend",
    "share_adjacency_rows",
    "available_backends",
    "backend_registered",
    "create_backend",
    "get_backend_factory",
    "register_backend",
    "resolve_backend_name",
    "unregister_backend",
    "FaithfulTriangleCounter",
    "iter_candidate_triples",
    "MatrixTriangleCounter",
    "BlockedMatrixTriangleCounter",
    "DEFAULT_BLOCK_SIZE",
]
