"""Pluggable secure counting backends for CARGO's `Count` phase.

All backends compute the identical projected triangle count from the same
secret shares; they differ in how the secure multiplications are grouped into
opening rounds (and therefore in round count, wall-clock time, and peak
memory).  Importing this package registers the four built-in strategies:

* ``faithful`` — one scalar three-way multiplication per candidate triple
  (the literal Algorithm 4; the reference implementation),
* ``batched`` — the faithful protocol with candidate triples grouped into
  vectorised blocks sharing one opening round,
* ``blocked`` — the secret-shared ``C^T C`` formulation with ``C`` masked
  once: the users upload ``E = C - X`` to both servers, which open one round
  of ``n (n - 1) / 2`` elements, computed in ``block_size``-wide tiles
  (optionally ``tile_window`` groups at a time),
* ``matrix`` — an alias of ``blocked`` at its default tile width.

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
    "BlockedMatrixTriangleCounter",
    "DEFAULT_BLOCK_SIZE",
]
