"""Parallel execution engine for the secure protocol.

The online phase of every counting backend decomposes into independent units
of work — ``(I, J, K)`` tiles for the blocked matrix formulation, candidate
blocks for the faithful/batched schedule, row strips of the local matrix
products for the monolithic matrix backend.  This package provides the two
pieces that turn that decomposition into a multicore engine without changing
a single value on the wire:

* :class:`~repro.parallel.pool.WorkerPool` — a deterministic fan-out of
  independent tasks onto a thread pool.  Results always come back in task
  order, reductions happen in a fixed canonical order, and per-task
  :class:`~repro.crypto.views.ViewRecorder` shards are merged in schedule
  order, so transcripts, ledgers, and released counts are bit-identical for
  any worker count (``tests/test_parallel_engine.py`` proves it).
* :class:`~repro.parallel.store.TripleStore` — a reusable offline phase.
  The dealers' correlated randomness is a deterministic function of the
  dealer seed and the run geometry, so the store memoises it under a
  :class:`~repro.parallel.store.TripleSignature` and serves it back to
  repeated runs, sweep cells, and streaming anchors, skipping the re-deal
  entirely (and optionally persisting batches to disk).

Set the worker count with ``CargoConfig(workers=...)`` (CLI ``--workers``);
the default ``workers=None`` runs the same engine with one worker.
"""

from repro.parallel.pool import WorkerPool, resolve_workers
from repro.parallel.store import (
    MaterialSequence,
    TripleSignature,
    TripleStore,
    dealer_fingerprint,
)

__all__ = [
    "WorkerPool",
    "resolve_workers",
    "MaterialSequence",
    "TripleSignature",
    "TripleStore",
    "dealer_fingerprint",
]
