"""Parallel execution engine for the secure protocol.

The online phase of every counting backend decomposes into independent units
of work — ``(J, K)`` tile groups for the blocked matrix formulation, candidate
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

Set the worker count with ``CargoConfig(workers=...)`` (CLI ``--workers``).
The default ``workers=None`` gives the ``blocked`` and ``matrix`` backends
the whole :func:`~repro.parallel.pool.cpu_budget` and every other backend
one worker.  Pool workers and BLAS threads share that budget
(:mod:`repro.parallel.blas`).
"""

from repro.parallel.blas import blas_scope, blas_threads, limit_blas_threads
from repro.parallel.pool import WorkerPool, blas_budget, cpu_budget, resolve_workers
from repro.parallel.store import (
    MaterialSequence,
    TripleSignature,
    TripleStore,
    dealer_fingerprint,
)

__all__ = [
    "WorkerPool",
    "blas_budget",
    "blas_scope",
    "blas_threads",
    "cpu_budget",
    "limit_blas_threads",
    "resolve_workers",
    "MaterialSequence",
    "TripleSignature",
    "TripleStore",
    "dealer_fingerprint",
]
