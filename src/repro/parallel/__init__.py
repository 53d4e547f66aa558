"""Parallel execution engine for the secure protocol.

The online phase of every counting backend decomposes into independent units
of work — ``(J, K)`` tile groups for the blocked matrix formulation, candidate
blocks for the faithful/batched schedule, row strips of the local matrix
products for the monolithic matrix backend.
:class:`~repro.parallel.pool.WorkerPool` turns that decomposition into a
multicore engine without changing a single value on the wire: a
deterministic fan-out of independent tasks onto a thread pool.  Results
always come back in task order, reductions happen in a fixed canonical
order, and per-task :class:`~repro.crypto.views.ViewRecorder` shards are
merged in schedule order, so transcripts, ledgers, and released counts are
bit-identical for any worker count (``tests/test_parallel_engine.py``
proves it).

Set the worker count with ``CargoConfig(workers=...)`` (CLI ``--workers``).
The default ``workers=None`` gives the ``blocked`` and ``matrix`` backends
the whole :func:`~repro.parallel.pool.cpu_budget` and every other backend
one worker.  Pool workers and BLAS threads share that budget
(:mod:`repro.parallel.blas`).
"""

from repro.parallel.blas import blas_scope, blas_threads, limit_blas_threads
from repro.parallel.pool import WorkerPool, blas_budget, cpu_budget, resolve_workers

__all__ = [
    "WorkerPool",
    "blas_budget",
    "blas_scope",
    "blas_threads",
    "cpu_budget",
    "limit_blas_threads",
    "resolve_workers",
]
