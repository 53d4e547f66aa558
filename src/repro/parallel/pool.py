"""Deterministic worker pool for the tile-parallel online phase.

The secure backends decompose their work into independent units (tiles,
candidate blocks, row strips) whose outputs are pure functions of the input
shares and the unit's correlated randomness.  :class:`WorkerPool` fans those
units out over a thread pool and hands the results back **in schedule
order**, so every reduction downstream happens in the same canonical order
regardless of which worker finished first.  Combined with per-unit view
shards (merged in schedule order) this makes the engine's transcripts
bit-identical for any worker count.

Threads, not processes: the hot loops are numpy kernels (`uint64` matmuls,
fused gathers, vectorised ring arithmetic) that release the GIL, so tiles
genuinely overlap on multicore hosts while shares and correlated randomness
stay shared by reference instead of being pickled across process boundaries.
Process-level parallelism lives at two other layers: whole experiment sweep
cells fan out over a process pool
(:class:`~repro.experiments.runner.ProtocolSweep` ``use_processes``), and
the protocol parties themselves can run as separate OS processes connected
by sockets (:mod:`repro.runtime`, ``CargoConfig(distributed=True)`` — see
``docs/distributed-runtime.md``).  Within one party's online phase, this
thread pool remains the parallelism mechanism.

The pool and OpenBLAS's own threads share one CPU budget
(:func:`cpu_budget`): while a pool of ``w`` workers fans out, BLAS runs
``max(1, cores // w)`` threads (:func:`~repro.parallel.blas.blas_scope`),
and its worker threads share glibc's main malloc arena, so concurrent row
tasks do not each grow an arena of their own.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.parallel.blas import blas_scope
from repro.resilience.faults import fault_point

#: glibc's ``mallopt`` parameter capping the number of malloc arenas.
_M_ARENA_MAX = -8


def cpu_budget() -> int:
    """The CPUs this process may run on: pool workers × BLAS threads stay within it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


def blas_budget(workers: int) -> int:
    """BLAS threads per worker when *workers* threads share the :func:`cpu_budget`."""
    return max(1, cpu_budget() // int(workers))


@functools.lru_cache(maxsize=None)
def _share_main_arena() -> None:
    """Make threads share glibc's main malloc arena (a no-op off glibc).

    Called before a pool first starts its threads: a thread that gets an
    arena of its own keeps it, and per-thread arenas hold on to freed
    row-task temporaries instead of returning them.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


def resolve_workers(config: Any, default: int = 1) -> int:
    """The effective worker count a duck-typed *config* requests.

    ``None`` (or a missing attribute) means *default*: one worker unless
    the caller passes its own (``blocked`` and ``matrix`` pass
    :func:`~repro.core.backends.blocked.default_workers`, up to the whole
    :func:`cpu_budget`).  Any integer ``>= 1`` is taken as is.
    Every backend runs the same execution path at every worker count, so
    the knob is purely a wall-clock lever.

    >>> resolve_workers(None), resolve_workers(None, default=2)
    (1, 2)
    >>> resolve_workers(type("C", (), {"workers": 3})(), default=2)
    3
    """
    workers = getattr(config, "workers", None)
    if workers is None:
        return int(default)
    workers = int(workers)
    if workers < 1:
        raise ConfigurationError(f"workers must be at least 1, got {workers}")
    return workers


class WorkerPool:
    """Fan independent tasks out over a thread pool, deterministically.

    Parameters
    ----------
    workers:
        Number of worker threads.  ``1`` executes tasks inline (no pool),
        which is bit-identical to any larger count because results are
        always consumed in task order.

    Examples
    --------
    >>> pool = WorkerPool(2)
    >>> pool.map([lambda: 1, lambda: 2, lambda: 3])
    [1, 2, 3]
    """

    def __init__(self, workers: int, retry=None, metrics=None) -> None:
        workers = int(workers)
        if workers < 1:
            raise ConfigurationError(f"workers must be at least 1, got {workers}")
        self._workers = workers
        self._executor: ThreadPoolExecutor | None = None
        self._retry = retry
        self._metrics = metrics

    @property
    def workers(self) -> int:
        """Number of worker threads this pool fans out to."""
        return self._workers

    def configure_resilience(self, retry=None, metrics=None) -> None:
        """Attach a retry policy (and metrics sink) to every task execution.

        A task that raises a transient failure (an injected ``OSError`` from
        a worker-crash fault, a flaky I/O boundary inside a tile) is re-run
        under the policy's deterministic schedule.  Tasks are pure functions
        of their inputs, so a retried task reproduces the exact output the
        first attempt would have produced — transcripts stay bit-identical.
        """
        if retry is not None:
            self._retry = retry
        if metrics is not None:
            self._metrics = metrics

    def _run_task(self, task: Callable[[], Any]) -> Any:
        def attempt():
            fault_point("pool.task")
            return task()

        if self._retry is not None:
            return self._retry.run("pool.task", attempt, metrics=self._metrics)
        return attempt()

    def map(self, tasks: Sequence[Callable[[], Any]]) -> List[Any]:
        """Run every task and return the results **in task order**.

        The order tasks *complete* in is scheduler-dependent; the order their
        results are returned (and therefore reduced, and their view shards
        merged) never is.  The underlying thread pool is created lazily and
        reused across calls (the wave-based engines call :meth:`map` many
        times per run); its idle workers exit when the pool is
        garbage-collected.  While the tasks run, BLAS is capped at
        :func:`blas_budget` threads.
        """
        tasks = list(tasks)
        if self._workers == 1 or len(tasks) <= 1:
            return [self._run_task(task) for task in tasks]
        if self._executor is None:
            _share_main_arena()
            self._executor = ThreadPoolExecutor(max_workers=self._workers)
        with blas_scope(blas_budget(self._workers)):
            futures = [self._executor.submit(self._run_task, task) for task in tasks]
            return [future.result() for future in futures]

    def matmul(self, ring, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Ring matrix product ``a @ b`` computed in parallel row strips.

        Each output row is a function of one row of *a* and all of *b*, so
        splitting *a* into contiguous strips and concatenating the strip
        products reproduces the serial result element for element — the
        parallelism is invisible to the transcript.
        """
        a = np.asarray(a, dtype=ring.dtype)
        b = np.asarray(b, dtype=ring.dtype)
        strips = min(self._workers, max(int(a.shape[0]), 1))
        if strips <= 1:
            return ring.matmul(a, b)
        bounds = np.linspace(0, a.shape[0], strips + 1, dtype=np.int64)
        pieces = self.map(
            [
                (lambda lo=lo, hi=hi: ring.matmul(a[lo:hi], b))
                for lo, hi in zip(bounds[:-1], bounds[1:])
                if hi > lo
            ]
        )
        return np.concatenate(pieces, axis=0)

    def ring_matmul(self, ring) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """A ``matmul(a, b)`` callable bound to *ring* (dealer/secure-op hook)."""
        return lambda a, b: self.matmul(ring, a, b)

