"""One CPU budget per process: the OpenBLAS side.

numpy (and scipy) each bundle an OpenBLAS whose thread pool defaults to one
thread per CPU.  A process that also runs a :class:`~repro.parallel.WorkerPool`
would stack the two, so every process a release runs in keeps
``pool workers × BLAS threads ≤`` :func:`~repro.parallel.pool.cpu_budget`:

* Each process the :class:`~repro.runtime.driver.DistributedRuntime` forks
  (the dealer and both servers, three processes on the same host) caps
  every loaded OpenBLAS at one thread at entry with
  :func:`limit_blas_threads` and reports the count it runs with
  (:func:`blas_threads`) in the release's ``transport["blas_threads"]``,
  next to its OS thread count (``transport["os_threads"]``), which the cap
  must leave at the one thread a forked child starts with.
* An in-process release, and every pool fan-out, runs inside a
  :func:`blas_scope` of ``max(1, cores // workers)`` threads, which
  restores the caller's count when the last open scope closes.

There is no ``threadpoolctl`` dependency: the libraries are found in the
process's memory map and capped through the thread-count setter they
export, under the ``scipy_`` prefix and ``64_`` suffix the wheel builds
use.  Where no loaded library exports one (no ``/proc``, another BLAS),
nothing is capped and the count is ``None``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

__all__ = ["blas_scope", "blas_threads", "limit_blas_threads", "os_threads"]

#: Symbol name variants of OpenBLAS's thread-count API: plain, numpy/scipy's
#: ``scipy_`` prefix, and the ``64_`` suffix of the ILP64 builds.
_VARIANTS = [(prefix, suffix) for prefix in ("", "scipy_") for suffix in ("", "64_")]


@dataclass(frozen=True)
class _OpenBlas:
    """One loaded OpenBLAS: its thread-count setter and getter, and pool globals.

    ``pool_size`` (``blas_num_threads``) is how many threads the library
    builds its pool with; ``pool_up`` (``blas_server_avail``) says whether
    the pool exists.  Either is ``None`` where the library does not export it.
    """

    setter: object
    getter: object
    pool_size: Optional[ctypes.c_int]
    pool_up: Optional[ctypes.c_int]


def _exported_int(library, name: str) -> Optional[ctypes.c_int]:
    try:
        return ctypes.c_int.in_dll(library, name)
    except ValueError:
        return None


@functools.lru_cache(maxsize=None)
def _openblas_controls() -> Tuple[_OpenBlas, ...]:
    """Every loaded OpenBLAS's thread controls.

    Found once per process (a forked child inherits its parent's list): the
    libraries numpy and scipy load at import stay loaded.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return ()
    controls = []
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _VARIANTS:
            setter = getattr(library, f"{prefix}openblas_set_num_threads{suffix}", None)
            getter = getattr(library, f"{prefix}openblas_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append(
                    _OpenBlas(
                        setter,
                        getter,
                        _exported_int(library, "blas_num_threads"),
                        _exported_int(library, "blas_server_avail"),
                    )
                )
                break
    return tuple(controls)


def limit_blas_threads(threads: int) -> None:
    """Cap every loaded OpenBLAS at *threads* threads.

    A freshly forked child has no OpenBLAS pool (the library's fork handler
    shut it down), and the setter would rebuild it at the parent's full
    size: one thread per CPU that never computes but busy-waits when it
    starts.  So where the pool is down, its size is set to the cap first
    and the setter builds no thread beyond it.  A live pool keeps its size.
    """
    threads = int(threads)
    for blas in _openblas_controls():
        if blas.pool_size is not None and blas.pool_up is not None and not blas.pool_up.value:
            blas.pool_size.value = min(blas.pool_size.value, threads)
        blas.setter(threads)


def blas_threads() -> Optional[int]:
    """Most threads any loaded OpenBLAS runs with, or ``None`` when none is controllable."""
    counts = [int(blas.getter()) for blas in _openblas_controls()]
    return max(counts) if counts else None


def os_threads() -> Optional[int]:
    """OS threads this process runs, or ``None`` without ``/proc``."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


class _Scopes:
    """The open :func:`blas_scope` blocks of this process, under one lock."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.open = 0
        #: Each library's thread count when the first scope opened.
        self.caller: Tuple[int, ...] = ()
        #: The tightest cap set since, or ``None`` while none was.
        self.cap: Optional[int] = None


_SCOPES = _Scopes()


@contextlib.contextmanager
def blas_scope(threads: int) -> Iterator[None]:
    """Cap every loaded OpenBLAS at *threads* threads for the ``with`` block.

    The thread count is process-global, so scopes share one refcount: the
    first to open records the caller's counts, the tightest cap of any open
    scope holds, and the last to close restores each library's count
    exactly, however concurrent or nested scopes interleave.  A scope never
    raises a count above the caller's.
    """
    scopes = _SCOPES
    threads = int(threads)
    with scopes.lock:
        controls = _openblas_controls()
        if scopes.open == 0:
            scopes.caller = tuple(int(blas.getter()) for blas in controls)
            scopes.cap = None
        if controls and threads < (scopes.cap or max(scopes.caller)):
            for blas, count in zip(controls, scopes.caller):
                blas.setter(min(threads, count))
            scopes.cap = threads
        scopes.open += 1
    try:
        yield
    finally:
        with scopes.lock:
            scopes.open -= 1
            if scopes.open == 0 and scopes.cap is not None:
                for blas, count in zip(_openblas_controls(), scopes.caller):
                    blas.setter(count)
