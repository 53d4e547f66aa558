"""One BLAS thread per runtime process.

numpy (and scipy) each bundle an OpenBLAS whose thread pool defaults to one
thread per CPU.  The runtime's dealer and both servers are separate
processes on the same host, so three such pools would contend for the same
cores once the secure products reach BLAS.  Each process the
:class:`~repro.runtime.driver.DistributedRuntime` forks therefore caps every
loaded OpenBLAS at one thread at entry, before any product runs, and
reports the count it runs with (:func:`blas_threads`) in the release's
``transport["blas_threads"]``.  The in-process engine is left alone: there
one process owns every core.

There is no ``threadpoolctl`` dependency: the libraries are found in the
process's memory map and capped through the thread-count setter they
export, under the ``scipy_`` prefix and ``64_`` suffix the wheel builds
use.  Where no loaded library exports one (no ``/proc``, another BLAS),
nothing is capped and the count is ``None``.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Optional, Tuple

__all__ = ["blas_threads", "limit_blas_threads"]

#: Symbol name variants of OpenBLAS's thread-count API: plain, numpy/scipy's
#: ``scipy_`` prefix, and the ``64_`` suffix of the ILP64 builds.
_VARIANTS = [(prefix, suffix) for prefix in ("", "scipy_") for suffix in ("", "64_")]


@functools.lru_cache(maxsize=None)
def _openblas_controls() -> Tuple[Tuple[object, object], ...]:
    """``(setter, getter)`` of every loaded OpenBLAS's thread-count API.

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
                controls.append((setter, getter))
                break
    return tuple(controls)


def limit_blas_threads(threads: int) -> None:
    """Cap every loaded OpenBLAS at *threads* threads."""
    for setter, _getter in _openblas_controls():
        setter(int(threads))


def blas_threads() -> Optional[int]:
    """Most threads any loaded OpenBLAS runs with, or ``None`` when none is controllable."""
    counts = [int(getter()) for _setter, getter in _openblas_controls()]
    return max(counts) if counts else None
