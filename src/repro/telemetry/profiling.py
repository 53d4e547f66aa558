"""Shared wall-clock + peak-memory measurement for benchmarks.

``tracemalloc`` instruments every allocation, which slows Python-loop-heavy
code noticeably — so peak-memory numbers are always taken in a *separate*
pass from the wall-clock timings, never mixed into a timed repetition.
Every benchmark's ``peak_bytes``/``seconds_traced`` fields come from this
one code path.

While :func:`traced_call` is tracing, any telemetry spans opened inside the
callable pick up their ``memory_delta_bytes`` attribute for free — the
:class:`~repro.telemetry.spans.Tracer` reads the active tracemalloc stream
rather than starting its own.

Examples
--------
>>> result, seconds, peak = traced_call(lambda: [0] * 1000)
>>> (len(result), seconds >= 0.0, peak > 0)
(1000, True, True)
>>> measure_peak_bytes(lambda: bytearray(1 << 16)) >= (1 << 16)
True
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from typing import Any, Tuple


def traced_call(callable_) -> Tuple[Any, float, int]:
    """``(result, seconds, peak_bytes)`` of one tracemalloc-instrumented call.

    Collects garbage first so leftover cycles from earlier work don't count
    against the callable, then traces exactly one invocation.  Only
    allocations made while tracing count, so callers decide what the peak
    covers by what they build inside the callable (e.g. start tracing after
    the secret shares exist to isolate a backend's working memory).
    """
    gc.collect()
    tracemalloc.start()
    start = time.perf_counter()
    try:
        result = callable_()
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, seconds, int(peak)


def measure_peak_bytes(callable_) -> int:
    """Peak traced allocation (bytes) across one call of *callable_*."""
    return traced_call(callable_)[2]
