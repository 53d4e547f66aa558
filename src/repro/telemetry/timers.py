"""Lightweight wall-clock timing for the running-time experiments.

The paper's Figures 11 and 12 break CARGO's running time down by phase (most
of the cost is the secure ``Count`` step).  :class:`TimerRegistry` lets the
protocol record named phase timings without importing any experiment code.

This module lives in the telemetry layer.  New code that wants hierarchy,
attributes, or memory deltas should use :class:`repro.telemetry.Tracer`
instead — flat named timers stay around for the baselines, whose phase
breakdown is one level deep.

Examples
--------
>>> registry = TimerRegistry()
>>> with registry.measure("count") as timer:
...     _ = sum(range(10))
>>> timer.calls
1
>>> sorted(registry.as_dict()) == ["count"] and registry.seconds("count") >= 0.0
True
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional
from contextlib import contextmanager


@dataclass
class Timer:
    """Accumulating wall-clock timer for a single named phase."""

    name: str
    total_seconds: float = 0.0
    calls: int = 0
    _started_at: Optional[float] = field(default=None, repr=False)

    def start(self) -> None:
        """Begin a timing interval; nested starts are a programming error."""
        if self._started_at is not None:
            raise RuntimeError(f"timer {self.name!r} is already running")
        self._started_at = time.perf_counter()

    def stop(self) -> float:
        """End the current interval and return its duration in seconds."""
        if self._started_at is None:
            raise RuntimeError(f"timer {self.name!r} is not running")
        elapsed = time.perf_counter() - self._started_at
        self._started_at = None
        self.total_seconds += elapsed
        self.calls += 1
        return elapsed

    @contextmanager
    def measure(self) -> Iterator["Timer"]:
        """Context manager form of :meth:`start` / :meth:`stop`."""
        self.start()
        try:
            yield self
        finally:
            self.stop()


class TimerRegistry:
    """A named collection of :class:`Timer` objects.

    Protocol code asks for ``registry.timer("count")`` and wraps the phase in
    ``with timer.measure():``; experiments read ``registry.as_dict()`` to get
    the per-phase seconds that feed the running-time figures.
    """

    def __init__(self) -> None:
        self._timers: Dict[str, Timer] = {}

    def timer(self, name: str) -> Timer:
        """Return the timer registered under *name*, creating it if needed."""
        if name not in self._timers:
            self._timers[name] = Timer(name)
        return self._timers[name]

    @contextmanager
    def measure(self, name: str) -> Iterator[Timer]:
        """Shorthand for ``registry.timer(name).measure()``."""
        with self.timer(name).measure() as timer:
            yield timer

    def seconds(self, name: str) -> float:
        """Total seconds accumulated under *name* (0.0 if never used)."""
        timer = self._timers.get(name)
        return timer.total_seconds if timer is not None else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Snapshot of all phase totals, keyed by phase name."""
        return {name: timer.total_seconds for name, timer in self._timers.items()}

    def reset(self) -> None:
        """Drop every timer (used between repeated experiment trials)."""
        self._timers.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._timers

    def __len__(self) -> int:
        return len(self._timers)
