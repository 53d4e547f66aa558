"""Metrics registry: counters and histograms with labels.

The registry is the aggregate half of the telemetry layer (spans are the
tree half).  Subsystems feed it monotonic **counters** (bytes per phase,
ε spent) and **histograms** (anchor latency) — each series keyed by a
metric name plus a sorted label set, Prometheus-style.

All mutation is lock-serialised, and counters are commutative, so
feeding the registry from parallel sweep trials is safe and deterministic.
A disabled registry (:data:`NULL_METRICS`) ignores every call.

Examples
--------
>>> metrics = MetricsRegistry()
>>> metrics.increment("comm_bytes", 96, phase="count")
>>> metrics.increment("comm_bytes", 4, phase="count")
>>> metrics.counters()['comm_bytes{phase="count"}']
100
>>> metrics.observe("anchor_seconds", 0.25)
>>> metrics.histograms()["anchor_seconds"]["count"]
1
>>> NULL_METRICS.increment("ignored")
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

#: A series key: metric name plus the sorted label items.
SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def format_series(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    """Prometheus-style series name: ``name{key="value",...}``.

    >>> format_series("comm_bytes", (("phase", "max"),))
    'comm_bytes{phase="max"}'
    >>> format_series("runs", ())
    'runs'
    """
    if not labels:
        return name
    rendered = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{rendered}}}"


class MetricsRegistry:
    """Thread-safe named counters and histograms."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[SeriesKey, float] = {}
        self._histograms: Dict[SeriesKey, Dict[str, float]] = {}

    @staticmethod
    def _key(name: str, labels: Dict[str, object]) -> SeriesKey:
        return name, tuple(sorted((k, str(v)) for k, v in labels.items()))

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def increment(self, name: str, value: float = 1, **labels: object) -> None:
        """Add *value* to the counter series ``name{labels}``."""
        if not self.enabled:
            return
        key = self._key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record one observation into the histogram ``name{labels}``."""
        if not self.enabled:
            return
        key = self._key(name, labels)
        with self._lock:
            stats = self._histograms.get(key)
            if stats is None:
                self._histograms[key] = {
                    "count": 1,
                    "sum": value,
                    "min": value,
                    "max": value,
                }
            else:
                stats["count"] += 1
                stats["sum"] += value
                stats["min"] = min(stats["min"], value)
                stats["max"] = max(stats["max"], value)

    # ------------------------------------------------------------------ #
    # Reading (all snapshots are sorted → deterministic exports)
    # ------------------------------------------------------------------ #
    def counters(self) -> Dict[str, float]:
        """Counter snapshot keyed by formatted series name."""
        with self._lock:
            items = sorted(self._counters.items())
        return {format_series(name, labels): value for (name, labels), value in items}

    def histograms(self) -> Dict[str, Dict[str, float]]:
        """Histogram snapshot (count/sum/min/max per series)."""
        with self._lock:
            items = sorted(self._histograms.items())
        return {
            format_series(name, labels): dict(stats)
            for (name, labels), stats in items
        }

    def as_dict(self) -> Dict[str, Dict]:
        """Both families, ready for the JSON manifest."""
        return {
            "counters": self.counters(),
            "histograms": self.histograms(),
        }

    def counter_value(self, name: str, **labels: object) -> float:
        """Current value of one counter series (0 if never incremented)."""
        with self._lock:
            return self._counters.get(self._key(name, labels), 0)


#: Shared disabled registry: every recording call returns immediately.
NULL_METRICS = MetricsRegistry(enabled=False)
