"""The per-run telemetry bundle and its config-level resolution.

A :class:`Telemetry` object travels through a run on
``CargoConfig.telemetry`` / ``StreamingConfig.telemetry`` and bundles the
three accumulation surfaces:

* ``tracer`` — the hierarchical span tree (:class:`~repro.telemetry.spans.Tracer`),
* ``metrics`` — the counters/histograms registry
  (:class:`~repro.telemetry.metrics.MetricsRegistry`),
* ``releases`` — one structured record per protocol release
  (:meth:`record_release`), from which the run manifest is built.

Configs default to ``telemetry=None`` (telemetry off); instrumented code
calls :func:`resolve_telemetry` and receives the shared no-op
:data:`NULL_TELEMETRY` bundle, whose tracer and registry ignore every call.
Because instrumentation never branches on anything but ``enabled``, a
traced run executes the exact same protocol schedule as an untraced one —
outputs, ledgers, and views stay bit-identical.

Examples
--------
>>> telemetry = Telemetry()
>>> telemetry.enabled
True
>>> telemetry.record_release({"statistic": "triangles"})
>>> telemetry.releases[0]["statistic"]
'triangles'
>>> resolve_telemetry(object()) is NULL_TELEMETRY
True
>>> Telemetry.disabled().enabled
False
"""

from __future__ import annotations

import threading
from typing import Dict, List

from repro.telemetry.metrics import NULL_METRICS, MetricsRegistry
from repro.telemetry.spans import NULL_TRACER, Tracer


class Telemetry:
    """One run's (or one sweep's) telemetry accumulation surfaces."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.tracer = Tracer() if enabled else NULL_TRACER
        self.metrics = MetricsRegistry() if enabled else NULL_METRICS
        self._releases: List[Dict] = []
        self._lock = threading.Lock()

    def record_release(self, entry: Dict) -> None:
        """Append one release record (becomes a manifest ``releases`` row)."""
        if not self.enabled:
            return
        with self._lock:
            self._releases.append(entry)

    @property
    def releases(self) -> List[Dict]:
        """All release records so far, in recording order."""
        with self._lock:
            return list(self._releases)

    @classmethod
    def disabled(cls) -> "Telemetry":
        """The shared no-op bundle (also what ``telemetry=None`` resolves to)."""
        return NULL_TELEMETRY


#: Shared no-op bundle handed out for configs without telemetry.
NULL_TELEMETRY = Telemetry(enabled=False)


def resolve_telemetry(config) -> Telemetry:
    """The config's telemetry bundle, or :data:`NULL_TELEMETRY` when unset.

    Duck-typed like every other engine knob: any object lacking a
    ``telemetry`` attribute (or carrying ``None``) gets the no-op bundle.
    """
    telemetry = getattr(config, "telemetry", None)
    return telemetry if telemetry is not None else NULL_TELEMETRY
