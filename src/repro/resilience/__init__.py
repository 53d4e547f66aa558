"""Fault-tolerant protocol runtime: inject, retry, verify, resume.

The package makes failure a first-class, *deterministic* event across four
layers:

* :mod:`~repro.resilience.faults` — a seeded :class:`FaultPlan` fires
  bit-flips, transient ``OSError``\\ s, crashes, and dealer exhaustion at
  named runtime sites, reproducibly;
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy` bounds and
  deterministically jitters retries around those same sites, feeding
  retry/give-up counters into the metrics registry;
* :mod:`~repro.resilience.integrity` — sha256 content checksums on every
  checkpoint, verified on load
  (:class:`~repro.exceptions.IntegrityError`, never silent corruption);
* :mod:`~repro.resilience.checkpoint` — atomic, schema-versioned
  :class:`Checkpointer` state so a killed streaming or tile-window run
  resumes bit-identically.

Runs opt in through :class:`ResilienceConfig` (``CargoConfig(resilience=…)``
/ ``StreamingConfig(resilience=…)``); the default is a frozen no-op whose
runtime cost is a handful of ``None`` checks — the same off-by-default
discipline as telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ConfigurationError
from repro.resilience.checkpoint import CHECKPOINT_VERSION, Checkpointer
from repro.resilience.faults import (
    FAULT_SITES,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    active_fault_plan,
    corrupt_bytes,
    fault_point,
    install_fault_plan,
)
from repro.resilience.integrity import checksum_bytes, verify_bytes
from repro.resilience.retry import RetryPolicy

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpointer",
    "FAULT_SITES",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "NULL_RESILIENCE",
    "ResilienceConfig",
    "RetryPolicy",
    "active_fault_plan",
    "checksum_bytes",
    "corrupt_bytes",
    "fault_point",
    "install_fault_plan",
    "resolve_resilience",
    "verify_bytes",
]


@dataclass(frozen=True)
class ResilienceConfig:
    """Per-run resilience switches carried on protocol configs.

    Parameters
    ----------
    retry:
        Retry policy wrapped around fallible boundaries (pool tasks,
        anchors, checkpoint I/O); ``None`` disables retrying.
    checkpoint_path:
        Where to persist crash-recovery checkpoints; ``None`` disables
        checkpointing entirely.
    checkpoint_every:
        Checkpoint cadence — every Nth release (streaming) or tile window
        (blocked pipeline).
    resume:
        Resume from an existing checkpoint at ``checkpoint_path`` when one
        is present (a missing file starts fresh).  A checkpoint whose
        checksum does not match always raises
        :class:`~repro.exceptions.IntegrityError`.
    """

    retry: Optional[RetryPolicy] = None
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 1
    resume: bool = False

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.resume and self.checkpoint_path is None:
            raise ConfigurationError(
                "resume=True requires a checkpoint_path to resume from"
            )


#: Shared all-off config — the default on every protocol configuration.
NULL_RESILIENCE = ResilienceConfig()


def resolve_resilience(config) -> ResilienceConfig:
    """The resilience config carried by *config*, or the shared no-op.

    Mirrors :func:`~repro.telemetry.resolve_telemetry` so call sites can
    accept configs that predate the ``resilience`` field.
    """
    resilience = getattr(config, "resilience", None)
    return resilience if resilience is not None else NULL_RESILIENCE
