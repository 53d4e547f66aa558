"""Deterministic retry policies for fallible runtime boundaries.

A :class:`RetryPolicy` wraps an operation (a checkpoint read or write, a
worker-pool task, a stream anchor) in a bounded retry loop.  Everything
about the loop is deterministic: the backoff *schedule* — including jitter —
is a pure function of the policy seed and the site label, so a retried run
replays byte-for-byte.  Sleeps are injectable and default to ``None`` (no
real sleeping) because the deterministic test-and-CI environment has nothing
to wait *for*; production callers can pass ``time.sleep``.

Only *transient* failures are retried: :class:`OSError` by default.  Typed
protocol errors (:class:`~repro.exceptions.DealerError`,
:class:`~repro.exceptions.IntegrityError`) and :class:`InjectedCrash`
propagate immediately.  When the per-site attempt budget is exhausted the policy raises
:class:`~repro.exceptions.RetryExhaustedError` with the last failure chained
as ``__cause__``.

Retry and give-up totals are counted into a
:class:`~repro.telemetry.metrics.MetricsRegistry` (``retry_attempts`` /
``retry_giveups``, labelled by site) so chaos runs can be audited from their
metrics export alone.

Examples
--------
>>> policy = RetryPolicy(max_attempts=3, seed=7)
>>> calls = []
>>> def flaky():
...     calls.append(1)
...     if len(calls) < 3:
...         raise OSError("transient")
...     return "ok"
>>> policy.run("checkpoint.read", flaky)
'ok'
>>> len(calls)
3
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, TypeVar

from repro.exceptions import ConfigurationError, RetryExhaustedError
from repro.resilience.faults import InjectedCrash

__all__ = ["RetryPolicy"]

T = TypeVar("T")


def _site_jitter(seed: int, site: str, attempt: int) -> float:
    """Deterministic jitter in [0, 1) for (*seed*, *site*, *attempt*).

    Derived via sha256 rather than :func:`hash` — Python string hashing is
    salted per process, which would make backoff schedules unreproducible.
    """
    digest = hashlib.sha256(f"{seed}:{site}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, deterministic retry with exponential backoff and seeded jitter.

    Parameters
    ----------
    max_attempts:
        Total tries per operation (first call included); must be >= 1.
    base_delay:
        Backoff before the second attempt, in seconds; doubles each retry.
    max_delay:
        Ceiling on any single backoff interval.
    seed:
        Seeds the jitter so schedules replay exactly.
    retry_on:
        Exception types considered transient.  :class:`InjectedCrash` is
        never retried even if listed.
    sleep:
        Callable invoked with each backoff delay; ``None`` skips sleeping
        (the schedule is still computed, so tests can assert on it).
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    max_delay: float = 1.0
    seed: int = 0
    retry_on: Tuple[type, ...] = (OSError,)
    sleep: Optional[Callable[[float], None]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("retry delays must be non-negative")

    def delay(self, site: str, attempt: int) -> float:
        """The backoff scheduled after failed *attempt* (1-based) at *site*.

        >>> RetryPolicy(seed=1).delay("pool.task", 1) == RetryPolicy(seed=1).delay("pool.task", 1)
        True
        """
        base = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        return base * (0.5 + 0.5 * _site_jitter(self.seed, site, attempt))

    def run(self, site: str, operation: Callable[[], T], metrics=None) -> T:
        """Invoke *operation*, retrying transient failures at *site*.

        Counts each retry into *metrics* (``retry_attempts``) and each
        terminal give-up (``retry_giveups``); raises
        :class:`~repro.exceptions.RetryExhaustedError` once the attempt
        budget is spent, chaining the final transient failure.
        """
        last_error: Optional[BaseException] = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                return operation()
            except InjectedCrash:
                raise
            except self.retry_on as error:  # type: ignore[misc]
                last_error = error
                if metrics is not None:
                    metrics.increment("retry_attempts", site=site)
                if attempt < self.max_attempts and self.sleep is not None:
                    self.sleep(self.delay(site, attempt))
        if metrics is not None:
            metrics.increment("retry_giveups", site=site)
        raise RetryExhaustedError(
            f"{site} still failing after {self.max_attempts} attempts: {last_error}",
            site=site,
            attempts=self.max_attempts,
        ) from last_error
