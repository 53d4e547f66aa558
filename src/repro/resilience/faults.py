"""Deterministic fault injection for the protocol runtime.

The resilience layer treats failures as first-class, *reproducible* events: a
:class:`FaultPlan` is a seeded schedule of faults pinned to named **sites** —
the fallible boundaries the runtime crosses (dealer provisioning, worker-pool
tile tasks, protocol rounds, stream anchor execution, checkpoint reads and
writes, export writes).  Each site calls :func:`fault_point` on every invocation;
with no plan installed that is a single global read and the runtime behaves
exactly as before.  With a plan installed, the *n*-th invocation of a site
fires whatever fault the plan pinned there:

``oserror``
    a transient :class:`OSError`, the classic retryable failure;
``crash``
    an :class:`InjectedCrash` — simulates the process dying at that point
    (never retried; chaos tests catch it and resume from checkpoint);
``exhaust``
    a :class:`~repro.exceptions.DealerError`, modelling an exhausted
    correlated-randomness dealer;
``bitflip``
    no exception — the spec is *returned* so the caller corrupts the bytes
    it just read or is about to write (integrity checks must catch it).

Plans serialise to JSON (:meth:`FaultPlan.to_json`) so chaos CI jobs can
archive the exact schedule a run was subjected to, and every triggered fault
is logged (:meth:`FaultPlan.triggered`) for the same artefact.

Examples
--------
>>> plan = FaultPlan([FaultSpec("dealer.provision", FaultKind.OSERROR, at=2)])
>>> with install_fault_plan(plan):
...     fault_point("dealer.provision")  # first invocation: no fault
...     try:
...         fault_point("dealer.provision")  # second invocation fires
...     except OSError as error:
...         print("injected:", error)
injected: injected transient I/O failure at dealer.provision (invocation 2)
>>> [entry["site"] for entry in plan.triggered()]
['dealer.provision']
"""

from __future__ import annotations

import enum
import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, DealerError

__all__ = [
    "FAULT_SITES",
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "InjectedCrash",
    "active_fault_plan",
    "corrupt_bytes",
    "fault_point",
    "install_fault_plan",
]

#: Every registered fault site — the named fallible boundaries of the runtime.
FAULT_SITES: Tuple[str, ...] = (
    "checkpoint.read",
    "checkpoint.write",
    "dealer.provision",
    "export.write",
    "pool.task",
    "runtime.round",
    "stream.anchor",
)


class InjectedCrash(RuntimeError):
    """A simulated process death at a fault site.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: it models the
    process being killed, so nothing in the library catches it — it unwinds
    the whole run, exactly like a real crash, and the chaos harness resumes
    from the last checkpoint.
    """


class FaultKind(str, enum.Enum):
    """What happens when a pinned fault fires."""

    BITFLIP = "bitflip"
    OSERROR = "oserror"
    CRASH = "crash"
    EXHAUST = "exhaust"


@dataclass(frozen=True)
class FaultSpec:
    """One pinned fault: *kind* fires on the *at*-th invocation of *site*.

    ``payload`` seeds :func:`corrupt_bytes` for ``bitflip`` faults so the
    corrupted byte/bit position is deterministic per spec.
    """

    site: str
    kind: FaultKind
    at: int = 1
    payload: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; registered sites: "
                f"{', '.join(FAULT_SITES)}"
            )
        object.__setattr__(self, "kind", FaultKind(self.kind))
        if self.at < 1:
            raise ConfigurationError(
                f"fault invocation index 'at' must be >= 1, got {self.at}"
            )

    def as_dict(self) -> Dict:
        """JSON-ready representation of this spec."""
        payload = {"site": self.site, "kind": self.kind.value, "at": self.at}
        if self.payload is not None:
            payload["payload"] = int(self.payload)
        return payload


def corrupt_bytes(data: bytes, spec: FaultSpec) -> bytes:
    """*data* with one deterministically chosen bit flipped.

    The position is a pure function of the spec (its ``payload`` when set,
    its ``at`` index otherwise), so a bit-flip fault corrupts the same bit on
    every run of the same plan.

    >>> corrupted = corrupt_bytes(b"hello", FaultSpec("export.write", "bitflip"))
    >>> corrupted != b"hello" and len(corrupted) == 5
    True
    """
    if not data:
        return data
    rng = np.random.default_rng(spec.payload if spec.payload is not None else spec.at)
    position = int(rng.integers(0, len(data)))
    bit = int(rng.integers(0, 8))
    flipped = bytearray(data)
    flipped[position] ^= 1 << bit
    return bytes(flipped)


class FaultPlan:
    """A deterministic schedule of faults over the registered sites.

    Thread-safe: per-site invocation counters are lock-protected, so sites
    exercised from worker threads (pool tasks, parallel dealing) still count
    invocations exactly once each.
    """

    def __init__(self, specs: Iterable[FaultSpec] = (), seed: Optional[int] = None) -> None:
        self._specs: Dict[str, Dict[int, FaultSpec]] = {}
        self._seed = seed
        for spec in specs:
            per_site = self._specs.setdefault(spec.site, {})
            if spec.at in per_site:
                raise ConfigurationError(
                    f"duplicate fault pinned at {spec.site!r} invocation {spec.at}"
                )
            per_site[spec.at] = spec
        self._counters: Dict[str, int] = {}
        self._triggered: List[Dict] = []
        self._lock = threading.Lock()

    @classmethod
    def random(
        cls,
        seed: int,
        sites: Optional[Sequence[str]] = None,
        num_faults: int = 4,
        max_at: int = 8,
        kinds: Optional[Sequence[FaultKind]] = None,
    ) -> "FaultPlan":
        """A seeded random schedule — the chaos suite's workhorse.

        Two plans built from the same arguments are identical, which is what
        makes a chaos failure replayable from nothing but its seed.
        """
        rng = np.random.default_rng(seed)
        sites = tuple(sites) if sites is not None else FAULT_SITES
        kinds = tuple(kinds) if kinds is not None else tuple(FaultKind)
        specs: Dict[Tuple[str, int], FaultSpec] = {}
        for _ in range(num_faults):
            site = sites[int(rng.integers(0, len(sites)))]
            at = int(rng.integers(1, max_at + 1))
            kind = kinds[int(rng.integers(0, len(kinds)))]
            # Last write wins on (site, at) collisions: keeps exactly one
            # fault per invocation slot without rejection sampling.
            specs[(site, at)] = FaultSpec(
                site, kind, at=at, payload=int(rng.integers(0, 1 << 31))
            )
        return cls(specs.values(), seed=seed)

    @property
    def specs(self) -> List[FaultSpec]:
        """Every pinned fault, in (site, at) order."""
        return [
            spec
            for site in sorted(self._specs)
            for _, spec in sorted(self._specs[site].items())
        ]

    def trigger(self, site: str) -> Optional[FaultSpec]:
        """Count one invocation of *site*; fire any fault pinned there.

        Raising kinds raise; ``bitflip`` specs are returned for the caller to
        apply with :func:`corrupt_bytes`; ``None`` means no fault is due.
        """
        with self._lock:
            count = self._counters.get(site, 0) + 1
            self._counters[site] = count
            spec = self._specs.get(site, {}).get(count)
            if spec is not None:
                self._triggered.append(
                    {"site": site, "kind": spec.kind.value, "at": count}
                )
        if spec is None:
            return None
        if spec.kind is FaultKind.OSERROR:
            raise OSError(
                f"injected transient I/O failure at {site} (invocation {count})"
            )
        if spec.kind is FaultKind.CRASH:
            raise InjectedCrash(
                f"injected crash at {site} (invocation {count})"
            )
        if spec.kind is FaultKind.EXHAUST:
            raise DealerError(
                f"injected dealer exhaustion at {site} (invocation {count})"
            )
        return spec

    def counts(self) -> Dict[str, int]:
        """Invocations observed per site so far."""
        with self._lock:
            return dict(self._counters)

    def triggered(self) -> List[Dict]:
        """Chronological log of every fault that actually fired."""
        with self._lock:
            return list(self._triggered)

    # ------------------------------------------------------------------ #
    # Serialisation (CI artefacts)
    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        """The schedule (and any triggered log) as a JSON document."""
        return json.dumps(
            {
                "seed": self._seed,
                "faults": [spec.as_dict() for spec in self.specs],
                "triggered": self.triggered(),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_json` output (triggered log reset)."""
        payload = json.loads(text)
        if "faults" not in payload:
            raise KeyError(
                "fault plan JSON is missing its 'faults' list "
                "(produce plans with FaultPlan.to_json)"
            )
        specs = [
            FaultSpec(
                entry["site"],
                FaultKind(entry["kind"]),
                at=int(entry.get("at", 1)),
                payload=entry.get("payload"),
            )
            for entry in payload.get("faults", [])
        ]
        return cls(specs, seed=payload.get("seed"))


#: The globally installed plan; ``None`` keeps every fault point a no-op.
_ACTIVE_PLAN: Optional[FaultPlan] = None


def active_fault_plan() -> Optional[FaultPlan]:
    """The currently installed plan, or ``None``."""
    return _ACTIVE_PLAN


@contextmanager
def install_fault_plan(plan: Optional[FaultPlan]):
    """Install *plan* for the duration of the ``with`` block.

    Plans nest (the previous plan is restored on exit); installing ``None``
    temporarily disables an outer plan.
    """
    global _ACTIVE_PLAN
    previous = _ACTIVE_PLAN
    _ACTIVE_PLAN = plan
    try:
        yield plan
    finally:
        _ACTIVE_PLAN = previous


def fault_point(site: str) -> Optional[FaultSpec]:
    """One invocation of the fault site *site*.

    The hook every fallible boundary calls.  Without an installed plan this
    is a single global read — the resilience machinery's entire disabled
    cost.  With a plan, raising faults raise here and ``bitflip`` specs are
    returned for the caller to apply.
    """
    plan = _ACTIVE_PLAN
    if plan is None:
        return None
    return plan.trigger(site)
