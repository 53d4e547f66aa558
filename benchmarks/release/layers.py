"""Per-layer spans of one traced release, recorded from outside the program.

``traced()`` wraps the public calls that mark each layer boundary (listed in
:func:`targets`) for the duration of one ``with`` block, then restores every
original.  A span records its name, start, end, parent span and release id;
a layer's self time is its spans' durations minus the time their child spans
cover, so the self times of every span inside one release add up to that
release's wall time.  The wrappers exist only inside ``traced()``: untraced
timing runs the program exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

#: Attribute every wrapper carries, pointing at the function it replaced.
WRAPPED = "__release_bench_wrapped__"


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    release: Optional[int]
    start: float
    end: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One public call to wrap.

    *owner* is the defining class, or the defining module for a function (in
    which case every ``repro.*`` module attribute bound to it is rebound).
    A target with no *span* is a probe: it records the call's keyword
    arguments and opens no span.  *before* reads state from the positional
    arguments ahead of the call; *after* turns the call into span attributes.
    """

    owner: object
    attr: str
    span: Optional[str]
    before: Optional[Callable] = None
    after: Optional[Callable] = None


class Recorder:
    """Spans and probe captures of one traced block, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.probes: List[dict] = []
        self._stack: List[Span] = []
        self._releases = 0
        # Forked protocol processes inherit the wrappers; their spans could
        # never reach this process, so they run the originals untouched.
        self._pid = os.getpid()

    def call(self, target: Target, original: Callable, args: tuple, kwargs: dict):
        if os.getpid() != self._pid:
            return original(*args, **kwargs)
        if target.span is None:
            self.probes.append(dict(kwargs))
            return original(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        if target.span == "release":
            self._releases += 1
            release = self._releases
        else:
            release = parent.release if parent is not None else None
        state = target.before(args) if target.before is not None else None
        span = Span(
            id=len(self.spans),
            name=target.span,
            parent=parent.id if parent is not None else None,
            release=release,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        try:
            result = original(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if target.after is not None:
            span.attrs.update(target.after(args, kwargs, result, state))
        return result


# ---------------------------------------------------------------------- #
# Span attributes
# ---------------------------------------------------------------------- #
def _edges_removed(args, kwargs, result, state):
    return {"edges_removed": int(result.edges_removed)}


def _shared_bytes(args, kwargs, result, state):
    parts = (result.share1, result.share2) if hasattr(result, "share1") else result
    return {"bytes": sum(int(np.asarray(part).nbytes) for part in parts)}


def _opening_rounds(args, kwargs, result, state):
    return {"rounds": int(result.opening_rounds)}


def _dealt_elements(dealer) -> int:
    # Only Beaver dealers keep issue accounting; multiplication-group
    # provisioning is counted in calls and time alone.
    return dealer.accounting()[1] if hasattr(dealer, "accounting") else 0


def _dealt(args, kwargs, result, before):
    return {"elements": _dealt_elements(args[0]) - before}


def _opened(operands: int) -> Callable:
    """Bytes both servers send each other to open *operands* masked values."""

    def after(args, kwargs, result, state):
        elements = sum(int(np.size(args[index][0])) for index in range(operands))
        return {"bytes": 2 * 8 * elements}

    return after


def _matmul_ops(args, kwargs, result, state):
    return {"ops": 2 * int(result.size) * int(np.shape(args[1])[-1])}


def _mac_values(args, kwargs, result, before):
    return {"values": args[0].values_checked - before}


def _sent_bytes(args, kwargs, result, state):
    arrays = args[3] if len(args) > 3 else kwargs.get("arrays", ())
    return {"bytes": sum(int(np.asarray(array).nbytes) for array in arrays)}


def _received_bytes(args, kwargs, result, state):
    return {"bytes": sum(int(array.nbytes) for array in result[2])}


def _subclasses(cls) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


def _methods(classes, names, span, **hooks) -> List[Target]:
    """Targets for every concrete definition of *names* in *classes*."""
    return [
        Target(cls, name, span, **hooks)
        for cls in classes
        for name in names
        if name in vars(cls) and not getattr(vars(cls)[name], "__isabstractmethod__", False)
    ]


def targets() -> List[Target]:
    """The layer boundaries, one span name per layer (see README.md)."""
    from repro.core import cargo, max_degree, perturbation, projection
    from repro.core.backends import base as backends
    from repro.crypto import beaver, mac, multiplication_groups, protocol, ring, secure_ops, sharing
    from repro.runtime import wire
    from repro.stats.base import SubgraphStatistic

    statistics = _subclasses(SubgraphStatistic)
    return [
        Target(cargo.Cargo, "run", "release"),
        Target(cargo, "feed_run_telemetry", None),
        *_methods(statistics, ("plain_count", "projected_count", "degree_count"), "eval"),
        *_methods(
            [projection.SimilarityProjection],
            ("project_graph", "project_degrees"),
            "project",
            after=_edges_removed,
        ),
        Target(max_degree.MaxDegreeEstimator, "run", "max"),
        Target(backends, "share_adjacency_rows", "share", after=_shared_bytes),
        Target(sharing, "share_per_user", "share", after=_shared_bytes),
        *_methods(statistics, ("secure_count", "secure_count_from_degrees"), "count"),
        *_methods(
            _subclasses(backends.TriangleCounterBackend),
            ("count_from_shares",),
            "backend",
            after=_opening_rounds,
        ),
        *_methods(
            [beaver.BeaverTripleDealer, multiplication_groups.MultiplicationGroupDealer],
            ("matrix_triple", "vector_triple", "provision_vector", "provision_matrix", "provision"),
            "dealer",
            before=lambda args: _dealt_elements(args[0]),
            after=_dealt,
        ),
        Target(secure_ops, "secure_matrix_multiply", "open", after=_opened(2)),
        Target(secure_ops, "secure_multiply_pair", "open", after=_opened(2)),
        Target(secure_ops, "secure_multiply_triple", "open", after=_opened(3)),
        Target(ring.Ring, "matmul", "ring_matmul", after=_matmul_ops),
        Target(
            mac.OpeningAuthenticator,
            "exchange",
            "mac",
            before=lambda args: args[0].values_checked,
            after=_mac_values,
        ),
        Target(perturbation.DistributedPerturbation, "run", "perturb"),
        Target(protocol.TwoServerRuntime, "__init__", "protocol"),
        Target(wire.WireEndpoint, "send", "wire.send", after=_sent_bytes),
        Target(wire.WireEndpoint, "recv", "wire.recv", after=_received_bytes),
    ]


# ---------------------------------------------------------------------- #
# Installation
# ---------------------------------------------------------------------- #
def _repro_modules() -> List[object]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _wrap(recorder: Recorder, target: Target, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return recorder.call(target, original, args, kwargs)

    setattr(wrapper, WRAPPED, original)
    return wrapper


@contextlib.contextmanager
def traced() -> Iterator[Recorder]:
    """Install every wrapper for the block, then restore every original."""
    recorder = Recorder()
    patches = []
    try:
        for target in targets():
            if isinstance(target.owner, type):
                original = vars(target.owner)[target.attr]
                bindings = [(target.owner, target.attr)]
            else:
                original = getattr(target.owner, target.attr)
                bindings = [
                    (module, name)
                    for module in _repro_modules()
                    for name, value in list(vars(module).items())
                    if value is original
                ]
            wrapper = _wrap(recorder, target, original)
            for namespace, name in bindings:
                patches.append((namespace, name, original))
                setattr(namespace, name, wrapper)
        yield recorder
    finally:
        for namespace, name, original in reversed(patches):
            setattr(namespace, name, original)


def installed() -> int:
    """How many ``repro`` module or class attributes are wrappers right now."""
    count = 0
    for module in _repro_modules():
        for value in list(vars(module).values()):
            if hasattr(value, WRAPPED):
                count += 1
            elif isinstance(value, type) and value.__module__ == module.__name__:
                count += sum(hasattr(member, WRAPPED) for member in vars(value).values())
    return count


# ---------------------------------------------------------------------- #
# Self time
# ---------------------------------------------------------------------- #
def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return {span.id: (span.end - span.start) - covered[span.id] for span in spans}


def layer_table(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed self time, call count and summed attributes."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name, {"self_s": 0.0, "calls": 0})
        row["self_s"] += own[span.id]
        row["calls"] += 1
        for key, value in span.attrs.items():
            row[key] = row.get(key, 0) + value
    return table
