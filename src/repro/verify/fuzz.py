"""Seeded transcript fuzzing: random configurations vs standing invariants.

The repo's correctness story rests on a handful of *standing invariants*
that every PR so far has pinned with hand-written tests:

1. **determinism** — the same configuration releases the same count (and
   records the same transcript) on every run;
2. **cross-backend equality** — all four counting backends release the
   bit-identical noisy count for the same seed;
3. **honest-authentication bit-identity** — ``authenticate=True`` changes
   nothing about an honest release except that its openings are MAC-checked;
4. **worker invariance** — transcripts and counts are identical for any
   worker count, the default included;
5. **manifest validity** — a traced run's manifest validates against the
   schema and its ledger reconciles against the metric counters;
6. **wire round-trip** — every distributed-runtime frame kind
   serialize→deserializes bit-identically, and truncating or corrupting a
   frame raises the typed :class:`~repro.exceptions.WireFormatError`
   instead of mis-decoding.

Hand-written tests pin these at a few points of the configuration space;
this harness samples the space: a seeded, dependency-free generator draws
random graphs × statistics × backends × {workers, sparse, tile_window,
block/batch size, ring} cases and checks all six invariants on each.  The
ring is drawn three ways: derived per release, pinned at 64 bits, or pinned
at the derived width plus a few bits, so every invariant also runs on
narrow rings (and invariant 3 compares a narrow release with its 64-bit
authenticated twin).  Every failure report embeds the case's JSON, so
``FuzzCase.from_json(...)`` + :func:`run_case` replays it exactly — same
seed, same cases, same verdicts.

Examples
--------
>>> report = run_fuzz(num_cases=2, seed=7)
>>> report.passed
True
>>> run_fuzz(num_cases=2, seed=7).cases == report.cases  # replayable
True
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.cargo import Cargo
from repro.core.config import CargoConfig
from repro.crypto.mac import OpeningAuthenticator
from repro.crypto.ring import DEFAULT_RING, Ring
from repro.crypto.views import ViewRecorder
from repro.exceptions import ConfigurationError, ReproError
from repro.graph.graph import Graph
from repro.utils.rng import derive_rng

__all__ = [
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "build_graph",
    "case_ring",
    "check_wire_invariant",
    "draw_case",
    "run_case",
    "run_fuzz",
    "transcripts_equal",
]

_STATISTICS = ("triangles", "kstars", "wedges", "4cycles")
_BACKENDS = ("faithful", "batched", "matrix", "blocked")
#: How a case picks its ring: derived per release, pinned at 64 bits, or
#: pinned at the derived width plus ``ring_slack`` bits (at most 64).
_RINGS = ("derived", "pinned64", "slack")


@dataclass(frozen=True)
class FuzzCase:
    """One sampled point of the configuration space, JSON-round-trippable."""

    seed: int
    num_nodes: int
    edge_probability: float
    statistic: str
    backend: str
    workers: Optional[int] = None
    sparse: str = "auto"
    tile_window: Optional[int] = None
    block_size: int = 128
    batch_size: int = 4096
    star_k: int = 2
    ring: str = "derived"
    ring_slack: int = 0

    def config_kwargs(self, **overrides) -> dict:
        """The ``CargoConfig`` keyword arguments this case runs with."""
        kwargs = dict(
            seed=self.seed,
            statistic=self.statistic,
            counting_backend=self.backend,
            workers=self.workers,
            sparse=self.sparse,
            tile_window=self.tile_window,
            block_size=self.block_size,
            batch_size=self.batch_size,
            star_k=self.star_k,
        )
        kwargs.update(overrides)
        return kwargs

    def to_json(self) -> str:
        """Canonical JSON encoding (the repro string failure reports embed)."""
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FuzzCase":
        """Rebuild a case from :meth:`to_json` output."""
        return cls(**json.loads(text))


def build_graph(case: FuzzCase) -> Graph:
    """The case's ``G(n, p)`` input graph — a pure function of the case."""
    rng = derive_rng(case.seed)
    num_nodes = case.num_nodes
    mask = rng.random((num_nodes, num_nodes)) < case.edge_probability
    edges = [
        (u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes) if mask[u, v]
    ]
    return Graph(num_nodes, edges=edges)


def draw_case(rng, index: int) -> FuzzCase:
    """Draw one bounded random case from *rng*.

    Bounds keep a ~200-case CI budget under a minute: the faithful backend
    (O(n³) scalar rounds) only sees small graphs, and the blocked backend's
    knobs (block size, tile window, workers) are only drawn when they do
    something.
    """
    statistic = _STATISTICS[int(rng.integers(len(_STATISTICS)))]
    backend = _BACKENDS[int(rng.integers(len(_BACKENDS)))]
    num_nodes = int(rng.integers(6, 10 if backend == "faithful" else 19))
    sparse_choices = (
        ("auto", "never", "force") if statistic in ("kstars", "wedges") else ("auto", "never")
    )
    kwargs = {}
    if backend == "blocked":
        kwargs["block_size"] = int(rng.choice((4, 8, 16)))
        if rng.random() < 0.5:
            kwargs["tile_window"] = int(rng.choice((1, 2)))
        if rng.random() < 0.5:
            kwargs["workers"] = int(rng.choice((1, 2)))
    if backend == "batched":
        kwargs["batch_size"] = int(rng.choice((16, 64, 4096)))
    if statistic == "kstars":
        kwargs["star_k"] = int(rng.choice((2, 3)))
    kwargs["ring"] = _RINGS[int(rng.integers(len(_RINGS)))]
    if kwargs["ring"] == "slack":
        kwargs["ring_slack"] = int(rng.integers(0, 9))
    return FuzzCase(
        seed=int(rng.integers(0, 2**31 - 1)),
        num_nodes=num_nodes,
        edge_probability=float(rng.choice((0.15, 0.3, 0.5))),
        statistic=statistic,
        backend=backend,
        sparse=str(rng.choice(sparse_choices)),
        **kwargs,
    )


def _values_equal(value_a, value_b) -> bool:
    """Bit-for-bit equality, recursing into tuple/list values.

    Some kernels record composite openings (e.g. a tuple of differently
    shaped arrays per tile), which ``np.asarray`` would reject as ragged.
    """
    if isinstance(value_a, (tuple, list)) or isinstance(value_b, (tuple, list)):
        if not (
            isinstance(value_a, (tuple, list))
            and isinstance(value_b, (tuple, list))
            and len(value_a) == len(value_b)
        ):
            return False
        return all(_values_equal(a, b) for a, b in zip(value_a, value_b))
    return bool(np.array_equal(np.asarray(value_a), np.asarray(value_b)))


def transcripts_equal(recorder_a: ViewRecorder, recorder_b: ViewRecorder) -> bool:
    """Whether two recorded transcripts match entry-for-entry, bit-for-bit."""
    for server in (1, 2):
        entries_a = recorder_a.view(server).entries
        entries_b = recorder_b.view(server).entries
        if len(entries_a) != len(entries_b):
            return False
        for entry_a, entry_b in zip(entries_a, entries_b):
            if entry_a.label != entry_b.label:
                return False
            if not _values_equal(entry_a.value, entry_b.value):
                return False
    return True


def check_wire_invariant(seed: int, num_frames: int = 4) -> List[str]:
    """Invariant 6: random wire frames round-trip; mutations fail typed.

    Draws *num_frames* frames with random kinds, meta fields, and payload
    arrays from *seed*, then for each: (a) encode→decode must reproduce the
    kind, meta fields, and every array bit-for-bit; (b) a random strict
    prefix and a random single-byte corruption of the header must raise
    :class:`~repro.exceptions.WireFormatError` — never decode to anything.
    """
    from repro.exceptions import WireFormatError
    from repro.runtime.wire import KIND_NAMES, decode_frame, encode_frame_bytes

    problems: List[str] = []
    rng = derive_rng(seed ^ 0x57495245)  # "WIRE": independent of the run RNG
    kinds = sorted(KIND_NAMES)
    dtypes = (np.uint64, np.int64, np.float64)
    for index in range(num_frames):
        kind = kinds[int(rng.integers(len(kinds)))]
        meta = {"phase": f"fuzz{index}", "round": int(rng.integers(0, 1 << 16))}
        arrays = [
            rng.integers(0, 1 << 30, size=tuple(rng.integers(0, 5, size=2))).astype(
                dtypes[int(rng.integers(len(dtypes)))]
            )
            for _ in range(int(rng.integers(0, 3)))
        ]
        frame = encode_frame_bytes(kind, meta, arrays)

        try:
            kind2, meta2, arrays2 = decode_frame(frame)
        except WireFormatError as error:
            problems.append(f"wire: well-formed frame rejected: {error}")
            continue
        if kind2 != kind or meta2.get("phase") != meta["phase"] or (
            meta2.get("round") != meta["round"]
        ):
            problems.append(f"wire: kind/meta did not round-trip for {KIND_NAMES[kind]}")
        if len(arrays2) != len(arrays) or any(
            decoded.dtype != original.dtype
            or decoded.shape != original.shape
            or not np.array_equal(decoded, original)
            for original, decoded in zip(arrays, arrays2)
        ):
            problems.append(f"wire: payload did not round-trip for {KIND_NAMES[kind]}")

        truncated = frame[: int(rng.integers(0, len(frame)))]
        try:
            decode_frame(truncated)
            problems.append(
                f"wire: truncated {KIND_NAMES[kind]} frame decoded "
                f"({len(truncated)} of {len(frame)} bytes)"
            )
        except WireFormatError:
            pass

        corrupted = bytearray(frame)
        offset = int(rng.integers(0, 8))  # magic / version / kind fields
        corrupted[offset] ^= 0xFF
        try:
            decode_frame(bytes(corrupted))
            problems.append(
                f"wire: header-corrupted {KIND_NAMES[kind]} frame decoded "
                f"(byte {offset} flipped)"
            )
        except WireFormatError:
            pass
    return problems


def _release(graph: Graph, config: CargoConfig) -> Tuple[float, Optional[ViewRecorder]]:
    cargo = Cargo(config)
    result = cargo.run(graph)
    return float(result.noisy_triangle_count), cargo.views


def case_ring(case: FuzzCase, graph: Graph, epsilon: float) -> Optional[Ring]:
    """The ``ring`` the case's configurations pin (``None``: derived per release).

    A ``slack`` case first runs one derived release to learn its width.
    """
    if case.ring == "derived":
        return None
    if case.ring == "pinned64":
        return DEFAULT_RING
    derived = Cargo(CargoConfig(epsilon=epsilon, **case.config_kwargs())).run(graph)
    return Ring(min(DEFAULT_RING.bits, derived.ring_bits + case.ring_slack))


def run_case(case: FuzzCase) -> List[str]:
    """Check every standing invariant on *case*; returns the violations.

    An empty list means the case passed.  Unexpected exceptions are folded
    into the report as violations rather than propagated, so one broken case
    cannot mask the rest of a fuzz run.
    """
    problems: List[str] = []
    try:
        graph = build_graph(case)
        epsilon = 2.0
        ring = case_ring(case, graph, epsilon)

        def config_kwargs(**overrides) -> dict:
            return case.config_kwargs(ring=ring, **overrides)

        base = CargoConfig(epsilon=epsilon, record_views=True, **config_kwargs())
        count, views = _release(graph, base)

        # 1. Determinism: an identical rerun matches count and transcript.
        rerun_count, rerun_views = _release(
            graph, CargoConfig(epsilon=epsilon, record_views=True, **config_kwargs())
        )
        if rerun_count != count:
            problems.append(f"nondeterministic release: {count} vs {rerun_count}")
        elif not transcripts_equal(views, rerun_views):
            problems.append("nondeterministic transcript on identical rerun")

        # 2. Cross-backend equality against the batched reference: its
        # multiplication-group kernel shares no code with the mask-once one.
        if case.backend != "batched":
            reference, _ = _release(
                graph,
                CargoConfig(
                    epsilon=epsilon,
                    **config_kwargs(
                        counting_backend="batched", workers=None, tile_window=None
                    ),
                ),
            )
            if reference != count:
                problems.append(
                    f"backend {case.backend!r} released {count}, "
                    f"batched reference released {reference}"
                )

        # 3. Honest authentication is bit-identical and actually checked.
        # MAC-checked releases keep 64 bits unless the case pins a ring, so a
        # derived case compares its narrow release with a 64-bit one.
        authenticator = OpeningAuthenticator(
            seed=case.seed, ring=DEFAULT_RING if ring is None else ring
        )
        authed, _ = _release(
            graph,
            CargoConfig(epsilon=epsilon, authenticator=authenticator, **config_kwargs()),
        )
        if authed != count:
            problems.append(
                f"authenticated release {authed} differs from plain {count}"
            )
        if authenticator.rounds_checked < 1:
            problems.append("authenticated run checked zero opening rounds")

        # 4. Worker invariance: every backend runs one execution path, and
        # the default (workers=None) is that path at its default worker
        # count, so count and transcript must both match any worker count.
        if case.workers is not None:
            default_count, default_views = _release(
                graph,
                CargoConfig(
                    epsilon=epsilon,
                    record_views=True,
                    **config_kwargs(workers=None),
                ),
            )
            if default_count != count:
                problems.append(
                    f"workers={case.workers} released {count}, "
                    f"default {default_count}"
                )
            elif not transcripts_equal(views, default_views):
                problems.append(
                    f"workers={case.workers} transcript differs from the default"
                )

        # 5. Manifest validity + ledger reconciliation on a traced run.
        from repro.telemetry import (
            Telemetry,
            build_manifest,
            validate_manifest,
            verify_ledger_reconciliation,
        )

        telemetry = Telemetry()
        _release(
            graph,
            CargoConfig(
                epsilon=epsilon,
                telemetry=telemetry,
                track_communication=True,
                **config_kwargs(),
            ),
        )
        manifest = build_manifest(telemetry)
        problems.extend(f"manifest: {issue}" for issue in validate_manifest(manifest))
        problems.extend(
            f"ledger: {issue}" for issue in verify_ledger_reconciliation(manifest)
        )

        # 6. Wire round-trip: the distributed runtime's framing layer must
        # reproduce random frames exactly and reject mutations typed.
        problems.extend(check_wire_invariant(case.seed))
    except ReproError as error:
        problems.append(f"typed failure: {type(error).__name__}: {error}")
    except Exception as error:  # pragma: no cover - only on harness bugs
        problems.append(f"unexpected {type(error).__name__}: {error}")
    return problems


@dataclass(frozen=True)
class FuzzFailure:
    """One failed case plus everything needed to replay it."""

    case: FuzzCase
    problems: Tuple[str, ...]

    @property
    def repro(self) -> str:
        """A self-contained repro line: the case JSON plus the verdicts."""
        return f"FuzzCase.from_json({self.case.to_json()!r}) -> {list(self.problems)}"


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one fuzz run."""

    seed: int
    num_cases: int
    cases: Tuple[FuzzCase, ...]
    failures: Tuple[FuzzFailure, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        """Whether every sampled case satisfied every invariant."""
        return not self.failures

    def summary(self) -> str:
        """One-paragraph human summary (what CI prints)."""
        lines = [
            f"fuzz: {self.num_cases} cases from seed {self.seed}, "
            f"{len(self.failures)} failing"
        ]
        lines.extend(failure.repro for failure in self.failures)
        return "\n".join(lines)

    def to_json(self) -> str:
        """JSON artifact (failure seeds + configs) CI uploads on red runs."""
        return json.dumps(
            {
                "seed": self.seed,
                "num_cases": self.num_cases,
                "failures": [
                    {"case": asdict(failure.case), "problems": list(failure.problems)}
                    for failure in self.failures
                ],
            },
            indent=2,
            sort_keys=True,
        )


def run_fuzz(
    num_cases: int = 50,
    seed: int = 0,
    on_case: Optional[Callable[[int, FuzzCase, List[str]], None]] = None,
) -> FuzzReport:
    """Draw and check *num_cases* cases; deterministic given *seed*.

    The optional *on_case* callback receives ``(index, case, problems)``
    after each case — the smoke benchmark uses it for progress output.
    """
    if num_cases < 1:
        raise ConfigurationError(f"num_cases must be at least 1, got {num_cases}")
    rng = derive_rng(seed)
    cases: List[FuzzCase] = []
    failures: List[FuzzFailure] = []
    for index in range(num_cases):
        case = draw_case(rng, index)
        cases.append(case)
        problems = run_case(case)
        if problems:
            failures.append(FuzzFailure(case=case, problems=tuple(problems)))
        if on_case is not None:
            on_case(index, case, problems)
    return FuzzReport(
        seed=seed,
        num_cases=num_cases,
        cases=tuple(cases),
        failures=tuple(failures),
    )
