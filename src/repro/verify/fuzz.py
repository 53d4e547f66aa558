"""Seeded transcript fuzzing: random configurations vs standing invariants.

The repo's correctness story rests on a handful of *standing invariants*
that every PR so far has pinned with hand-written tests:

1. **determinism and telemetry** — a traced, ledger-tracking rerun of the
   same configuration releases the same count, transcript and ledger; its
   manifest validates against the schema, its ledger reconciles against
   the metric counters, and its release record carries the result's
   ``ring_bits``;
2. **cross-backend equality** — all four counting backends release the
   bit-identical noisy count for the same seed;
3. **authentication** — ``authenticate=True`` changes nothing about an
   honest release except that its openings are MAC-checked and it runs in
   the MAC's ring, and one corruption drawn per case (round, server, tamper
   kind) is detected;
4. **worker invariance** — transcripts and counts are identical for any
   worker count, the default included;
5. **transport equivalence** — a case drawn ``distributed`` releases the
   same count, transcript and ledger phases on the process-separated
   runtime as in process;
6. **wire round-trip** — every distributed-runtime frame kind
   serialize→deserializes bit-identically, and truncating or corrupting a
   frame raises the typed :class:`~repro.exceptions.WireFormatError`
   instead of mis-decoding.

Hand-written tests pin these at a few points of the configuration space;
this harness samples the space: a seeded, dependency-free generator draws
random graphs × statistics × backends × {workers, sparse, tile_window,
block/batch size, ring, distributed} cases and checks all six invariants
on each.  The ring is drawn three ways: derived per release, pinned at 64
bits, or pinned at the derived width plus a few bits, so every invariant
also runs on narrow rings (and invariant 3 compares a narrow release with
its 64-bit authenticated twin).  Every failure report embeds the case's
JSON, so ``FuzzCase.from_json(...)`` + :func:`run_case` replays it exactly
— same seed, same cases, same verdicts.  ``python -m repro.verify.fuzz
--cases N --seed S`` runs a budget from the command line (see :func:`main`).

Examples
--------
>>> report = run_fuzz(num_cases=2, seed=7)
>>> report.passed
True
>>> run_fuzz(num_cases=2, seed=7).cases == report.cases  # replayable
True
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.cargo import Cargo
from repro.core.config import CargoConfig
from repro.core.result import CargoResult
from repro.crypto.mac import OpeningAuthenticator
from repro.crypto.ring import DEFAULT_RING, Ring
from repro.crypto.views import ViewRecorder
from repro.exceptions import ConfigurationError, ReproError
from repro.graph.graph import Graph
from repro.telemetry import (
    Telemetry,
    build_manifest,
    validate_manifest,
    verify_ledger_reconciliation,
)
from repro.utils.rng import derive_rng
from repro.verify.adversary import CORRUPTION_KINDS, Corruption, run_with_corruption

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
    #: Also release on the process-separated runtime (invariant 5); not a
    #: ``config_kwargs`` entry, so every other invariant runs in process.
    distributed: bool = False

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
    something.  ``distributed`` is drawn on the cases the runtime accepts:
    triangles without a worker pool or tile window.
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
    if (
        statistic == "triangles"
        and kwargs.get("workers", 1) == 1
        and "tile_window" not in kwargs
    ):
        kwargs["distributed"] = bool(rng.random() < 0.5)
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


def _release(graph: Graph, config: CargoConfig) -> Tuple[CargoResult, ViewRecorder]:
    cargo = Cargo(config)
    return cargo.run(graph), cargo.views


def _counts(result: CargoResult) -> Tuple[float, int, int]:
    return (
        result.noisy_triangle_count,
        result.true_triangle_count,
        result.projected_triangle_count,
    )


def _differences(label: str, base, twin) -> List[str]:
    """How a twin release departs from the base: counts, transcript, ledger."""
    (base_result, base_views), (result, views) = base, twin
    if _counts(result) != _counts(base_result):
        return [
            f"{label} released (noisy, true, projected) {_counts(result)}, "
            f"base {_counts(base_result)}"
        ]
    problems = []
    if not transcripts_equal(base_views, views):
        problems.append(f"{label} transcript differs from the base")
    if (result.communication, result.communication_phases) != (
        base_result.communication,
        base_result.communication_phases,
    ):
        problems.append(f"{label} ledger differs from the base")
    return problems


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

        def config(**overrides) -> CargoConfig:
            return CargoConfig(epsilon=epsilon, **case.config_kwargs(ring=ring, **overrides))

        def twin(**overrides):
            """A release recording views and ledger, as the base does."""
            return _release(
                graph, config(record_views=True, track_communication=True, **overrides)
            )

        base = twin()
        count = base[0].noisy_triangle_count

        # 1. Determinism and telemetry: a traced rerun matches the base, and
        # its manifest validates, reconciles and records the result's ring.
        telemetry = Telemetry()
        traced = twin(telemetry=telemetry)
        problems.extend(_differences("traced rerun", base, traced))
        manifest = build_manifest(telemetry)
        problems.extend(f"manifest: {issue}" for issue in validate_manifest(manifest))
        problems.extend(
            f"ledger: {issue}" for issue in verify_ledger_reconciliation(manifest)
        )
        record = telemetry.releases[-1]
        if record["ring_bits"] != traced[0].ring_bits:
            problems.append(
                f"release record ring_bits {record['ring_bits']}, "
                f"result {traced[0].ring_bits}"
            )

        # 2. Cross-backend equality against the batched reference: its
        # multiplication-group kernel shares no code with the mask-once one.
        if case.backend != "batched":
            reference, _ = _release(
                graph,
                config(counting_backend="batched", workers=None, tile_window=None),
            )
            if reference.noisy_triangle_count != count:
                problems.append(
                    f"backend {case.backend!r} released {count}, batched "
                    f"reference released {reference.noisy_triangle_count}"
                )

        # 3. Honest authentication is bit-identical and actually checked, and
        # one corruption drawn from the case is caught.  MAC-checked releases
        # count and perturb in 64 bits unless the case pins a ring, so a
        # derived case compares its narrow release with a 64-bit one.
        mac_ring = DEFAULT_RING if ring is None else ring
        authenticator = OpeningAuthenticator(seed=case.seed, ring=mac_ring)
        authed, _ = _release(graph, config(authenticator=authenticator))
        if authed.noisy_triangle_count != count:
            problems.append(
                f"authenticated release {authed.noisy_triangle_count} "
                f"differs from plain {count}"
            )
        if authed.ring_bits != mac_ring.bits:
            problems.append(
                f"authenticated release ran in {authed.ring_bits} bits, "
                f"not the MAC's {mac_ring.bits}"
            )
        if authenticator.rounds_checked < 1:
            problems.append("authenticated run checked zero opening rounds")
        else:
            problems.extend(
                _corruption_problems(case, graph, ring, epsilon, authenticator.rounds_checked)
            )

        # 4. Worker invariance: every backend runs one execution path, and
        # the default (workers=None) is that path at its default worker
        # count, so count, transcript and ledger match any worker count.
        if case.workers is not None:
            problems.extend(
                _differences(f"workers={case.workers}", twin(workers=None), base)
            )

        # 5. Transport equivalence: four forked processes over socket links
        # release what the in-process engine releases.
        if case.distributed:
            problems.extend(_differences("distributed", base, twin(distributed=True)))

        # 6. Wire round-trip: the distributed runtime's framing layer must
        # reproduce random frames exactly and reject mutations typed.
        problems.extend(check_wire_invariant(case.seed))
    except ReproError as error:
        problems.append(f"typed failure: {type(error).__name__}: {error}")
    except Exception as error:  # pragma: no cover - only on harness bugs
        problems.append(f"unexpected {type(error).__name__}: {error}")
    return problems


def _corruption_problems(case, graph, ring, epsilon, rounds: int) -> List[str]:
    """Invariant 3's cheater: one corruption below *rounds*, drawn from the case.

    The corruption must fire and abort the release with a
    :class:`~repro.exceptions.CheaterDetectedError` naming its round.
    """
    rng = derive_rng(case.seed ^ 0x434845)  # "CHE": independent of the run RNG
    corruption = Corruption(
        round_index=int(rng.integers(rounds)),
        server=int(rng.integers(1, 3)),
        kind=CORRUPTION_KINDS[int(rng.integers(len(CORRUPTION_KINDS)))],
    )
    kwargs = case.config_kwargs(ring=ring)
    kwargs["backend"] = kwargs.pop("counting_backend")
    outcome = run_with_corruption(graph, corruption, epsilon=epsilon, **kwargs)
    target = (
        f"round {corruption.round_index} of {rounds}, server {corruption.server}, "
        f"{corruption.kind}"
    )
    if not outcome.fired:
        return [f"corruption ({target}) never fired"]
    if not outcome.detected:
        return [
            f"corruption ({target}) went undetected: released "
            f"{outcome.result.noisy_triangle_count}"
        ]
    if outcome.error.round_index != corruption.round_index:
        return [f"corruption ({target}) detected in round {outcome.error.round_index}"]
    return []


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
    after each case (progress output, for instance).
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


#: Where :func:`main` writes a red budget's :meth:`FuzzReport.to_json`.
FAILURES_FILE = "fuzz_failures.json"


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.verify.fuzz --cases N --seed S``: one fuzz budget.

    Prints :meth:`FuzzReport.summary`; when any case fails, writes
    :meth:`FuzzReport.to_json` to :data:`FAILURES_FILE` in the working
    directory and returns 1.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.fuzz",
        description="Check seeded random configurations against the standing invariants.",
    )
    parser.add_argument("--cases", type=int, default=200, help="fuzz budget (default 200)")
    parser.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    args = parser.parse_args(argv)
    report = run_fuzz(num_cases=args.cases, seed=args.seed)
    print(report.summary())
    if report.passed:
        return 0
    with open(FAILURES_FILE, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
    print(f"failing cases written to {FAILURES_FILE}")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
