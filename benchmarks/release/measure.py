"""One workload's run: set-ups, the untraced timed loop and the optional traced release.

All timing is wall-clock time around public entry points, ``Cargo(config).run``
above all; nothing inside the program is instrumented except during the one
traced release (see ``layers.py``).
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import Cargo
from repro.crypto.protocol import estimate_message_bytes
from repro.stats import create_statistic

import layers
from workloads import Workload, reference_count, release_seed


@dataclass
class Release:
    """One attempted release: what ran, how long it took, what it returned."""

    kind: str
    seed: int
    seconds: float = 0.0
    noisy: Optional[float] = None
    true: Optional[int] = None
    error: Optional[str] = None
    ok: bool = True


@dataclass
class Outcome:
    """Everything one run measured, checked and traced."""

    releases: List[Release] = field(default_factory=list)
    checks: List[dict] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    spans: List[layers.Span] = field(default_factory=list)
    layers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    traced_wall_s: float = 0.0

    def check(self, name: str, ok: bool, detail: str = "", blame=()) -> None:
        """Record a check; a failed one fails every release in *blame*."""
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            for release in blame:
                release.ok = False

    @property
    def attempted(self) -> int:
        return len(self.releases)

    @property
    def failed(self) -> int:
        return sum(not release.ok for release in self.releases)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(check["ok"] for check in self.checks)


def _release(outcome: Outcome, kind: str, seed: int, cargo: Cargo, graph):
    """Run and time one release; a raised error fails it instead of the run."""
    release = Release(kind=kind, seed=seed)
    outcome.releases.append(release)
    start = time.perf_counter()
    try:
        result = cargo.run(graph)
    except Exception as error:  # noqa: BLE001 - a failed release is a measurement
        release.seconds = time.perf_counter() - start
        release.error = f"{type(error).__name__}: {error}"
        release.ok = False
        return release, None
    release.seconds = time.perf_counter() - start
    release.noisy = result.noisy_triangle_count
    release.true = result.true_triangle_count
    return release, result


def _opened_bytes(views) -> int:
    """Server-to-server bytes of every recorded opening, over both servers' views."""
    return sum(
        estimate_message_bytes(entry.value)
        for view in views.views()
        for entry in view.entries
        if entry.label.endswith("_opening")
    )


def _check_release(workload: Workload, graph, seed: int, outcome: Outcome):
    """One in-process release with views, ledger and an injected authenticator.

    Returns the release, the bytes crossing party boundaries and the number of
    MAC-checked rounds (both ``None`` if the release raised).
    """
    config = workload.check_config(seed)
    cargo = Cargo(config)
    release, result = _release(outcome, "check", seed, cargo, graph)
    if result is None:
        return release, None, None
    ledger = sum(channel["bytes"] for channel in result.communication.values())
    return release, ledger + _opened_bytes(cargo.views), config.authenticator.rounds_checked


def _setup(workload: Workload, seed: int, outcome: Outcome):
    """Build a fresh graph and warm it up with the check release, *setups* times.

    The warm-up fills the per-graph caches (adjacency memo, degree vector,
    triangle-count cache).  It is the check release itself -- views, ledger and
    an injected authenticator on -- so ``comm_mb`` and ``opening_rounds`` cost
    no release of their own.
    """
    first_seed = release_seed(seed, 0)
    times, checks = [], []
    for _ in range(workload.setups):
        graph = None  # the previous set-up's graph must not count toward the peak
        start = time.perf_counter()
        graph = workload.build_graph(workload.num_nodes, seed)
        built = time.perf_counter() - start
        release, comm_bytes, rounds = _check_release(workload, graph, first_seed, outcome)
        times.append(built + release.seconds)
        if comm_bytes is not None:
            checks.append((release, comm_bytes, rounds))
    if not checks:
        raise RuntimeError(f"every check release failed: {outcome.releases[0].error}")
    reference = reference_count(graph, workload)
    first, comm_bytes, rounds = checks[0]
    outcome.check(
        "true_count_matches_reference",
        first.true == reference,
        f"{first.true} vs {reference}",
        blame=[first],
    )
    outcome.check(
        "setups_identical",
        len({(r.noisy, r.true, c, n) for r, c, n in checks}) == 1,
        blame=[release for release, _, _ in checks],
    )
    return graph, statistics.median(times), comm_bytes, rounds, first


def _timed(workload: Workload, seed: int, seconds: float, graph, outcome: Outcome):
    """The closed loop: one release at a time until *seconds* and *min_releases* are met."""
    outcome.check("untraced_timing_unwrapped", layers.installed() == 0)
    timed: List[Release] = []
    start = time.perf_counter()
    while len(timed) < workload.min_releases or time.perf_counter() - start < seconds:
        index = len(timed)
        config = workload.timed_config(release_seed(seed, index))
        release, _ = _release(outcome, "timed", config.seed, Cargo(config), graph)
        timed.append(release)
    outcome.check("untraced_timing_unwrapped", layers.installed() == 0, blame=timed)
    return timed


def _traced(workload: Workload, graph, first: Release, release_s: float, outcome: Outcome):
    """One more release with every layer wrapper installed; fills the per-layer metrics."""
    config = workload.timed_config(first.seed)
    cargo = Cargo(config)
    with layers.traced() as recorder:
        traced, _ = _release(outcome, "traced", first.seed, cargo, graph)
    outcome.check("wrappers_restored", layers.installed() == 0, blame=[traced])
    outcome.check(
        "traced_equals_untraced",
        traced.noisy == first.noisy,
        f"{traced.noisy} vs {first.noisy}",
        blame=[traced],
    )
    scale = create_statistic(config.statistic, config).release_scale
    parity = [
        (probe["count_result"].reconstruct(config.ring), scale * probe["projected_count"])
        for probe in recorder.probes
    ]
    outcome.check(
        "kernel_parity",
        len(parity) == 1 and parity[0][0] == parity[0][1],
        f"secure vs scaled projected: {parity}",
        blame=[traced],
    )
    table = layers.layer_table(recorder.spans)
    outcome.spans = recorder.spans
    outcome.layers = table
    outcome.traced_wall_s = traced.seconds
    transport = next((p["transport"] for p in recorder.probes if p.get("transport")), None)
    processes = transport["processes"] if transport else {}

    def row(name: str, key: str = "self_s") -> float:
        return float(table.get(name, {}).get(key, 0.0))

    metrics = {
        "eval.self_s": (row("eval"), "s"),
        "eval.calls": (row("eval", "calls"), "count"),
        "project.self_s": (row("project"), "s"),
        "project.edges_removed": (row("project", "edges_removed"), "count"),
        "max.self_s": (row("max"), "s"),
        "share.self_s": (row("share"), "s"),
        "share.mb": (row("share", "bytes") / 1e6, "MB"),
        "count.self_s": (row("count"), "s"),
        "backend.self_s": (row("backend"), "s"),
        "backend.rounds": (row("backend", "rounds"), "count"),
        "dealer.self_s": (row("dealer"), "s"),
        "dealer.calls": (row("dealer", "calls"), "count"),
        "dealer.melems": (row("dealer", "elements") / 1e6, "Melem"),
        "open.self_s": (row("open"), "s"),
        "open.rounds": (row("open", "calls"), "count"),
        "open.mb": (row("open", "bytes") / 1e6, "MB"),
        "ring_matmul.self_s": (row("ring_matmul"), "s"),
        "ring_matmul.calls": (row("ring_matmul", "calls"), "count"),
        "ring_matmul.gop": (row("ring_matmul", "ops") / 1e9, "Gop"),
        "mac.self_s": (row("mac"), "s"),
        "mac.values": (row("mac", "values"), "count"),
        "perturb.self_s": (row("perturb"), "s"),
        "protocol.init_s": (row("protocol"), "s"),
        "wire.send_s": (row("wire.send"), "s"),
        "wire.recv_wait_s": (row("wire.recv"), "s"),
        "wire.frames": (row("wire.send", "calls") + row("wire.recv", "calls"), "count"),
        "wire.mb": ((row("wire.send", "bytes") + row("wire.recv", "bytes")) / 1e6, "MB"),
        "proc.server1_s": (float(processes.get("server1", 0.0)), "s"),
        "proc.server2_s": (float(processes.get("server2", 0.0)), "s"),
        "proc.dealer_s": (float(processes.get("dealer", 0.0)), "s"),
        "orchestration.self_s": (row("release"), "s"),
        "trace.overhead_frac": (traced.seconds / release_s - 1.0, "ratio"),
    }
    outcome.metrics.update(metrics)


def peak_rss_mb(children: bool) -> float:
    """``ru_maxrss`` of this process (or of its largest child, if larger) in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    graph, setup_s, comm_bytes, rounds, check = _setup(workload, seed, outcome)
    timed = _timed(workload, seed, seconds, graph, outcome)
    first = timed[0]
    outcome.check(
        "check_equals_timed",
        first.noisy == check.noisy,
        f"{check.noisy} vs {first.noisy}",
        blame=[first, check],
    )
    ok = [release for release in timed if release.ok]
    if not ok:
        raise RuntimeError(f"every timed release failed: {timed[0].error}")
    release_s = statistics.median(release.seconds for release in ok)
    errors = [
        abs(release.noisy - release.true) / release.true
        for release in timed[: workload.min_releases]
        if release.ok
    ]
    outcome.metrics.update(
        {
            "release_s": (release_s, "s"),
            "release_samples": (float(len(ok)), "count"),
            "setup_s": (setup_s, "s"),
            "comm_mb": (comm_bytes / 1e6, "MB"),
            "opening_rounds": (float(rounds), "count"),
            "rel_error": (statistics.median(errors), "ratio"),
        }
    )
    if trace:
        _traced(workload, graph, first, release_s, outcome)
    outcome.metrics["peak_rss_mb"] = (
        peak_rss_mb(children=bool(workload.options.get("distributed"))),
        "MB",
    )
    outcome.metrics["failed_frac"] = (outcome.failed / outcome.attempted, "ratio")
    return outcome
