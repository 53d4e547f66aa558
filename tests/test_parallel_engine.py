"""Tile-parallel engine: bit-identical transcripts for any worker count.

The engine's claim is strong: the value of ``workers`` changes *nothing
observable* — released counts, communication ledgers, and recorded
per-server views are bit-identical for workers ∈ {None, 1, 2, 4} on every
backend and every registered statistic; the default (``workers=None``) is
the same engine at its default worker count (the CPU budget for
``blocked``/``matrix``, one worker otherwise).

Also covered here: the worker pool's deterministic ordering, the
thread-safety of :class:`ViewRecorder`/:class:`CommunicationLedger`
(satellite regression), streaming anchors at several worker counts, and the
configuration-level validation of the new knobs.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest

from repro.core import Cargo, CargoConfig
from repro.core.backends import BlockedMatrixTriangleCounter, FaithfulTriangleCounter
from repro.core.backends import blocked as blocked_module
from repro.core.backends import faithful as faithful_module
from repro.core.backends.blocked import Dealt
from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.multiplication_groups import MultiplicationGroupDealer
from repro.crypto.protocol import CommunicationLedger
from repro.crypto.views import ViewRecorder
from repro.exceptions import ConfigurationError, DealerError
from repro.graph import load_dataset
from repro.graph.generators import erdos_renyi_graph
from repro.parallel import WorkerPool
from repro.stream import StreamingCargo, StreamingConfig, replay_stream

BACKENDS = ("faithful", "batched", "matrix", "blocked")
STATISTICS = ("triangles", "kstars", "wedges", "4cycles")
#: ``None`` (the default) is the same engine, so it joins the sweep.
WORKER_COUNTS = (1, None, 2, 4)


def _view_streams(views: ViewRecorder):
    """Both servers' recorded observations as comparable byte tuples."""
    def freeze(value):
        if isinstance(value, (tuple, list)):
            return tuple(freeze(part) for part in value)
        array = np.atleast_1d(np.asarray(value, dtype=np.uint64))
        return (array.shape, array.tobytes())

    streams = []
    for server_index in (1, 2):
        for entry in views.view(server_index).entries:
            streams.append((entry.server_index, entry.label, freeze(entry.value)))
    return streams


def _run_cargo(graph, statistic, backend, workers, telemetry=None):
    config = CargoConfig(
        epsilon=2.0,
        seed=7,
        statistic=statistic,
        counting_backend=backend,
        batch_size=64,
        block_size=16,
        workers=workers,
        record_views=True,
        track_communication=True,
        telemetry=telemetry,
    )
    cargo = Cargo(config)
    result = cargo.run(graph)
    return (
        result.noisy_triangle_count,
        result.true_triangle_count,
        result.projected_triangle_count,
        tuple(sorted((k, tuple(sorted(v.items()))) for k, v in result.communication.items())),
        tuple(sorted((k, tuple(sorted(v.items()))) for k, v in result.communication_phases.items())),
        _view_streams(cargo.views),
    )


class TestWorkerCountEquivalence:
    """workers ∈ {None, 1, 2, 4} are indistinguishable, per backend × statistic."""

    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("facebook", num_nodes=30)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("statistic", STATISTICS)
    def test_full_pipeline_bit_identical_across_workers(self, graph, backend, statistic):
        reference = _run_cargo(graph, statistic, backend, workers=1)
        for workers in WORKER_COUNTS[1:]:
            assert _run_cargo(graph, statistic, backend, workers=workers) == reference, (
                backend,
                statistic,
                workers,
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engine_transcript_equals_legacy_for_serial_draw_backends(self, graph, backend):
        """The default (``workers=None``) run is the same engine: its full
        transcript — views included — equals a multi-worker run's."""
        default = _run_cargo(graph, "triangles", backend, workers=None)
        engine = _run_cargo(graph, "triangles", backend, workers=2)
        assert engine == default


class TestTelemetryDeterminism:
    """Tracing follows the same shard-merge discipline as the views: the
    span tree's deterministic part and the metric registry are identical
    for workers ∈ {None, 1, 2, 4}, and tracing never perturbs the transcript."""

    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("facebook", num_nodes=30)

    @staticmethod
    def _traced(graph, backend, workers):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        transcript = _run_cargo(
            graph, "triangles", backend, workers=workers, telemetry=telemetry
        )
        return (
            transcript,
            telemetry.tracer.structure(),
            telemetry.metrics.counters(),
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_trace_and_metrics_identical_across_workers(self, graph, backend):
        reference = self._traced(graph, backend, workers=1)
        for workers in WORKER_COUNTS[1:]:
            assert self._traced(graph, backend, workers) == reference, (
                backend,
                workers,
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("statistic", STATISTICS)
    def test_transcript_bit_identical_traced_vs_untraced(self, graph, backend, statistic):
        from repro.telemetry import Telemetry

        untraced = _run_cargo(graph, statistic, backend, workers=2)
        traced = _run_cargo(
            graph, statistic, backend, workers=2, telemetry=Telemetry()
        )
        assert traced == untraced, (backend, statistic)

    def test_blocked_tile_row_spans_follow_schedule(self, graph):
        """Every J row of the schedule appears exactly once, in canonical
        order, regardless of which worker ran it."""
        _, structure, _ = self._traced(graph, "blocked", workers=4)
        (root,) = structure
        count_span = next(s for s in root["children"] if s["name"] == "count")
        # The servers' halves of X are regrouped once, before the backend step.
        assert [s["name"] for s in count_span["children"]][-2:] == ["mask_blocks", "backend"]
        backend_span = count_span["children"][-1]
        rows = [
            (s["attributes"]["j0"], s["attributes"]["groups"])
            for s in backend_span["children"]
            if s["name"] == "tile_row"
        ]
        # n=30, block=16 → 2x2 grid, upper-triangular (j0 <= k0) schedule:
        # row 0 holds groups (0, 0) and (0, 16), row 16 holds (16, 16).
        assert rows == [(0, 2), (16, 1)]
        # Each row's finish material is dealt inside the row, in one span.
        assert all(
            [child["name"] for child in s["children"]] == ["deal_row"]
            for s in backend_span["children"]
            if s["name"] == "tile_row"
        )


class TestStreamingWorkers:
    def test_streaming_anchor_estimates_do_not_depend_on_workers(self):
        graph = load_dataset("facebook", num_nodes=40)
        stream = replay_stream(graph, rng=0)
        runs = [
            StreamingCargo(
                StreamingConfig(
                    epsilon=4.0,
                    release_every=20,
                    anchor_every=2,
                    seed=3,
                    counting_backend="blocked",
                    block_size=16,
                    **({} if workers is None else {"workers": workers}),
                )
            ).run(stream)
            for workers in (2, None)
        ]
        assert runs[0].anchors_run >= 2
        assert [r.estimate for r in runs[0].releases] == [
            r.estimate for r in runs[1].releases
        ]


class TestExhaustionErrors:
    def test_truncated_blocked_material_raises(self, monkeypatch):
        graph = erdos_renyi_graph(20, 0.5, seed=1)
        deal_row = blocked_module.deal_row

        def drop(half):
            return dataclasses.replace(half, y=half.y[:-1], z=half.z[:-1])

        def truncated(*args, **kwargs):
            row = deal_row(*args, **kwargs)
            return Dealt(drop(row.server1), drop(row.server2))

        # Every row's finish comes one group short.
        monkeypatch.setattr(blocked_module, "deal_row", truncated)
        counter = BlockedMatrixTriangleCounter(
            dealer=BeaverTripleDealer(seed=5), block_size=8, workers=1
        )
        with pytest.raises(DealerError, match="material mismatch"):
            counter.count(graph.adjacency_matrix(), rng=2)

    @staticmethod
    def _count_one_group_short(batch_size, monkeypatch):
        graph = erdos_renyi_graph(12, 0.5, seed=1)
        group_stream = faithful_module.group_stream

        def truncated(*args, **kwargs):
            return iter(list(group_stream(*args, **kwargs))[:-1])

        # The stream ends one block before the schedule does.
        monkeypatch.setattr(faithful_module, "group_stream", truncated)
        counter = FaithfulTriangleCounter(
            dealer=MultiplicationGroupDealer(seed=5), batch_size=batch_size
        )
        with pytest.raises(DealerError, match="material mismatch"):
            counter.count(graph.adjacency_matrix(), rng=2)

    def test_truncated_group_stream_raises(self, monkeypatch):
        self._count_one_group_short(16, monkeypatch)

    def test_truncated_faithful_group_stream_raises(self, monkeypatch):
        self._count_one_group_short(1, monkeypatch)


class TestWorkerPool:
    def test_results_come_back_in_task_order(self):
        pool = WorkerPool(4)
        import time

        def task(index):
            time.sleep(0.002 * (5 - index))  # later tasks finish earlier
            return index

        assert pool.map([lambda i=i: task(i) for i in range(5)]) == list(range(5))

    def test_parallel_matmul_is_bit_identical(self):
        from repro.crypto.ring import DEFAULT_RING

        rng = np.random.default_rng(0)
        a = rng.integers(0, 1 << 63, (37, 23), dtype=np.uint64)
        b = rng.integers(0, 1 << 63, (23, 41), dtype=np.uint64)
        serial = DEFAULT_RING.matmul(a, b)
        for workers in (1, 2, 4, 64):
            assert np.array_equal(WorkerPool(workers).matmul(DEFAULT_RING, a, b), serial)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(0)


class TestRecorderThreadSafety:
    """Satellite regression: concurrent appends must never lose entries."""

    def test_view_recorder_concurrent_observe(self):
        views = ViewRecorder()
        threads = 8
        per_thread = 500

        def hammer(tid):
            for i in range(per_thread):
                views.observe(1 + (i % 2), f"t{tid}", i)

        workers = [threading.Thread(target=hammer, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        total = len(views.view(1)) + len(views.view(2))
        assert total == threads * per_thread

    def test_ledger_concurrent_record(self):
        ledger = CommunicationLedger()
        threads = 8
        per_thread = 500

        def hammer(tid):
            for i in range(per_thread):
                ledger.record(f"chan-{i % 3}", 7, phase=f"phase-{tid % 2}")

        workers = [threading.Thread(target=hammer, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert ledger.total_messages == threads * per_thread
        assert ledger.total_bytes == threads * per_thread * 8
        assert sum(ledger.phase_messages.values()) == threads * per_thread

    def test_view_shard_merge_preserves_order(self):
        parent = ViewRecorder()
        shard_a = ViewRecorder()
        shard_b = ViewRecorder()
        shard_a.observe(1, "opening", 1)
        shard_a.observe(1, "opening", 2)
        shard_b.observe(1, "opening", 3)
        parent.merge_from(shard_a)
        parent.merge_from(shard_b)
        assert parent.view(1).values("opening") == [1, 2, 3]


class TestConfigKnobs:
    def test_workers_validation(self):
        with pytest.raises(ConfigurationError):
            CargoConfig(workers=0)
        with pytest.raises(ConfigurationError):
            CargoConfig(workers=-2)
        assert CargoConfig(workers=3).workers == 3
        assert CargoConfig().workers is None

    def test_streaming_workers_validation(self):
        with pytest.raises(ConfigurationError):
            StreamingConfig(workers=0)
        assert StreamingConfig(workers=2).workers == 2

    def test_matrix_counter_rejects_direct_bad_workers(self):
        from repro.exceptions import ProtocolError

        with pytest.raises(ProtocolError):
            BlockedMatrixTriangleCounter(workers=-1)
