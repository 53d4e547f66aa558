"""One CPU budget per process: pool workers × BLAS threads ≤ cores.

Covers the BLAS scope (nested and concurrent scopes restore the caller's
thread count exactly), the default worker counts (``blocked``/``matrix``
take the whole budget, the element-wise backends one worker), the sweep's
split of the budget between concurrent cells, the manifest's ``workers``
and ``blas_threads`` fields (Cargo and streaming releases), and that a
default-budget release equals a one-worker release bit for bit.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest

from repro.core import Cargo, CargoConfig
from repro.core.backends import blocked as blocked_module
from repro.core.cargo import release_workers
from repro.experiments import runner as runner_module
from repro.experiments.runner import ProtocolSweep
from repro.graph import load_dataset
from repro.parallel import (
    WorkerPool,
    blas_budget,
    blas_scope,
    blas_threads,
    cpu_budget,
    resolve_workers,
)
from repro.parallel import pool as pool_module
from repro.stream import StreamingCargo, StreamingConfig, replay_stream
from repro.telemetry import Telemetry

needs_blas = pytest.mark.skipif(
    blas_threads() is None, reason="no controllable OpenBLAS is loaded"
)


def _freeze(value):
    if isinstance(value, (tuple, list)):
        return tuple(_freeze(part) for part in value)
    array = np.atleast_1d(np.asarray(value, dtype=np.uint64))
    return array.shape, array.tobytes()


def _view_streams(views):
    return [
        (entry.label, _freeze(entry.value))
        for server in (1, 2)
        for entry in views.view(server).entries
    ]


@pytest.fixture
def four_cpus(monkeypatch):
    """A four-CPU budget on any host."""
    monkeypatch.setattr(blocked_module, "cpu_budget", lambda: 4)
    monkeypatch.setattr(pool_module, "cpu_budget", lambda: 4)
    monkeypatch.setattr(runner_module, "cpu_budget", lambda: 4)
    return 4


@pytest.fixture
def small_rows_fan_out(four_cpus, monkeypatch):
    """Four CPUs, and rows of any size fan out, so small graphs use the pool."""
    monkeypatch.setattr(blocked_module, "POOL_MIN_ROW_MULTIPLY_ADDS", 0)
    return four_cpus


@pytest.fixture(scope="module")
def graph():
    return load_dataset("facebook", num_nodes=60)


class TestBudget:
    def test_cpu_budget_is_the_affinity_set(self):
        assert cpu_budget() == len(os.sched_getaffinity(0))

    def test_blas_budget_splits_the_cores(self, four_cpus):
        assert [blas_budget(w) for w in (1, 2, 3, 4, 8)] == [4, 2, 1, 1, 1]

    def test_default_workers_fan_out_long_rows(self, four_cpus):
        default_workers = blocked_module.default_workers
        # Long rows fan out over the budget, at most one worker per row.
        assert default_workers(1024, 128) == 4
        assert default_workers(384, 128) == 3
        # Short rows, and a single row, stay on one worker.
        assert default_workers(128, 32) == 1
        assert default_workers(256, 64) == 1
        assert default_workers(128, 128) == 1
        assert default_workers(2, 128) == 1

    def test_release_workers(self, four_cpus):
        for backend in ("blocked", "matrix"):
            config = CargoConfig(counting_backend=backend, block_size=128)
            assert release_workers(config, 1024) == 4
            assert release_workers(config, 128) == 1
        for backend in ("faithful", "batched"):
            assert release_workers(CargoConfig(counting_backend=backend), 1024) == 1
        assert release_workers(CargoConfig(statistic="4cycles"), 1024) == 1
        assert release_workers(CargoConfig(counting_backend="blocked", workers=2), 64) == 2
        assert resolve_workers(None, default=5) == 5


@needs_blas
class TestBlasScope:
    def test_nested_scopes_restore_the_callers_count(self):
        before = blas_threads()
        with blas_scope(1):
            assert blas_threads() == 1
            with blas_scope(before):
                # The tightest open cap holds.
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == before

    def test_scope_never_raises_the_count(self):
        before = blas_threads()
        with blas_scope(before + 8):
            assert blas_threads() == before
        assert blas_threads() == before

    def test_interleaved_concurrent_scopes_restore_the_callers_count(self):
        before = blas_threads()
        first_open = threading.Event()
        second_open = threading.Event()
        first_closed = threading.Event()
        seen = {}

        def first():
            with blas_scope(1):
                first_open.set()
                second_open.wait(5)
            first_closed.set()

        def second():
            first_open.wait(5)
            with blas_scope(1):
                second_open.set()
                first_closed.wait(5)
                # The first scope closed, but this one is still open.
                seen["inside"] = blas_threads()

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert seen["inside"] == 1
        assert blas_threads() == before

    def test_scope_stress_keeps_every_cap_and_restores(self):
        """More threads than cores open and close scopes with a tiny switch
        interval; a lost refcount update would leave a count behind."""
        before = blas_threads()
        errors = []

        def churn(seed):
            caps = [1, before, 1 + seed % 2]
            for step in range(200):
                cap = caps[(seed + step) % len(caps)]
                with blas_scope(cap):
                    if blas_threads() > min(cap, before):
                        errors.append((cap, blas_threads()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=churn, args=(seed,)) for seed in range(4 * cpu_budget())
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert blas_threads() == before

    def test_pool_caps_blas_while_its_tasks_run(self, four_cpus):
        before = blas_threads()
        counts = WorkerPool(4).map([blas_threads] * 4)
        assert counts == [1] * 4
        assert WorkerPool(2).map([blas_threads] * 2) == [min(2, before)] * 2
        assert blas_threads() == before

    def test_threaded_sweep_leaves_blas_unchanged(self, four_cpus):
        before = blas_threads()
        sweeps = [
            ProtocolSweep(
                datasets=["facebook"],
                num_nodes=30,
                num_trials=1,
                max_workers=max_workers,
                counting_backend="blocked",
            )
            for max_workers in (2, None)
        ]
        assert sweeps[0]._cargo_overrides()["workers"] == 2
        threaded, serial = (sweep.run_epsilon_sweep([1.0]).rows for sweep in sweeps)
        assert blas_threads() == before
        assert threaded == serial

    def test_sweep_keeps_explicit_and_serial_workers(self, four_cpus):
        assert ProtocolSweep(datasets=["facebook"], max_workers=2, workers=3)._cargo_overrides()[
            "workers"
        ] == 3
        assert "workers" not in ProtocolSweep(datasets=["facebook"])._cargo_overrides()
        assert "workers" not in ProtocolSweep(
            datasets=["facebook"], max_workers=2, distributed=True
        )._cargo_overrides()
        assert "workers" not in ProtocolSweep(
            datasets=["facebook"], max_workers=2, counting_backend="batched"
        )._cargo_overrides()
        # The config default backend (matrix) splits the budget.
        assert ProtocolSweep(datasets=["facebook"], max_workers=4)._cargo_overrides()[
            "workers"
        ] == 1


class TestReleaseBudget:
    @pytest.mark.parametrize("backend", ["blocked", "matrix", "batched"])
    def test_manifest_records_workers_and_blas_threads(self, graph, backend, small_rows_fan_out):
        before = blas_threads()
        telemetry = Telemetry()
        Cargo(
            CargoConfig(seed=3, counting_backend=backend, block_size=16, telemetry=telemetry)
        ).run(graph)
        (release,) = telemetry.releases
        # n = 60 in blocks of 16 (matrix: one block of 128) has 4 rows (1).
        workers = {"blocked": 4, "matrix": 1, "batched": 1}[backend]
        assert release["workers"] == workers
        expected = None if before is None else min(before, blas_budget(workers))
        assert release["blas_threads"] == expected
        assert blas_threads() == before

    def test_streaming_manifest_records_workers_and_blas_threads(self, small_rows_fan_out):
        before = blas_threads()
        stream = replay_stream(load_dataset("facebook", num_nodes=40), rng=0)
        telemetry = Telemetry()
        StreamingCargo(
            StreamingConfig(
                epsilon=4.0,
                release_every=20,
                anchor_every=2,
                seed=3,
                counting_backend="blocked",
                block_size=16,
                telemetry=telemetry,
            )
        ).run(stream)
        (release,) = telemetry.releases
        # n = 40 in blocks of 16 has 3 rows.
        assert release["workers"] == 3
        assert release["blas_threads"] == (None if before is None else 1)
        assert blas_threads() == before

    @pytest.mark.parametrize("backend,pooled", [("blocked", 4), ("matrix", 3)])
    def test_default_budget_release_equals_one_worker(self, backend, pooled, small_rows_fan_out):
        # n = 300: five rows in blocks of 64, three in matrix's blocks of 128.
        graph = load_dataset("facebook", num_nodes=300)
        runs = []
        for workers in (None, 1):
            config = CargoConfig(
                seed=5,
                counting_backend=backend,
                block_size=64,
                workers=workers,
                record_views=True,
                track_communication=True,
                authenticate=True,
                telemetry=Telemetry(),
            )
            cargo = Cargo(config)
            result = cargo.run(graph)
            (release,) = config.telemetry.releases
            runs.append(
                (
                    release.pop("workers"),
                    result.noisy_triangle_count,
                    result.communication,
                    result.communication_phases,
                    release["mac"],
                    _view_streams(cargo.views),
                )
            )
        (default_workers, *default), (one_worker, *serial) = runs
        assert (default_workers, one_worker) == (pooled, 1)
        assert default == serial
