"""Crash-safe tile-window journal for the blocked backend.

The windowed pipeline journals each completed chunk of tile groups; a run
killed mid-count resumes from the journal and must produce a transcript —
released count, opening rounds, recorded server views, communication ledger,
dealer accounting — bit-identical to a run that was never interrupted.
Sub-dealer substreams make the skipped chunks' randomness independent of
whether they were actually re-executed, which is what the suite pins.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cargo import Cargo
from repro.core.config import CargoConfig, CountingBackend
from repro.exceptions import CheckpointError
from repro.graph.generators import erdos_renyi_graph
from repro.resilience import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    ResilienceConfig,
    RetryPolicy,
    install_fault_plan,
)


def _graph(num_nodes=60, seed=7):
    return erdos_renyi_graph(num_nodes, 0.3, seed=seed)


def _config(resilience=None, **overrides):
    fields = dict(
        epsilon=2.0,
        counting_backend=CountingBackend.BLOCKED,
        block_size=16,
        tile_window=2,
        workers=2,
        seed=123,
        record_views=True,
        track_communication=True,
    )
    fields.update(overrides)
    return CargoConfig(resilience=resilience, **fields)


def _entries_equal(a, b):
    if len(a) != len(b):
        return False
    for ea, eb in zip(a, b):
        if ea.label != eb.label or ea.server_index != eb.server_index:
            return False
        if not _values_equal(ea.value, eb.value):
            return False
    return True


def _values_equal(va, vb):
    if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
        return (
            isinstance(va, np.ndarray)
            and isinstance(vb, np.ndarray)
            and np.array_equal(va, vb)
        )
    if isinstance(va, (tuple, list)):
        return (
            type(va) is type(vb)
            and len(va) == len(vb)
            and all(_values_equal(x, y) for x, y in zip(va, vb))
        )
    return va == vb


def _assert_transcripts_match(cargo_a, result_a, cargo_b, result_b):
    assert result_a.noisy_count == result_b.noisy_count
    assert result_a.true_count == result_b.true_count
    assert (result_a.epsilon1, result_a.epsilon2) == (
        result_b.epsilon1,
        result_b.epsilon2,
    )
    assert result_a.communication == result_b.communication
    assert result_a.communication_phases == result_b.communication_phases
    for server in (1, 2):
        assert _entries_equal(
            cargo_a.views.view(server).entries, cargo_b.views.view(server).entries
        )


@pytest.mark.parametrize("crash_at_task", [2, 5, 7])
def test_kill_and_resume_is_bit_identical(tmp_path, crash_at_task):
    graph = _graph()
    ref_cargo = Cargo(_config())
    reference = ref_cargo.run(graph)

    ckpt = tmp_path / "tiles.ckpt"
    resilience = ResilienceConfig(checkpoint_path=ckpt, resume=True)
    plan = FaultPlan([FaultSpec("pool.task", FaultKind.CRASH, at=crash_at_task)])
    with install_fault_plan(plan):
        with pytest.raises(InjectedCrash):
            Cargo(_config(resilience)).run(graph)
    out_cargo = Cargo(_config(resilience))
    resumed = out_cargo.run(graph)
    _assert_transcripts_match(ref_cargo, reference, out_cargo, resumed)


def test_journal_refuses_to_resume_another_graph(tmp_path):
    """A journal binds its input: resuming it on another graph's shares must
    raise instead of splicing the first graph's completed chunks in."""
    resilience = ResilienceConfig(checkpoint_path=tmp_path / "tiles.ckpt", resume=True)
    plan = FaultPlan([FaultSpec("pool.task", FaultKind.CRASH, at=5)])
    with install_fault_plan(plan):
        with pytest.raises(InjectedCrash):
            Cargo(_config(resilience)).run(_graph(seed=7))
    with pytest.raises(CheckpointError, match="refusing to resume"):
        Cargo(_config(resilience)).run(_graph(seed=8))


def test_journal_alone_does_not_change_output(tmp_path):
    graph = _graph()
    ref_cargo = Cargo(_config())
    reference = ref_cargo.run(graph)
    resilience = ResilienceConfig(checkpoint_path=tmp_path / "tiles.ckpt")
    out_cargo = Cargo(_config(resilience))
    result = out_cargo.run(graph)
    _assert_transcripts_match(ref_cargo, reference, out_cargo, result)
    assert (tmp_path / "tiles.ckpt").exists()


def test_transient_pool_faults_retry_transparently(tmp_path):
    # OSErrors inside tile tasks retry under the policy; the transcript is
    # unchanged because a retried group replays the same dealt material.
    graph = _graph()
    ref_cargo = Cargo(_config())
    reference = ref_cargo.run(graph)
    resilience = ResilienceConfig(
        retry=RetryPolicy(max_attempts=3, sleep=lambda _delay: None)
    )
    plan = FaultPlan(
        [
            FaultSpec("pool.task", FaultKind.OSERROR, at=2),
            FaultSpec("pool.task", FaultKind.OSERROR, at=7),
        ]
    )
    with install_fault_plan(plan):
        out_cargo = Cargo(_config(resilience))
        result = out_cargo.run(graph)
    _assert_transcripts_match(ref_cargo, reference, out_cargo, result)
    assert len(plan.triggered()) == 2


def test_checkpoint_every_throttles_saves(tmp_path):
    graph = _graph()
    resilience = ResilienceConfig(
        checkpoint_path=tmp_path / "tiles.ckpt", checkpoint_every=2, resume=True
    )
    plan = FaultPlan([FaultSpec("pool.task", FaultKind.CRASH, at=5)])
    with install_fault_plan(plan):
        with pytest.raises(InjectedCrash):
            Cargo(_config(resilience)).run(graph)
    ref_cargo = Cargo(_config())
    reference = ref_cargo.run(graph)
    out_cargo = Cargo(_config(resilience))
    resumed = out_cargo.run(graph)
    _assert_transcripts_match(ref_cargo, reference, out_cargo, resumed)


def test_serial_windowed_run_also_journals(tmp_path):
    # workers=1 exercises the inline (non-executor) pool path.
    graph = _graph(num_nodes=40)
    ref_cargo = Cargo(_config(workers=1))
    reference = ref_cargo.run(graph)
    ckpt = tmp_path / "tiles.ckpt"
    resilience = ResilienceConfig(checkpoint_path=ckpt, resume=True)
    plan = FaultPlan([FaultSpec("pool.task", FaultKind.CRASH, at=3)])
    with install_fault_plan(plan):
        with pytest.raises(InjectedCrash):
            Cargo(_config(resilience, workers=1)).run(graph)
    out_cargo = Cargo(_config(resilience, workers=1))
    resumed = out_cargo.run(graph)
    _assert_transcripts_match(ref_cargo, reference, out_cargo, resumed)
