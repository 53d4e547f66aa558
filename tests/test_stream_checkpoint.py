"""Crash-safe checkpoint/resume for the streaming orchestrator.

The correctness bar is *bit-identity*: a run killed at any point and resumed
from its checkpoint must publish exactly the releases — estimates, truth,
anchors, ε trajectory — and exactly the accountant ledger of a run that was
never interrupted.  Anything weaker would mean a crash changes the privacy
or accuracy story of the stream.
"""

from __future__ import annotations

import pytest

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
from repro.stream.events import replay_stream
from repro.stream.orchestrator import StreamingCargo, StreamingConfig


def _stream(num_nodes=70, seed=5):
    graph = erdos_renyi_graph(num_nodes, 0.3, seed=seed)
    return replay_stream(graph, rng=seed)


def _config(**overrides):
    fields = dict(epsilon=4.0, release_every=40, anchor_every=3, seed=21)
    fields.update(overrides)
    return StreamingConfig(**fields)


def _reference(**overrides):
    return StreamingCargo(_config(**overrides)).run(_stream())


#: At ε=4 the anchors' private max degree is clamped to n-1, which hides a
#: resumed run re-spawning the per-user `Max` substreams; at ε=200 it does not.
EPSILONS = [4.0, 200.0]


def _assert_bit_identical(result, reference):
    assert result.releases == reference.releases
    assert result.ledger == reference.ledger
    assert result.epsilon_spent == reference.epsilon_spent
    assert result.anchors_run == reference.anchors_run
    assert result.events_processed == reference.events_processed


@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("crash_at_anchor", [1, 2, 3])
def test_kill_at_anchor_resumes_bit_identically(tmp_path, crash_at_anchor, epsilon):
    reference = _reference(epsilon=epsilon)
    ckpt = tmp_path / "stream.ckpt"
    resilience = ResilienceConfig(checkpoint_path=ckpt, resume=True)
    plan = FaultPlan(
        [FaultSpec("stream.anchor", FaultKind.CRASH, at=crash_at_anchor)]
    )
    with install_fault_plan(plan):
        with pytest.raises(InjectedCrash):
            StreamingCargo(_config(epsilon=epsilon, resilience=resilience)).run(_stream())
    assert ckpt.exists() or crash_at_anchor == 1  # bootstrap crash may precede saves
    resumed = StreamingCargo(_config(epsilon=epsilon, resilience=resilience)).run(_stream())
    _assert_bit_identical(resumed, reference)


def test_resume_from_every_checkpoint_cadence(tmp_path):
    # checkpoint_every > 1 loses at most (every - 1) releases to replay;
    # the resumed output must still be bit-identical.
    reference = _reference()
    ckpt = tmp_path / "stream.ckpt"
    resilience = ResilienceConfig(checkpoint_path=ckpt, checkpoint_every=4, resume=True)
    plan = FaultPlan([FaultSpec("stream.anchor", FaultKind.CRASH, at=3)])
    with install_fault_plan(plan):
        with pytest.raises(InjectedCrash):
            StreamingCargo(_config(resilience=resilience)).run(_stream())
    resumed = StreamingCargo(_config(resilience=resilience)).run(_stream())
    _assert_bit_identical(resumed, reference)


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_transient_anchor_fault_retries_without_double_spend(tmp_path, epsilon):
    # A retried anchor must not spend ε twice nor shift any RNG stream: the
    # full run output matches the fault-free reference exactly.
    reference = _reference(epsilon=epsilon)
    resilience = ResilienceConfig(
        retry=RetryPolicy(max_attempts=3, sleep=lambda _delay: None)
    )
    plan = FaultPlan(
        [
            FaultSpec("stream.anchor", FaultKind.OSERROR, at=1),
            FaultSpec("stream.anchor", FaultKind.OSERROR, at=3),
        ]
    )
    with install_fault_plan(plan):
        result = StreamingCargo(_config(epsilon=epsilon, resilience=resilience)).run(_stream())
    _assert_bit_identical(result, reference)
    assert len(plan.triggered()) == 2


@pytest.mark.parametrize("epsilon", EPSILONS)
def test_fault_after_max_spawned_retries_bit_identically(epsilon):
    # The dealer provisions the anchor's secure count after `Max` has spawned
    # its per-user substreams; the retry must re-spawn the same children.
    reference = _reference(epsilon=epsilon)
    resilience = ResilienceConfig(
        retry=RetryPolicy(max_attempts=3, sleep=lambda _delay: None)
    )
    plan = FaultPlan([FaultSpec("dealer.provision", FaultKind.OSERROR, at=2)])
    with install_fault_plan(plan):
        result = StreamingCargo(_config(epsilon=epsilon, resilience=resilience)).run(_stream())
    _assert_bit_identical(result, reference)
    assert len(plan.triggered()) == 1


def test_resume_without_checkpoint_runs_cold(tmp_path):
    reference = _reference()
    resilience = ResilienceConfig(
        checkpoint_path=tmp_path / "never_written.ckpt", resume=True
    )
    result = StreamingCargo(_config(resilience=resilience)).run(_stream())
    _assert_bit_identical(result, reference)


def test_checkpointing_alone_does_not_change_output(tmp_path):
    reference = _reference()
    resilience = ResilienceConfig(checkpoint_path=tmp_path / "stream.ckpt")
    result = StreamingCargo(_config(resilience=resilience)).run(_stream())
    _assert_bit_identical(result, reference)
    assert (tmp_path / "stream.ckpt").exists()


def test_checkpoint_for_different_stream_is_refused(tmp_path):
    # A checkpoint from one (config, stream) pair must never seed another:
    # the orchestrator's token binds both, and the mismatch is a loud typed
    # refusal — not a silent resume of foreign state.
    ckpt = tmp_path / "stream.ckpt"
    resilience = ResilienceConfig(checkpoint_path=ckpt, resume=True)
    StreamingCargo(_config(resilience=resilience)).run(_stream())
    assert ckpt.exists()
    other_stream = _stream(num_nodes=50, seed=9)
    with pytest.raises(CheckpointError):
        StreamingCargo(_config(resilience=resilience)).run(other_stream)
