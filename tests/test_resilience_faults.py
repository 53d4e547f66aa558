"""Fault-injection harness and retry-policy unit suite.

The resilience layer's contract is *determinism*: the same plan (or the same
``FaultPlan.random`` seed) fires the same faults at the same invocations on
every run, and the retry policy's jittered delays are a pure function of
(seed, site, attempt).  These tests pin that contract plus the typed error
surface (``RetryExhaustedError``, ``InjectedCrash`` never retried) and the
transactional accountant that keeps retried anchors from double-spending.
"""

from __future__ import annotations

import pytest

from repro.dp.accountant import PrivacyAccountant
from repro.exceptions import (
    ConfigurationError,
    DealerError,
    PrivacyError,
    RetryExhaustedError,
)
from repro.resilience import (
    FAULT_SITES,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    RetryPolicy,
    active_fault_plan,
    corrupt_bytes,
    fault_point,
    install_fault_plan,
)
from repro.telemetry.metrics import MetricsRegistry


# --------------------------------------------------------------------- #
# FaultSpec / FaultPlan
# --------------------------------------------------------------------- #
def test_fault_spec_rejects_unknown_site_and_bad_index():
    with pytest.raises(ConfigurationError):
        FaultSpec("not.a.site", FaultKind.OSERROR)
    with pytest.raises(ConfigurationError):
        FaultSpec("pool.task", FaultKind.OSERROR, at=0)


def test_fault_plan_rejects_duplicate_slot():
    with pytest.raises(ConfigurationError):
        FaultPlan(
            [
                FaultSpec("pool.task", FaultKind.OSERROR, at=2),
                FaultSpec("pool.task", FaultKind.CRASH, at=2),
            ]
        )


def test_fault_point_is_noop_without_plan():
    assert active_fault_plan() is None
    for site in FAULT_SITES:
        assert fault_point(site) is None


def test_fault_plan_fires_each_kind_at_pinned_invocation():
    plan = FaultPlan(
        [
            FaultSpec("pool.task", FaultKind.OSERROR, at=2),
            FaultSpec("stream.anchor", FaultKind.CRASH, at=1),
            FaultSpec("dealer.provision", FaultKind.EXHAUST, at=1),
            FaultSpec("export.write", FaultKind.BITFLIP, at=1),
        ]
    )
    with install_fault_plan(plan):
        assert fault_point("pool.task") is None  # invocation 1: clean
        with pytest.raises(OSError):
            fault_point("pool.task")  # invocation 2 fires
        with pytest.raises(InjectedCrash):
            fault_point("stream.anchor")
        with pytest.raises(DealerError):
            fault_point("dealer.provision")
        spec = fault_point("export.write")  # bitflips are returned, not raised
        assert spec is not None and spec.kind is FaultKind.BITFLIP
    log = plan.triggered()
    assert [entry["site"] for entry in log] == [
        "pool.task",
        "stream.anchor",
        "dealer.provision",
        "export.write",
    ]
    assert plan.counts()["pool.task"] == 2


def test_install_fault_plan_nests_and_restores():
    outer = FaultPlan([FaultSpec("pool.task", FaultKind.OSERROR, at=1)])
    with install_fault_plan(outer):
        with install_fault_plan(None):
            # Inner None temporarily disables the outer plan entirely.
            assert fault_point("pool.task") is None
            assert active_fault_plan() is None
        assert active_fault_plan() is outer
    assert active_fault_plan() is None


def test_fault_plan_json_round_trip():
    plan = FaultPlan(
        [FaultSpec("checkpoint.read", FaultKind.BITFLIP, at=3, payload=17)],
        seed=9,
    )
    clone = FaultPlan.from_json(plan.to_json())
    assert [s.as_dict() for s in clone.specs] == [s.as_dict() for s in plan.specs]
    # The triggered log is runtime state and resets on round-trip.
    assert clone.triggered() == []


def test_fault_plan_random_is_reproducible():
    a = FaultPlan.random(seed=42, num_faults=6)
    b = FaultPlan.random(seed=42, num_faults=6)
    assert [s.as_dict() for s in a.specs] == [s.as_dict() for s in b.specs]
    assert [s.as_dict() for s in FaultPlan.random(seed=43, num_faults=6).specs] != [
        s.as_dict() for s in a.specs
    ]


def test_corrupt_bytes_deterministic_single_bit():
    spec = FaultSpec("export.write", FaultKind.BITFLIP, at=1, payload=5)
    data = bytes(range(64))
    flipped = corrupt_bytes(data, spec)
    assert flipped == corrupt_bytes(data, spec)
    diff = [i for i, (x, y) in enumerate(zip(data, flipped)) if x != y]
    assert len(diff) == 1
    assert bin(data[diff[0]] ^ flipped[diff[0]]).count("1") == 1


# --------------------------------------------------------------------- #
# RetryPolicy
# --------------------------------------------------------------------- #
def test_retry_policy_retries_then_succeeds_with_metrics():
    metrics = MetricsRegistry()
    policy = RetryPolicy(max_attempts=3, sleep=lambda _delay: None)
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise OSError("transient")
        return "ok"

    assert policy.run("pool.task", flaky, metrics=metrics) == "ok"
    assert len(attempts) == 3
    assert metrics.counters()['retry_attempts{site="pool.task"}'] == 2


def test_retry_policy_exhaustion_is_typed():
    metrics = MetricsRegistry()
    policy = RetryPolicy(max_attempts=2, sleep=lambda _delay: None)

    def always_fails():
        raise OSError("disk on fire")

    with pytest.raises(RetryExhaustedError) as excinfo:
        policy.run("checkpoint.read", always_fails, metrics=metrics)
    assert excinfo.value.site == "checkpoint.read"
    assert excinfo.value.attempts == 2
    assert isinstance(excinfo.value.__cause__, OSError)
    assert metrics.counters()['retry_giveups{site="checkpoint.read"}'] == 1


def test_retry_policy_never_retries_injected_crash():
    policy = RetryPolicy(max_attempts=5, sleep=lambda _delay: None)
    calls = []

    def crashes():
        calls.append(1)
        raise InjectedCrash("killed")

    with pytest.raises(InjectedCrash):
        policy.run("pool.task", crashes)
    assert len(calls) == 1  # a crash is a process death, not a transient


def test_retry_policy_delays_are_deterministic_and_bounded():
    policy = RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.05, seed=7)
    delays = [policy.delay("stream.anchor", attempt) for attempt in (1, 2, 3)]
    assert delays == [policy.delay("stream.anchor", a) for a in (1, 2, 3)]
    assert all(0 < d <= 0.05 for d in delays)
    # Different sites jitter differently under the same seed.
    assert policy.delay("pool.task", 1) != policy.delay("stream.anchor", 1)


# --------------------------------------------------------------------- #
# Transactional accountant
# --------------------------------------------------------------------- #
def test_accountant_transaction_rolls_back_on_failure():
    accountant = PrivacyAccountant(total_budget=1.0)
    with pytest.raises(RuntimeError):
        with accountant.transaction():
            accountant.spend(0.4, "doomed anchor")
            raise RuntimeError("fault mid-anchor")
    assert accountant.spent == 0.0
    assert accountant.ledger() == []
    # A successful transaction commits normally.
    with accountant.transaction():
        accountant.spend(0.4, "anchor")
    assert accountant.spent == pytest.approx(0.4)


def test_accountant_rollback_rejects_diverged_snapshot():
    accountant = PrivacyAccountant(total_budget=1.0)
    reservation = accountant.reserve()
    accountant.spend(0.2, "a")
    accountant.rollback(reservation)
    assert accountant.spent == 0.0
    # Rolling back to a snapshot that is no longer a prefix must refuse.
    accountant.spend(0.1, "b")
    stale = (0.05, 7)
    with pytest.raises(PrivacyError):
        accountant.rollback(stale)
