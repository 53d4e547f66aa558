"""Tests for repro.crypto.protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.protocol import (
    CommunicationLedger,
    TwoServerRuntime,
    estimate_message_bytes,
)
from repro.exceptions import ProtocolError


class TestMessageBytes:
    def test_scalar_sizes(self):
        assert estimate_message_bytes(5) == 8
        assert estimate_message_bytes(3.14) == 8
        assert estimate_message_bytes(True) == 1
        assert estimate_message_bytes(None) == 0

    def test_array_size(self):
        array = np.zeros(10, dtype=np.uint64)
        assert estimate_message_bytes(array) == 80

    def test_container_sizes(self):
        assert estimate_message_bytes([1, 2, 3]) == 24
        assert estimate_message_bytes({"a": 1}) == 1 + 8

    def test_string_size(self):
        assert estimate_message_bytes("abcd") == 4


class TestLedger:
    def test_records_messages_and_bytes(self):
        ledger = CommunicationLedger()
        ledger.record("u->S1", np.zeros(4, dtype=np.uint64))
        ledger.record("u->S1", 7)
        assert ledger.total_messages == 2
        assert ledger.total_bytes == 32 + 8
        assert ledger.summary()["u->S1"]["messages"] == 2

    def test_batched_record_counts_many_messages(self):
        ledger = CommunicationLedger()
        ledger.record("users->S1", np.zeros(5, dtype=np.uint64), phase="x", messages=5)
        assert ledger.total_messages == 5
        assert ledger.total_bytes == 5 * 8
        assert ledger.phase_summary()["x"] == {"messages": 5, "bytes": 40}

    def test_negative_message_count_rejected(self):
        with pytest.raises(ProtocolError):
            CommunicationLedger().record("u->S1", 1, messages=-1)


class TestBatchedUploads:
    def test_users_to_server_accounting_matches_per_user_sends(self):
        """One array-payload record == n per-message records, message and byte wise."""
        batched = TwoServerRuntime(4)
        batched.users_to_server(1, "noise_share", np.arange(4, dtype=np.uint64))
        reference = CommunicationLedger()
        for index in range(4):
            reference.record("users->S1", index, phase="noise_share")
        assert batched.ledger.summary() == reference.summary()
        assert batched.ledger.phase_summary() == reference.phase_summary()

    def test_users_to_server_rejects_wrong_row_count(self):
        runtime = TwoServerRuntime(3)
        with pytest.raises(ProtocolError):
            runtime.users_to_server(1, "x", np.zeros(2, dtype=np.uint64))

    def test_broadcast_accounting_matches_per_user_sends(self):
        batched = TwoServerRuntime(4)
        batched.broadcast_to_users(1, "dmax", 17.0)
        reference = CommunicationLedger()
        for _ in range(4):
            reference.record("S1->users", 17.0, phase="dmax")
        assert batched.ledger.summary() == reference.summary()
        assert batched.ledger.phase_summary() == reference.phase_summary()


class TestTwoServerRuntime:
    def test_topology(self):
        runtime = TwoServerRuntime(3)
        assert runtime.num_users == 3
        runtime.users_to_server(2, "share", np.arange(3, dtype=np.uint64))
        assert runtime.ledger.summary() == {"users->S2": {"messages": 3, "bytes": 24}}

    def test_server_to_server(self):
        runtime = TwoServerRuntime(1)
        runtime.server_to_server(1, "open", 9)
        runtime.server_to_server(2, "open", 9)
        assert runtime.ledger.summary() == {
            "S1->S2": {"messages": 1, "bytes": 8},
            "S2->S1": {"messages": 1, "bytes": 8},
        }
        assert runtime.ledger.phase_summary() == {"open": {"messages": 2, "bytes": 16}}

    def test_broadcast(self):
        runtime = TwoServerRuntime(4)
        runtime.broadcast_to_users(1, "dmax", 17)
        assert runtime.ledger.summary() == {"S1->users": {"messages": 4, "bytes": 4 * 8}}
        assert runtime.ledger.phase_summary() == {"dmax": {"messages": 4, "bytes": 4 * 8}}

    def test_ledger_accumulates(self):
        runtime = TwoServerRuntime(2)
        runtime.users_to_server(1, "x", np.arange(2, dtype=np.uint64))
        runtime.users_to_server(2, "x", np.arange(2, dtype=np.uint64))
        assert runtime.ledger.total_messages == 4

    def test_invalid_indices(self):
        runtime = TwoServerRuntime(2)
        with pytest.raises(ProtocolError):
            runtime.users_to_server(3, "x", np.arange(2, dtype=np.uint64))
        with pytest.raises(ProtocolError):
            runtime.server_to_server(3, "x", 1)
        with pytest.raises(ProtocolError):
            TwoServerRuntime(-1)


class TestRuntimeConstructionCost:
    def test_million_user_runtime_allocates_constant_memory(self):
        """Users are addressed in aggregate; nothing per user is built."""
        import tracemalloc

        tracemalloc.start()
        try:
            runtime = TwoServerRuntime(10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert runtime.num_users == 10**6
