"""Tests for repro.crypto.protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crypto.protocol import (
    CommunicationLedger,
    Message,
    Party,
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


class TestParty:
    def test_deliver_and_receive(self):
        party = Party("S1")
        party.deliver(Message(sender="u", receiver="S1", tag="t", payload=1))
        message = party.receive()
        assert message.payload == 1
        assert party.pending() == 0

    def test_receive_by_tag(self):
        party = Party("S1")
        party.deliver(Message(sender="u", receiver="S1", tag="a", payload=1))
        party.deliver(Message(sender="u", receiver="S1", tag="b", payload=2))
        assert party.receive(tag="b").payload == 2
        assert party.pending() == 1

    def test_wrong_receiver_rejected(self):
        party = Party("S1")
        with pytest.raises(ProtocolError):
            party.deliver(Message(sender="u", receiver="S2", tag="t", payload=1))

    def test_empty_mailbox(self):
        with pytest.raises(ProtocolError):
            Party("S1").receive()

    def test_missing_tag(self):
        party = Party("S1")
        party.deliver(Message(sender="u", receiver="S1", tag="a", payload=1))
        with pytest.raises(ProtocolError):
            party.receive(tag="zzz")


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
        """One array-payload record == n scalar sends, message and byte wise."""
        batched = TwoServerRuntime(4)
        batched.users_to_server(1, "noise_share", np.arange(4, dtype=np.uint64))
        scalar = TwoServerRuntime(4)
        for index in range(4):
            scalar.user_to_server(index, 1).send("noise_share", index)
        assert batched.ledger.total_messages == scalar.ledger.total_messages
        assert batched.ledger.total_bytes == scalar.ledger.total_bytes
        assert (
            batched.ledger.phase_summary()["noise_share"]
            == scalar.ledger.phase_summary()["noise_share"]
        )

    def test_users_to_server_delivers_stacked_payload(self):
        runtime = TwoServerRuntime(3)
        runtime.users_to_server(2, "adjacency_share", np.eye(3, dtype=np.uint64))
        message = runtime.server(2).receive(tag="adjacency_share")
        assert message.payload.shape == (3, 3)

    def test_users_to_server_rejects_wrong_row_count(self):
        runtime = TwoServerRuntime(3)
        with pytest.raises(ProtocolError):
            runtime.users_to_server(1, "x", np.zeros(2, dtype=np.uint64))

    def test_broadcast_accounting_matches_per_user_sends(self):
        batched = TwoServerRuntime(4)
        batched.broadcast_to_users(1, "dmax", 17.0)
        scalar = TwoServerRuntime(4)
        for index in range(4):
            scalar.server_to_user(1, index).send("dmax", 17.0)
        assert batched.ledger.total_messages == scalar.ledger.total_messages
        assert batched.ledger.total_bytes == scalar.ledger.total_bytes


class TestTwoServerRuntime:
    def test_topology(self):
        runtime = TwoServerRuntime(3)
        assert len(runtime.users) == 3
        runtime.user_to_server(0, 1).send("share", 42)
        assert runtime.server(1).receive().payload == 42

    def test_server_to_server(self):
        runtime = TwoServerRuntime(1)
        runtime.server_to_server(1, 2).send("open", 9)
        assert runtime.server(2).receive(tag="open").payload == 9

    def test_broadcast(self):
        runtime = TwoServerRuntime(4)
        runtime.broadcast_to_users(1, "dmax", 17)
        assert runtime.ledger.summary() == {"S1->users": {"messages": 4, "bytes": 4 * 8}}
        assert runtime.ledger.phase_summary() == {"dmax": {"messages": 4, "bytes": 4 * 8}}

    def test_ledger_accumulates(self):
        runtime = TwoServerRuntime(2)
        runtime.user_to_server(0, 1).send("x", 1)
        runtime.user_to_server(1, 2).send("x", 2)
        assert runtime.ledger.total_messages == 2

    def test_invalid_indices(self):
        runtime = TwoServerRuntime(2)
        with pytest.raises(ProtocolError):
            runtime.user_to_server(5, 1)
        with pytest.raises(ProtocolError):
            runtime.user_to_server(0, 3)
        with pytest.raises(ProtocolError):
            TwoServerRuntime(-1)


class TestRuntimeConstructionCost:
    def test_million_user_runtime_allocates_constant_memory(self):
        """Users are addressed by index; nothing per user is built up front."""
        import tracemalloc

        tracemalloc.start()
        try:
            runtime = TwoServerRuntime(10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert len(runtime.users) == 10**6

    def test_user_parties_and_channels_are_cached_on_lookup(self):
        runtime = TwoServerRuntime(10**6)
        assert runtime.user(999_999) is runtime.user(999_999)
        channel = runtime.user_to_server(999_999, 2)
        assert runtime.user_to_server(999_999, 2) is channel
        channel.send("share", 3)
        assert runtime.server(2).receive(tag="share").payload == 3
        with pytest.raises(ProtocolError):
            runtime.server_to_server(1, 1)
