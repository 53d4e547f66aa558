"""The in-process and wire openers run one MAC check.

``OpeningAuthenticator`` holds both server roles in one process; two
``OpeningChannel``s (one per role, on a socket pair, one of them in a thread)
hold one role each and swap their vectors over the wire.  Built from the
same seed they must open the same values, count the same checked rounds and
values, and abort a cheat with the same ``CheaterDetectedError`` text.
"""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

from repro.crypto.mac import OpeningAuthenticator
from repro.crypto.ring import DEFAULT_RING, Ring
from repro.exceptions import CheaterDetectedError
from repro.runtime.server import OpeningChannel
from repro.runtime.wire import KIND_OPEN_VALUES, WireEndpoint

SEED = 5


def _rounds(ring: Ring):
    """Three rounds of mixed operands, as ``(label, [(share1, share2), ...])``."""
    rng = np.random.default_rng(1)
    matrix = (ring.random_array((2, 3), rng), ring.random_array((2, 3), rng))
    return [
        ("beaver_opening", [matrix, (3, 4)]),
        ("mg_opening", [(ring.random_array(5, rng), ring.random_array(5, rng))]),
        ("release_opening", [(ring.sub(0, 9), 11)]),
    ]


class _EditingEndpoint(WireEndpoint):
    """An endpoint that rewrites every value vector it sends."""

    def __init__(self, sock, edit, **names) -> None:
        super().__init__(sock, **names)
        self._edit = edit

    def send(self, kind, meta, arrays=()):
        if kind == KIND_OPEN_VALUES:
            arrays = [self._edit(array) for array in arrays]
        super().send(kind, meta, arrays)


def _in_process(rounds, ring, tamper=None):
    auth = OpeningAuthenticator(seed=SEED, ring=ring, tamper=tamper)
    opened = [auth.exchange(label, pairs) for label, pairs in rounds]
    return opened, (auth.rounds_checked, auth.values_checked)


def _wire(rounds, ring, edit=None, tamper_round=None):
    """Server 1 runs in a thread, server 2 here; returns each role's outcome."""
    sock1, sock2 = socket.socketpair()
    names = {"name": "server1", "peer": "server2"}
    if edit is None:
        endpoint1 = WireEndpoint(sock1, **names)
    else:
        endpoint1 = _EditingEndpoint(sock1, edit, **names)
    endpoint2 = WireEndpoint(sock2, name="server2", peer="server1")
    outcomes = {}

    def serve(role, endpoint, tamper):
        channel = OpeningChannel(
            endpoint, role=role, ring=ring, authenticate=True, seed=SEED, tamper_round=tamper
        )
        try:
            opened = [
                channel.exchange(label, [(pair[role - 1],) for pair in pairs])
                for label, pairs in rounds
            ]
            outcomes[role] = (opened, (channel.rounds_checked, channel.values_checked))
        except Exception as error:  # noqa: BLE001 - compared by the tests
            outcomes[role] = error
        finally:
            # A server that aborts sends nothing more; closing its end turns
            # the peer's pending receive into an EOF instead of a hang.
            endpoint.close()

    thread = threading.Thread(target=serve, args=(1, endpoint1, tamper_round))
    thread.start()
    serve(2, endpoint2, None)
    thread.join(timeout=30)
    assert not thread.is_alive()
    return outcomes


def _assert_same_opened(left, right):
    for round_left, round_right in zip(left, right, strict=True):
        for value_left, value_right in zip(round_left, round_right, strict=True):
            assert type(value_left) is type(value_right)
            np.testing.assert_array_equal(value_left, value_right)


@pytest.mark.parametrize("ring", [DEFAULT_RING, Ring(36)], ids=["64", "36"])
def test_honest_openings_and_counters_match(ring):
    rounds = _rounds(ring)
    opened, counters = _in_process(rounds, ring)
    outcomes = _wire(rounds, ring)
    for role in (1, 2):
        wire_opened, wire_counters = outcomes[role]
        _assert_same_opened(wire_opened, opened)
        assert wire_counters == counters == (3, 13)


def _lie(opening):
    if opening.index == 1:
        opening.messages[0].values[0] += np.uint64(1)


def _truncate(opening):
    opening.messages[0].values = opening.messages[0].values[:-1]


def _retype(opening):
    opening.messages[0].values = opening.messages[0].values.astype(np.int64)


@pytest.mark.parametrize(
    "tamper, wire_kwargs, match",
    [
        (_lie, {"tamper_round": 1}, "carry inconsistent tags"),
        (_truncate, {"edit": lambda values: values[:-1]}, "truncation detected"),
        (_retype, {"edit": lambda values: values.astype(np.int64)}, "sent dtype int64"),
    ],
    ids=["value-lie", "truncated", "dtype"],
)
def test_cheats_raise_the_same_error(tamper, wire_kwargs, match):
    ring = DEFAULT_RING
    rounds = _rounds(ring)
    with pytest.raises(CheaterDetectedError, match=match) as local:
        _in_process(rounds, ring, tamper=tamper)
    remote = _wire(rounds, ring, **wire_kwargs)[2]
    assert isinstance(remote, CheaterDetectedError)
    assert str(remote) == str(local.value)
    assert (remote.label, remote.round_index) == (local.value.label, local.value.round_index)


def test_value_lie_is_caught_by_both_servers():
    outcomes = _wire(_rounds(DEFAULT_RING), DEFAULT_RING, tamper_round=0)
    assert all(isinstance(outcomes[role], CheaterDetectedError) for role in (1, 2))
    assert str(outcomes[1]) == str(outcomes[2])
