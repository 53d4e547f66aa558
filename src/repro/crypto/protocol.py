"""Communication accounting for the users-and-two-servers topology.

CARGO is a protocol between ``n`` users and two non-colluding servers.  The
paper deploys it over a network; the in-process engine passes values
directly between the protocol steps, and this module books what *would*
cross the network:

* :class:`CommunicationLedger` counts messages and an estimate of their size
  in bytes per channel label and per protocol phase, and
* :class:`TwoServerRuntime` serves the standard topology (every user has a
  private channel to each server, and the two servers have a channel to each
  other) as record calls on one ledger, so experiments can report
  communication costs alongside running time.

The process-separated runtime (:mod:`repro.runtime`) keeps the same ledger
and reconciles it, phase by phase, against the payload bytes its sockets
actually carried.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.exceptions import ProtocolError


def estimate_message_bytes(payload: Any) -> int:
    """Rough wire-size estimate of *payload* in bytes.

    Ring elements count as 8 bytes; numpy arrays as their buffer size;
    containers as the sum of their elements.  The estimate only needs to be
    consistent across protocols to make the communication comparisons in the
    experiments meaningful.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bool,)):
        return 1
    if isinstance(payload, (int, np.integer)):
        return 8
    if isinstance(payload, (float, np.floating)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, dict):
        return sum(estimate_message_bytes(k) + estimate_message_bytes(v) for k, v in payload.items())
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(estimate_message_bytes(item) for item in payload)
    if hasattr(payload, "__dict__"):
        return estimate_message_bytes(vars(payload))
    return 8


@dataclass
class CommunicationLedger:
    """Aggregate message and byte counts, broken down by channel label.

    Every message is additionally attributed to a *phase* — the semantic
    protocol step it belongs to (``adjacency_share``, ``noise_share``,
    ``noisy_degree``, …).  Senders pass their message tag as the phase at
    send time, so experiments can split, say, the adjacency-share upload from
    the noise-share upload exactly rather than reverse-engineering the split
    from message sizes.

    Appends are serialised with a lock so concurrent senders (worker threads
    of the tile-parallel engine, parallel sweep trials sharing a runtime)
    cannot lose counter increments; totals are therefore exact for any
    worker count.
    """

    messages: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    bytes_sent: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    phase_messages: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    phase_bytes: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(
        self,
        label: str,
        payload: Any,
        phase: Optional[str] = None,
        messages: int = 1,
        total_bytes: Optional[int] = None,
    ) -> None:
        """Account *messages* messages with the given total *payload* on *label*.

        *phase* attributes the messages to a named protocol step; ``None``
        books them under ``"unlabelled"`` so phase totals always reconcile
        with the channel totals.  *messages* supports batched sends: one
        array payload stands for that many per-user messages, with the byte
        total computed once over the stacked payload (identical to the sum of
        the per-message sizes, since ring elements and floats are fixed
        width).  *total_bytes*, when given, overrides the payload size
        estimate — used when the caller already knows the aggregate size
        (e.g. a broadcast of ``messages`` identical copies).
        """
        if messages < 0:
            raise ProtocolError(f"messages must be non-negative, got {messages}")
        size = total_bytes if total_bytes is not None else estimate_message_bytes(payload)
        phase_key = phase if phase is not None else "unlabelled"
        with self._lock:
            self.messages[label] += messages
            self.bytes_sent[label] += size
            self.phase_messages[phase_key] += messages
            self.phase_bytes[phase_key] += size

    @property
    def total_messages(self) -> int:
        """Total number of messages across all channels."""
        return sum(self.messages.values())

    @property
    def total_bytes(self) -> int:
        """Total estimated bytes across all channels."""
        return sum(self.bytes_sent.values())

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per-channel breakdown suitable for reporting."""
        return {
            label: {"messages": self.messages[label], "bytes": self.bytes_sent[label]}
            for label in sorted(self.messages)
        }

    def phase_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-phase breakdown (message tags recorded at send time)."""
        return {
            phase: {"messages": self.phase_messages[phase], "bytes": self.phase_bytes[phase]}
            for phase in sorted(self.phase_messages)
        }


class TwoServerRuntime:
    """The CARGO communication topology: ``n`` users and two servers.

    Holds the run's single :class:`CommunicationLedger` and books every
    transmission of the protocol on it under its channel label
    (``users->S1``, ``S1->users``, ``S1->S2``, ``dealer->users``, …) and its
    phase tag.  Users
    are addressed only in aggregate: an upload or broadcast of ``n``
    per-user messages is one array-native record, so construction is
    ``O(1)`` in ``n`` and nothing keeps a payload alive once it is booked.
    """

    SERVER1 = "S1"
    SERVER2 = "S2"
    DEALER = "dealer"

    def __init__(self, num_users: int) -> None:
        if num_users < 0:
            raise ProtocolError(f"num_users must be non-negative, got {num_users}")
        self.num_users = int(num_users)
        self.ledger = CommunicationLedger()

    def users_to_server(self, server_index: int, tag: str, payloads: Any) -> None:
        """Batched upload: every user sends ``payloads[i]`` to one server.

        The wire-equivalent of ``n`` per-user sends, booked as one record:
        ``n`` messages under the aggregate ``users->S{server_index}`` label
        with the byte total of the stacked payload (identical to the sum of
        the per-user sizes).
        """
        server = self._server(server_index)
        payloads = np.asarray(payloads)
        if payloads.ndim == 0:
            raise ProtocolError(
                "batched upload needs one payload row per user, got a scalar"
            )
        if payloads.shape[0] != self.num_users:
            raise ProtocolError(
                f"batched upload carries {payloads.shape[0]} rows "
                f"for {self.num_users} users"
            )
        self.ledger.record(
            f"users->{server}", payloads, phase=tag, messages=payloads.shape[0]
        )

    def dealer_to_users(self, tag: str, payloads: Any) -> None:
        """Batched provisioning: the dealer sends every user ``payloads[i]``.

        Booked like :meth:`users_to_server`, as ``n`` messages under the
        aggregate ``dealer->users`` label.
        """
        payloads = np.asarray(payloads)
        if payloads.ndim == 0 or payloads.shape[0] != self.num_users:
            raise ProtocolError(
                f"dealer provisioning carries {payloads.shape[:1]} rows "
                f"for {self.num_users} users"
            )
        self.ledger.record(
            f"{self.DEALER}->users", payloads, phase=tag, messages=payloads.shape[0]
        )

    def broadcast_to_users(self, server_index: int, tag: str, payload: Any) -> None:
        """Send the same *payload* from a server to every user.

        Accounted as one aggregate ledger record of ``n`` messages (the byte
        total is ``n`` copies of the payload).
        """
        if self.num_users == 0:
            return
        self.ledger.record(
            f"{self._server(server_index)}->users",
            payload,
            phase=tag,
            messages=self.num_users,
            total_bytes=self.num_users * estimate_message_bytes(payload),
        )

    def server_to_server(self, from_index: int, tag: str, payload: Any) -> None:
        """Send *payload* from server ``S{from_index}`` to the other server."""
        sender = self._server(from_index)
        receiver = self._server(3 - from_index)
        self.ledger.record(f"{sender}->{receiver}", payload, phase=tag)

    def _server(self, server_index: int) -> str:
        if server_index == 1:
            return self.SERVER1
        if server_index == 2:
            return self.SERVER2
        raise ProtocolError(f"server index must be 1 or 2, got {server_index}")
