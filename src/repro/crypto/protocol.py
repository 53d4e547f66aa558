"""Party / channel simulation with communication accounting.

CARGO is a protocol between ``n`` users and two non-colluding servers.  The
paper deploys it over a network; this module simulates the deployment
in-process while preserving the structure the security argument relies on:

* each :class:`Party` has a mailbox and can only read messages addressed to
  it,
* every message goes through a :class:`Channel`, which records the number of
  messages and an estimate of their size in bytes in a shared
  :class:`CommunicationLedger`, and
* :class:`TwoServerRuntime` serves the standard topology (every user has a
  private channel to each server, and the two servers have a channel to each
  other) and exposes the ledger so experiments can report communication
  costs alongside running time.  User parties and channels are built only
  when looked up, so a runtime for ``n`` users costs ``O(1)`` to create.

The substitution (real network → in-process simulation) is documented in
``DESIGN.md``; the bytes-on-the-wire accounting is what lets the repo still
speak to the paper's overhead discussion.
"""

from __future__ import annotations

import threading
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional, Tuple

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
    ``noisy_degree``, …).  Channels pass their message tag as the phase at
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


@dataclass
class Message:
    """A single protocol message: sender, receiver, free-form tag, payload."""

    sender: str
    receiver: str
    tag: str
    payload: Any


class Party:
    """A protocol participant with a name and an inbound mailbox."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._mailbox: Deque[Message] = deque()

    def deliver(self, message: Message) -> None:
        """Called by a :class:`Channel` to place *message* in the mailbox."""
        if message.receiver != self.name:
            raise ProtocolError(
                f"party {self.name!r} received a message addressed to {message.receiver!r}"
            )
        self._mailbox.append(message)

    def receive(self, tag: Optional[str] = None) -> Message:
        """Pop the oldest message (optionally the oldest with a given *tag*)."""
        if tag is None:
            if not self._mailbox:
                raise ProtocolError(f"party {self.name!r} has no pending messages")
            return self._mailbox.popleft()
        for index, message in enumerate(self._mailbox):
            if message.tag == tag:
                del self._mailbox[index]
                return message
        raise ProtocolError(f"party {self.name!r} has no pending message tagged {tag!r}")

    def pending(self) -> int:
        """Number of undelivered messages in the mailbox."""
        return len(self._mailbox)


class Channel:
    """A directed pair of parties plus the shared communication ledger."""

    def __init__(self, sender: Party, receiver: Party, ledger: CommunicationLedger) -> None:
        self._sender = sender
        self._receiver = receiver
        self._ledger = ledger
        self.label = f"{sender.name}->{receiver.name}"

    def send(self, tag: str, payload: Any) -> None:
        """Send *payload* from the channel's sender to its receiver.

        The message *tag* doubles as the ledger's phase label, so per-phase
        communication totals come for free with every send.
        """
        self._ledger.record(self.label, payload, phase=tag)
        self._receiver.deliver(
            Message(sender=self._sender.name, receiver=self._receiver.name, tag=tag, payload=payload)
        )


class TwoServerRuntime:
    """The CARGO communication topology: ``n`` users and two servers.

    The runtime holds the two server parties, the server-to-server channels
    and a single :class:`CommunicationLedger`.  Protocol code obtains
    channels by name (e.g. ``runtime.user_to_server(i, 1)``) so that every
    transmission is accounted for.  Users are addressed by index: a user's
    :class:`Party` and her two channels each way are built on first lookup
    and cached, so construction is ``O(1)`` in ``n`` and array-native
    protocol steps (:meth:`users_to_server`, :meth:`broadcast_to_users`)
    never pay for ``n`` Python objects.
    """

    SERVER1 = "S1"
    SERVER2 = "S2"

    def __init__(self, num_users: int) -> None:
        if num_users < 0:
            raise ProtocolError(f"num_users must be non-negative, got {num_users}")
        self.num_users = int(num_users)
        self.ledger = CommunicationLedger()
        self.server1 = Party(self.SERVER1)
        self.server2 = Party(self.SERVER2)
        self._parties: Dict[str, Party] = {
            self.SERVER1: self.server1,
            self.SERVER2: self.server2,
        }
        self._channels: Dict[Tuple[str, str], Channel] = {}
        self._channel(self.SERVER1, self.SERVER2)
        self._channel(self.SERVER2, self.SERVER1)

    @property
    def users(self) -> range:
        """The user indices ``0 .. n-1`` (see :meth:`user`)."""
        return range(self.num_users)

    # ------------------------------------------------------------------ #
    # Channel lookup
    # ------------------------------------------------------------------ #
    def user_to_server(self, user_index: int, server_index: int) -> Channel:
        """Channel from ``user-{user_index}`` to server ``S{server_index}``."""
        return self._channel(self._user(user_index).name, self._server(server_index).name)

    def server_to_user(self, server_index: int, user_index: int) -> Channel:
        """Channel from server ``S{server_index}`` to ``user-{user_index}``."""
        return self._channel(self._server(server_index).name, self._user(user_index).name)

    def server_to_server(self, from_index: int, to_index: int) -> Channel:
        """Channel between the two servers."""
        return self._channel(self._server(from_index).name, self._server(to_index).name)

    def server(self, server_index: int) -> Party:
        """The server party ``S1`` or ``S2``."""
        return self._server(server_index)

    def user(self, user_index: int) -> Party:
        """The user party with index *user_index*."""
        return self._user(user_index)

    def users_to_server(self, server_index: int, tag: str, payloads: Any) -> None:
        """Batched upload: every user sends ``payloads[i]`` to one server.

        The wire-equivalent of ``n`` individual :meth:`user_to_server` sends,
        executed as one array-native step: the ledger books ``n`` messages
        under the aggregate ``users->S{server_index}`` label with the byte
        total of the stacked payload (identical to the sum of the per-user
        sizes), and the server's mailbox receives one stacked message.
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
            f"users->{server.name}", payloads, phase=tag, messages=payloads.shape[0]
        )
        server.deliver(
            Message(sender="users", receiver=server.name, tag=tag, payload=payloads)
        )

    def broadcast_to_users(self, server_index: int, tag: str, payload: Any) -> None:
        """Send the same *payload* from a server to every user.

        Accounted as one aggregate ledger record of ``n`` messages (the byte
        total is ``n`` copies of the payload).  No user mailbox is filled:
        users run no protocol code that reads one.
        """
        if self.num_users == 0:
            return
        server = self._server(server_index)
        self.ledger.record(
            f"{server.name}->users",
            payload,
            phase=tag,
            messages=self.num_users,
            total_bytes=self.num_users * estimate_message_bytes(payload),
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _channel(self, sender_name: str, receiver_name: str) -> Channel:
        """The channel between two known parties, built on first lookup.

        Only user-server and server-server pairs are connected.
        """
        key = (sender_name, receiver_name)
        channel = self._channels.get(key)
        if channel is None:
            sender = self._parties.get(sender_name)
            receiver = self._parties.get(receiver_name)
            servers = (self.SERVER1, self.SERVER2)
            if (
                sender is None
                or receiver is None
                or sender is receiver
                or (sender_name not in servers and receiver_name not in servers)
            ):
                raise ProtocolError(
                    f"no channel registered from {sender_name!r} to {receiver_name!r}"
                )
            # setdefault keeps concurrent first lookups on one channel.
            channel = self._channels.setdefault(
                key, Channel(sender, receiver, self.ledger)
            )
        return channel

    def _server(self, server_index: int) -> Party:
        if server_index == 1:
            return self.server1
        if server_index == 2:
            return self.server2
        raise ProtocolError(f"server index must be 1 or 2, got {server_index}")

    def _user(self, user_index: int) -> Party:
        if not (0 <= user_index < self.num_users):
            raise ProtocolError(
                f"user index {user_index} out of range for {self.num_users} users"
            )
        name = f"user-{user_index}"
        party = self._parties.get(name)
        if party is None:
            party = self._parties.setdefault(name, Party(name))
        return party
