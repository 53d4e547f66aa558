"""Versioned, length-prefixed binary wire format for the distributed runtime.

Every message crossing a runtime link is one **frame**::

    +-------+---------+------+----------+-------------+------+---------+
    | magic | version | kind | meta_len | payload_len | meta | payload |
    | 4 B   | u16     | u16  | u32      | u64         | ...  | ...     |
    +-------+---------+------+----------+-------------+------+---------+

with all header fields little-endian (``struct`` format ``<4sHHIQ``,
20 bytes).  ``meta`` is a pickled dict of small control fields (phase label,
sequence number, array descriptors); ``payload`` is the raw concatenation of
the C-order buffers of every numpy array the frame carries.  Pickle is
acceptable for the *meta* block because every link connects processes forked
from the same trusted parent — the wire format's job is framing and byte
accounting, not cross-trust-domain hardening — while the bulk share payloads
never round-trip through pickle at all: they are scattered straight from the
array buffers with ``socket.sendmsg`` and gathered back with ``recv_into``,
so serialisation is zero-copy in both directions.

One frame carries one protocol event (an opening round, a provisioning item,
a share matrix), never one element — the framing overhead is 20 bytes plus a
small meta dict per *round*, which is what keeps the wire path from giving
back what process parallelism gains.

Frames carry a per-direction sequence number checked on receipt, and every
decode failure — bad magic, unsupported version, unknown kind, length
mismatch, truncation/EOF, out-of-order sequence — raises the typed
:class:`~repro.exceptions.WireFormatError` before any payload byte is
interpreted as a share.

Examples
--------
>>> import numpy as np
>>> frame = encode_frame_bytes(KIND_SHARES, {"phase": "adjacency_share"},
...                            [np.arange(4, dtype=np.uint64)])
>>> kind, meta, arrays = decode_frame(frame)
>>> kind == KIND_SHARES, meta["phase"], arrays[0].tolist()
(True, 'adjacency_share', [0, 1, 2, 3])
"""

from __future__ import annotations

import pickle
import struct
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto.ring import Ring
from repro.exceptions import (
    CheaterDetectedError,
    ProtocolError,
    RuntimeProcessError,
    WireFormatError,
)

__all__ = [
    "WIRE_VERSION",
    "MAGIC",
    "HEADER",
    "KIND_HELLO",
    "KIND_CONTROL",
    "KIND_PROVISION",
    "KIND_SHARES",
    "KIND_OPEN_VALUES",
    "KIND_OPEN_MAC",
    "KIND_RESULT",
    "KIND_ERROR",
    "KIND_CHECK",
    "KIND_NAMES",
    "CONTROL_RUN",
    "CONTROL_RING",
    "CONTROL_CHECKPOINT",
    "CONTROL_ABORT",
    "CONTROL_SHUTDOWN",
    "WireEndpoint",
    "decode_frame",
    "encode_error_meta",
    "encode_frame_bytes",
    "raise_remote_error",
    "recv_ring",
    "summary_delta",
]

#: Version of the wire format; bumped on any incompatible framing change.
WIRE_VERSION = 1

#: Frame preamble — rejects cross-talk from anything that is not a peer.
MAGIC = b"CRGO"

#: Fixed-size frame header: magic, version, kind, meta length, payload length.
HEADER = struct.Struct("<4sHHIQ")

# ---------------------------------------------------------------------- #
# Message kinds
# ---------------------------------------------------------------------- #
KIND_HELLO = 1  #: link handshake (wire version + role names)
KIND_CONTROL = 2  #: control verbs: run / ring / checkpoint / abort / shutdown
KIND_PROVISION = 3  #: dealer -> server correlated-randomness halves
KIND_SHARES = 4  #: driver -> server user share payloads
KIND_OPEN_VALUES = 5  #: server <-> server opening-round value vectors
KIND_OPEN_MAC = 6  #: server <-> server MAC tag-share vectors
KIND_RESULT = 7  #: server -> driver phase or run results
KIND_ERROR = 8  #: any -> any typed error report
KIND_CHECK = 9  #: server <-> server digest of an input both must hold alike

KIND_NAMES: Dict[int, str] = {
    KIND_HELLO: "HELLO",
    KIND_CONTROL: "CONTROL",
    KIND_PROVISION: "PROVISION",
    KIND_SHARES: "SHARES",
    KIND_OPEN_VALUES: "OPEN_VALUES",
    KIND_OPEN_MAC: "OPEN_MAC",
    KIND_RESULT: "RESULT",
    KIND_ERROR: "ERROR",
    KIND_CHECK: "CHECK",
}

#: Control verbs carried in a CONTROL frame's ``meta["verb"]``.
CONTROL_RUN = "run"
#: A release's ring width (``bits``), sent to every party once `Max` has
#: fixed it.
CONTROL_RING = "ring"
CONTROL_CHECKPOINT = "checkpoint"
CONTROL_ABORT = "abort"
CONTROL_SHUTDOWN = "shutdown"

# Guard rails: a corrupted length field must not make a receiver allocate
# gigabytes before the frame is rejected.  Generous for real traffic (the
# largest legitimate payload is a few n^2 x 8-byte share matrices).
MAX_META_LEN = 1 << 24
MAX_PAYLOAD_LEN = 1 << 34


def _array_parts(arrays: Sequence[np.ndarray]) -> Tuple[List[Tuple[str, Tuple[int, ...]]], List[memoryview], int]:
    """Descriptors, flat byte views, and total byte length for *arrays*."""
    descriptors: List[Tuple[str, Tuple[int, ...]]] = []
    views: List[memoryview] = []
    total = 0
    for array in arrays:
        array = np.asarray(array)
        if not array.flags.c_contiguous:
            array = np.ascontiguousarray(array)
        descriptors.append((array.dtype.str, tuple(int(dim) for dim in array.shape)))
        # Flatten before casting: 0-d and zero-length arrays cannot be cast
        # to a byte view directly (reshape of a contiguous array is free).
        view = memoryview(array.reshape(-1)).cast("B")
        views.append(view)
        total += view.nbytes
    return descriptors, views, total


def _decode_arrays(
    descriptors: Sequence[Tuple[str, Sequence[int]]], payload: memoryview
) -> List[np.ndarray]:
    """Rebuild the frame's arrays as views over *payload* (no copies)."""
    arrays: List[np.ndarray] = []
    offset = 0
    total = payload.nbytes
    for dtype_str, shape in descriptors:
        try:
            dtype = np.dtype(dtype_str)
        except TypeError as error:
            raise WireFormatError(f"frame carries unknown dtype {dtype_str!r}") from error
        shape = tuple(int(dim) for dim in shape)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * dtype.itemsize
        if offset + nbytes > total:
            raise WireFormatError(
                f"frame payload too short: array {dtype_str}{shape} needs "
                f"{nbytes} bytes at offset {offset} of a {total}-byte payload"
            )
        array = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
        arrays.append(array.reshape(shape))
        offset += nbytes
    if offset != total:
        raise WireFormatError(
            f"frame payload length mismatch: descriptors cover {offset} bytes "
            f"but the payload holds {total}"
        )
    return arrays


def _unpack_header(header: bytes) -> Tuple[int, int, int]:
    """Validate a raw header; return (kind, meta_len, payload_len)."""
    magic, version, kind, meta_len, payload_len = HEADER.unpack(header)
    if magic != MAGIC:
        raise WireFormatError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {version} (this runtime speaks {WIRE_VERSION})"
        )
    if kind not in KIND_NAMES:
        raise WireFormatError(f"unknown frame kind {kind}")
    if meta_len > MAX_META_LEN:
        raise WireFormatError(f"frame meta length {meta_len} exceeds the {MAX_META_LEN} cap")
    if payload_len > MAX_PAYLOAD_LEN:
        raise WireFormatError(
            f"frame payload length {payload_len} exceeds the {MAX_PAYLOAD_LEN} cap"
        )
    return kind, meta_len, payload_len


def _load_meta(raw: bytes) -> Dict:
    try:
        meta = pickle.loads(raw)
    except Exception as error:  # noqa: BLE001 - any unpickling failure is a framing error
        raise WireFormatError(f"frame meta block failed to decode: {error}") from error
    if not isinstance(meta, dict):
        raise WireFormatError(f"frame meta must be a dict, got {type(meta).__name__}")
    return meta


# ---------------------------------------------------------------------- #
# Pure encode/decode (property tests, fuzzing)
# ---------------------------------------------------------------------- #
def encode_frame_bytes(
    kind: int, meta: Dict, arrays: Sequence[np.ndarray] = ()
) -> bytes:
    """One frame as a contiguous byte string (copying; tests and small frames).

    The socket send path (:meth:`WireEndpoint.send`) scatters the same parts
    without this concatenation; both produce identical bytes.
    """
    if kind not in KIND_NAMES:
        raise WireFormatError(f"unknown frame kind {kind}")
    descriptors, views, payload_len = _array_parts(arrays)
    meta = dict(meta)
    meta["arrays"] = descriptors
    meta_blob = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
    header = HEADER.pack(MAGIC, WIRE_VERSION, kind, len(meta_blob), payload_len)
    return b"".join([header, meta_blob, *views])


def decode_frame(data: bytes) -> Tuple[int, Dict, List[np.ndarray]]:
    """Decode one frame from bytes; inverse of :func:`encode_frame_bytes`.

    Arrays are returned as (possibly read-only) views over *data*.  Raises
    :class:`~repro.exceptions.WireFormatError` on any malformation,
    including trailing garbage after the frame.
    """
    if len(data) < HEADER.size:
        raise WireFormatError(
            f"truncated frame: {len(data)} bytes is shorter than the "
            f"{HEADER.size}-byte header"
        )
    kind, meta_len, payload_len = _unpack_header(data[: HEADER.size])
    end = HEADER.size + meta_len + payload_len
    if len(data) < end:
        raise WireFormatError(
            f"truncated frame: header promises {end} bytes, got {len(data)}"
        )
    if len(data) > end:
        raise WireFormatError(
            f"{len(data) - end} trailing bytes after a {end}-byte frame"
        )
    meta = _load_meta(data[HEADER.size : HEADER.size + meta_len])
    payload = memoryview(data)[HEADER.size + meta_len : end]
    arrays = _decode_arrays(meta.get("arrays", []), payload)
    return kind, meta, arrays


# ---------------------------------------------------------------------- #
# Remote error transport
# ---------------------------------------------------------------------- #
def encode_error_meta(error: BaseException) -> Dict:
    """The meta dict an ERROR frame carries for *error*."""
    meta: Dict = {
        "error_type": type(error).__name__,
        "message": str(error),
    }
    if isinstance(error, CheaterDetectedError):
        meta["label"] = error.label
        meta["round_index"] = error.round_index
    return meta


def raise_remote_error(meta: Dict, source: str) -> None:
    """Re-raise the error a peer reported in an ERROR frame.

    :class:`~repro.exceptions.CheaterDetectedError` is reconstructed with
    its label and round index so the driver's cheater handling sees exactly
    what an in-process run would; every other peer failure surfaces as
    :class:`~repro.exceptions.RuntimeProcessError`.
    """
    error_type = meta.get("error_type", "Error")
    message = meta.get("message", "")
    if error_type == "CheaterDetectedError":
        raise CheaterDetectedError(
            message,
            label=str(meta.get("label", "")),
            round_index=int(meta.get("round_index", -1)),
        )
    raise RuntimeProcessError(f"{source} failed with {error_type}: {message}")


# ---------------------------------------------------------------------- #
# Socket endpoint
# ---------------------------------------------------------------------- #
class WireEndpoint:
    """One end of a runtime link: framed sends/receives plus byte accounting.

    Sends scatter the header, meta block, and every array buffer through
    ``socket.sendmsg`` (with a partial-send advance loop), so share payloads
    go from numpy memory to the kernel without an intermediate copy.
    Receives gather into a preallocated writable buffer with ``recv_into``
    and rebuild the arrays as views over it, so decoded shares are writable
    and copy-free as well.

    The endpoint counts every frame it *sends*, keyed by
    ``(kind_name, phase)`` — frames, logical payload bytes, and total wire
    bytes — which is what the driver's post-run ledger reconciliation sums
    over all processes.
    """

    def __init__(self, sock, name: str = "", peer: str = "") -> None:
        self._sock = sock
        self.name = name
        self.peer = peer
        self._send_seq = 0
        self._recv_seq = 0
        self._sent: Dict[Tuple[str, str], Dict[str, int]] = {}

    # -- sending ------------------------------------------------------- #
    def send(self, kind: int, meta: Dict, arrays: Sequence[np.ndarray] = ()) -> None:
        """Frame and send one message (blocking until fully written)."""
        if kind not in KIND_NAMES:
            raise WireFormatError(f"unknown frame kind {kind}")
        descriptors, views, payload_len = _array_parts(arrays)
        meta = dict(meta)
        meta["arrays"] = descriptors
        meta["seq"] = self._send_seq
        self._send_seq += 1
        meta_blob = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
        header = HEADER.pack(MAGIC, WIRE_VERSION, kind, len(meta_blob), payload_len)
        self._send_all([memoryview(header), memoryview(meta_blob), *views])
        wire_bytes = HEADER.size + len(meta_blob) + payload_len
        counter = self._sent.setdefault(
            (KIND_NAMES[kind], str(meta.get("phase", ""))),
            {"frames": 0, "payload_bytes": 0, "wire_bytes": 0},
        )
        counter["frames"] += 1
        counter["payload_bytes"] += payload_len
        counter["wire_bytes"] += wire_bytes

    def _send_all(self, views: List[memoryview]) -> None:
        """Scatter-gather write with an advance loop for partial sends."""
        pending = [view for view in views if view.nbytes]
        while pending:
            try:
                sent = self._sock.sendmsg(pending)
            except BrokenPipeError as error:
                raise WireFormatError(
                    f"link {self.name}->{self.peer} closed mid-send"
                ) from error
            while sent:
                head = pending[0]
                if sent >= head.nbytes:
                    sent -= head.nbytes
                    pending.pop(0)
                else:
                    pending[0] = head[sent:]
                    sent = 0

    def send_error(self, error: BaseException, phase: str = "") -> None:
        """Report *error* to the peer as an ERROR frame (best effort)."""
        meta = encode_error_meta(error)
        if phase:
            meta["phase"] = phase
        try:
            self.send(KIND_ERROR, meta)
        except (OSError, WireFormatError):
            pass

    # -- receiving ----------------------------------------------------- #
    def recv(self) -> Tuple[int, Dict, List[np.ndarray]]:
        """Receive one frame; returns ``(kind, meta, arrays)``.

        Arrays are writable views over a fresh buffer owned by the frame.
        Raises :class:`~repro.exceptions.WireFormatError` on EOF or any
        malformed frame.
        """
        header = self._recv_exact(HEADER.size, context="frame header")
        kind, meta_len, payload_len = _unpack_header(bytes(header))
        meta = _load_meta(bytes(self._recv_exact(meta_len, context="frame meta")))
        seq = meta.get("seq")
        if seq != self._recv_seq:
            raise WireFormatError(
                f"out-of-order frame on link {self.peer}->{self.name}: "
                f"expected seq {self._recv_seq}, got {seq!r}"
            )
        self._recv_seq += 1
        payload = self._recv_exact(payload_len, context="frame payload")
        arrays = _decode_arrays(meta.get("arrays", []), payload)
        return kind, meta, arrays

    def _recv_exact(self, nbytes: int, context: str) -> memoryview:
        """Exactly *nbytes* from the socket into a fresh writable buffer."""
        buffer = bytearray(nbytes)
        view = memoryview(buffer)
        received = 0
        while received < nbytes:
            try:
                chunk = self._sock.recv_into(view[received:])
            except ConnectionResetError as error:
                raise WireFormatError(
                    f"link {self.peer}->{self.name} reset while reading {context}"
                ) from error
            if chunk == 0:
                raise WireFormatError(
                    f"EOF on link {self.peer}->{self.name} after {received} of "
                    f"{nbytes} bytes of {context} — the peer process died"
                )
            received += chunk
        return memoryview(buffer)

    def recv_expect(self, kind: int) -> Tuple[Dict, List[np.ndarray]]:
        """Receive one frame, requiring *kind*; ERROR frames re-raise."""
        got, meta, arrays = self.recv()
        if got == KIND_ERROR and kind != KIND_ERROR:
            raise_remote_error(meta, source=self.peer or "peer")
        if got != kind:
            raise WireFormatError(
                f"expected {KIND_NAMES[kind]} frame from {self.peer or 'peer'}, "
                f"got {KIND_NAMES[got]}"
            )
        return meta, arrays

    # -- handshake ----------------------------------------------------- #
    def hello(self) -> None:
        """Exchange HELLO frames; verifies both ends speak this version."""
        self.send(KIND_HELLO, {"role": self.name})
        meta, _ = self.recv_expect(KIND_HELLO)
        remote = meta.get("role", "")
        if self.peer and remote != self.peer:
            raise WireFormatError(
                f"link handshake mismatch: expected peer {self.peer!r}, "
                f"got {remote!r}"
            )

    # -- accounting ---------------------------------------------------- #
    def sent_summary(self) -> Dict[str, Dict[str, int]]:
        """Bytes sent by this endpoint, keyed ``"KIND/phase"``."""
        return {
            f"{kind}/{phase}": dict(counter)
            for (kind, phase), counter in sorted(self._sent.items())
        }

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def summary_delta(
    before: Dict[str, Dict[str, int]], after: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Per-key counter differences between two :meth:`WireEndpoint.sent_summary` snapshots.

    Endpoint counters accumulate for the life of a link, so a persistent
    runtime that serves several releases over the same sockets takes a
    snapshot before each run and reports the delta — the traffic of *this*
    release only.  Keys whose counters did not move are dropped.
    """
    delta: Dict[str, Dict[str, int]] = {}
    for key, counter in after.items():
        base = before.get(key, {})
        entry = {name: counter[name] - base.get(name, 0) for name in counter}
        if any(entry.values()):
            delta[key] = entry
    return delta


def recv_ring(endpoint: WireEndpoint) -> Optional[Ring]:
    """The release's ring, from the driver's ``ring`` frame.

    ``None`` when the driver shuts the party down instead, as it does when
    no ring can hold the release; any other frame is a desync.
    """
    meta, _ = endpoint.recv_expect(KIND_CONTROL)
    verb = meta.get("verb")
    if verb == CONTROL_SHUTDOWN:
        return None
    if verb != CONTROL_RING:
        raise WireFormatError(
            f"expected the release's ring frame from {endpoint.peer or 'peer'}, "
            f"got control verb {verb!r}"
        )
    return Ring(int(meta["bits"]))
