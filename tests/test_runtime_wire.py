"""Wire-format round-trip and corruption properties of the distributed runtime.

Satellite of the process-separated runtime: every message kind must
serialize → deserialize to an identical (kind, meta, arrays) triple, and
every malformation — truncation at any boundary, corrupted header fields,
trailing garbage, descriptor/payload mismatches — must raise the typed
:class:`~repro.exceptions.WireFormatError` before any payload byte is
interpreted as a share.
"""

from __future__ import annotations

import socket
import struct

import numpy as np
import pytest

from repro.crypto.ring import DEFAULT_RING, Ring
from repro.exceptions import (
    CheaterDetectedError,
    RuntimeProcessError,
    WireFormatError,
)
from repro.runtime.wire import (
    CONTROL_RING,
    CONTROL_RUN,
    CONTROL_SHUTDOWN,
    HEADER,
    KIND_CHECK,
    KIND_CONTROL,
    KIND_ERROR,
    KIND_HELLO,
    KIND_NAMES,
    KIND_OPEN_MAC,
    KIND_OPEN_VALUES,
    KIND_PROVISION,
    KIND_RESULT,
    KIND_SHARES,
    MAGIC,
    WIRE_VERSION,
    WireEndpoint,
    decode_frame,
    encode_error_meta,
    encode_frame_bytes,
    raise_remote_error,
    recv_ring,
    summary_delta,
)

#: One representative (meta, arrays) per message kind, mirroring real traffic.
KIND_EXAMPLES = {
    KIND_HELLO: ({"role": "server1"}, []),
    KIND_CONTROL: ({"verb": "run", "spec": {"backend": "matrix", "seed": 7}}, []),
    KIND_PROVISION: (
        {"label": "matrix_triple"},
        [np.arange(9, dtype=np.uint64).reshape(3, 3)] * 3,
    ),
    KIND_SHARES: (
        {"phase": "adjacency_share"},
        [np.arange(16, dtype=np.uint64).reshape(4, 4)],
    ),
    KIND_OPEN_VALUES: (
        {"label": "beaver_opening", "round": 0, "phase": "opening"},
        [np.array([1, 2, 3], dtype=np.uint64)],
    ),
    KIND_OPEN_MAC: (
        {"label": "beaver_opening", "round": 0},
        [np.array([2**63, 5], dtype=np.uint64)],
    ),
    KIND_RESULT: ({"stage": "count", "share": 12, "phase": "count"}, []),
    KIND_ERROR: ({"error_type": "WireFormatError", "message": "boom"}, []),
    KIND_CHECK: ({"label": "masked_input"}, [np.arange(32, dtype=np.uint8)]),
}


def roundtrip(kind, meta, arrays):
    kind2, meta2, arrays2 = decode_frame(encode_frame_bytes(kind, meta, arrays))
    return kind2, meta2, arrays2


class TestRoundTrip:
    @pytest.mark.parametrize("kind", sorted(KIND_NAMES), ids=KIND_NAMES.get)
    def test_every_kind_round_trips_identically(self, kind):
        meta, arrays = KIND_EXAMPLES[kind]
        kind2, meta2, arrays2 = roundtrip(kind, meta, arrays)
        assert kind2 == kind
        for key, value in meta.items():
            assert meta2[key] == value
        assert len(arrays2) == len(arrays)
        for original, decoded in zip(arrays, arrays2):
            assert decoded.dtype == original.dtype
            assert decoded.shape == original.shape
            assert np.array_equal(decoded, original)

    def test_random_payload_property(self):
        rng = np.random.default_rng(0)
        dtypes = [np.uint64, np.int64, np.float64, np.uint8]
        for trial in range(50):
            arrays = []
            for _ in range(int(rng.integers(0, 4))):
                dtype = dtypes[int(rng.integers(len(dtypes)))]
                shape = tuple(
                    int(dim) for dim in rng.integers(0, 5, size=int(rng.integers(0, 3)))
                )
                arrays.append((rng.integers(0, 255, size=shape)).astype(dtype))
            meta = {"phase": f"t{trial}", "round": trial}
            _, meta2, arrays2 = roundtrip(KIND_SHARES, meta, arrays)
            assert meta2["phase"] == meta["phase"] and meta2["round"] == trial
            for original, decoded in zip(arrays, arrays2):
                assert decoded.dtype == original.dtype
                assert decoded.shape == original.shape
                assert np.array_equal(decoded, original)

    def test_scalar_and_empty_arrays(self):
        arrays = [np.uint64(7).reshape(()), np.zeros((0, 4), dtype=np.uint64)]
        _, _, decoded = roundtrip(KIND_SHARES, {"phase": "edge"}, arrays)
        assert decoded[0].shape == () and int(decoded[0]) == 7
        assert decoded[1].shape == (0, 4)

    def test_non_contiguous_arrays_are_packed_c_order(self):
        base = np.arange(36, dtype=np.uint64).reshape(6, 6)
        strided = base[::2, ::3]
        _, _, decoded = roundtrip(KIND_SHARES, {}, [strided, base.T])
        assert np.array_equal(decoded[0], strided)
        assert np.array_equal(decoded[1], base.T)

    def test_ring_mask_values_survive(self):
        values = np.array([0, 1, DEFAULT_RING.mask, DEFAULT_RING.mask - 1], dtype=np.uint64)
        _, _, decoded = roundtrip(KIND_OPEN_VALUES, {"round": 3}, [values])
        assert np.array_equal(decoded[0], values)


class TestCorruption:
    def frame(self):
        return encode_frame_bytes(
            KIND_SHARES, {"phase": "adjacency_share"}, [np.arange(8, dtype=np.uint64)]
        )

    def test_truncation_at_every_boundary(self):
        frame = self.frame()
        # Every strictly shorter prefix must be rejected, never mis-decoded.
        for cut in range(len(frame)):
            with pytest.raises(WireFormatError):
                decode_frame(frame[:cut])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(WireFormatError, match="trailing"):
            decode_frame(self.frame() + b"\x00")

    def test_bad_magic_rejected(self):
        frame = bytearray(self.frame())
        frame[0] ^= 0xFF
        with pytest.raises(WireFormatError, match="magic"):
            decode_frame(bytes(frame))

    def test_unsupported_version_rejected(self):
        frame = bytearray(self.frame())
        struct.pack_into("<H", frame, 4, WIRE_VERSION + 1)
        with pytest.raises(WireFormatError, match="version"):
            decode_frame(bytes(frame))

    def test_unknown_kind_rejected_on_encode_and_decode(self):
        with pytest.raises(WireFormatError, match="kind"):
            encode_frame_bytes(999, {})
        frame = bytearray(self.frame())
        struct.pack_into("<H", frame, 6, 999)
        with pytest.raises(WireFormatError, match="kind"):
            decode_frame(bytes(frame))

    def test_oversized_length_fields_rejected_before_allocation(self):
        frame = bytearray(self.frame())
        struct.pack_into("<I", frame, 8, (1 << 24) + 1)
        with pytest.raises(WireFormatError, match="meta length"):
            decode_frame(bytes(frame))
        frame = bytearray(self.frame())
        struct.pack_into("<Q", frame, 12, (1 << 34) + 1)
        with pytest.raises(WireFormatError, match="payload length"):
            decode_frame(bytes(frame))

    def test_corrupted_meta_block_rejected(self):
        frame = bytearray(self.frame())
        for offset in range(HEADER.size, HEADER.size + 4):
            frame[offset] ^= 0xFF
        with pytest.raises(WireFormatError, match="meta"):
            decode_frame(bytes(frame))

    def test_non_dict_meta_rejected(self):
        import pickle

        blob = pickle.dumps(["not", "a", "dict"])
        header = HEADER.pack(MAGIC, WIRE_VERSION, KIND_SHARES, len(blob), 0)
        with pytest.raises(WireFormatError, match="dict"):
            decode_frame(header + blob)

    def test_descriptor_payload_mismatch_rejected(self):
        short = encode_frame_bytes(KIND_SHARES, {}, [np.arange(4, dtype=np.uint64)])
        long = encode_frame_bytes(KIND_SHARES, {}, [np.arange(8, dtype=np.uint64)])
        # Splice the 8-element descriptor onto the 4-element payload and
        # vice versa: both directions must fail the coverage check.
        _, meta_long, _ = decode_frame(long)
        import pickle

        blob = pickle.dumps(
            {"arrays": meta_long["arrays"]}, protocol=pickle.HIGHEST_PROTOCOL
        )
        payload = short[-32:]
        header = HEADER.pack(MAGIC, WIRE_VERSION, KIND_SHARES, len(blob), len(payload))
        with pytest.raises(WireFormatError, match="too short"):
            decode_frame(header + blob + payload)
        blob = pickle.dumps({"arrays": []}, protocol=pickle.HIGHEST_PROTOCOL)
        header = HEADER.pack(MAGIC, WIRE_VERSION, KIND_SHARES, len(blob), len(payload))
        with pytest.raises(WireFormatError, match="mismatch"):
            decode_frame(header + blob + payload)

    def test_unknown_dtype_rejected(self):
        import pickle

        blob = pickle.dumps(
            {"arrays": [("<nope", (2,))]}, protocol=pickle.HIGHEST_PROTOCOL
        )
        header = HEADER.pack(MAGIC, WIRE_VERSION, KIND_SHARES, len(blob), 0)
        with pytest.raises(WireFormatError, match="dtype"):
            decode_frame(header + blob)


class TestEndpoint:
    def pair(self):
        left_sock, right_sock = socket.socketpair()
        left = WireEndpoint(left_sock, name="driver", peer="server1")
        right = WireEndpoint(right_sock, name="server1", peer="driver")
        return left, right

    def test_send_recv_matches_pure_codec(self):
        left, right = self.pair()
        try:
            payload = np.arange(12, dtype=np.uint64).reshape(3, 4)
            left.send(KIND_SHARES, {"phase": "adjacency_share"}, [payload])
            kind, meta, arrays = right.recv()
            assert kind == KIND_SHARES
            assert meta["phase"] == "adjacency_share"
            assert np.array_equal(arrays[0], payload)
            assert arrays[0].flags.writeable
        finally:
            left.close()
            right.close()

    def test_sequence_numbers_detect_reordering(self):
        left_sock, right_sock = socket.socketpair()
        right = WireEndpoint(right_sock, name="server1", peer="driver")
        try:
            # Hand-craft a frame whose seq skips ahead.
            frame = encode_frame_bytes(KIND_CONTROL, {"verb": "run", "seq": 5})
            left_sock.sendall(frame)
            with pytest.raises(WireFormatError, match="out-of-order"):
                right.recv()
        finally:
            left_sock.close()
            right.close()

    def test_eof_raises_typed_error(self):
        left, right = self.pair()
        left.close()
        with pytest.raises(WireFormatError, match="EOF"):
            right.recv()
        right.close()

    def test_recv_expect_reraises_remote_errors(self):
        left, right = self.pair()
        try:
            left.send_error(CheaterDetectedError("a server cheated", label="x", round_index=3))
            with pytest.raises(CheaterDetectedError) as caught:
                right.recv_expect(KIND_RESULT)
            assert caught.value.label == "x" and caught.value.round_index == 3
            left.send_error(ValueError("boom"))
            with pytest.raises(RuntimeProcessError, match="ValueError: boom"):
                right.recv_expect(KIND_RESULT)
        finally:
            left.close()
            right.close()

    def test_hello_role_mismatch(self):
        left_sock, right_sock = socket.socketpair()
        left = WireEndpoint(left_sock, name="driver", peer="server1")
        imposter = WireEndpoint(right_sock, name="server2", peer="driver")
        try:
            imposter.send(KIND_HELLO, {"role": "server2"})
            with pytest.raises(WireFormatError, match="handshake"):
                left.hello()
        finally:
            left.close()
            imposter.close()

    def test_sent_summary_counts_frames_and_bytes(self):
        left, right = self.pair()
        try:
            before = left.sent_summary()
            payload = np.arange(4, dtype=np.uint64)
            left.send(KIND_SHARES, {"phase": "noise_share"}, [payload])
            left.send(KIND_SHARES, {"phase": "noise_share"}, [payload])
            right.recv()
            right.recv()
            delta = summary_delta(before, left.sent_summary())
            entry = delta["SHARES/noise_share"]
            assert entry["frames"] == 2
            assert entry["payload_bytes"] == 2 * payload.nbytes
            assert entry["wire_bytes"] > entry["payload_bytes"]
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize("bits", [13, 64])
    def test_recv_ring_reads_the_release_ring(self, bits):
        left, right = self.pair()
        try:
            left.send(KIND_CONTROL, {"verb": CONTROL_RING, "bits": bits})
            assert recv_ring(right) == Ring(bits)
        finally:
            left.close()
            right.close()

    def test_recv_ring_returns_none_on_shutdown(self):
        left, right = self.pair()
        try:
            left.send(KIND_CONTROL, {"verb": CONTROL_SHUTDOWN})
            assert recv_ring(right) is None
        finally:
            left.close()
            right.close()

    def test_recv_ring_rejects_another_control_verb(self):
        left, right = self.pair()
        try:
            left.send(KIND_CONTROL, {"verb": CONTROL_RUN, "bits": 20})
            with pytest.raises(WireFormatError, match="expected the release's ring frame"):
                recv_ring(right)
        finally:
            left.close()
            right.close()

    def test_summary_delta_drops_unmoved_keys(self):
        before = {"SHARES/x": {"frames": 2, "payload_bytes": 8, "wire_bytes": 40}}
        after = {
            "SHARES/x": {"frames": 2, "payload_bytes": 8, "wire_bytes": 40},
            "RESULT/": {"frames": 1, "payload_bytes": 0, "wire_bytes": 30},
        }
        delta = summary_delta(before, after)
        assert "SHARES/x" not in delta
        assert delta["RESULT/"]["frames"] == 1


def test_error_meta_round_trip_preserves_cheater_fields():
    error = CheaterDetectedError("cheated", label="release_opening", round_index=7)
    meta = encode_error_meta(error)
    with pytest.raises(CheaterDetectedError) as caught:
        raise_remote_error(meta, source="server2")
    assert caught.value.label == "release_opening"
    assert caught.value.round_index == 7
    assert str(caught.value) == "cheated"
