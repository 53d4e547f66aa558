"""Unit tests for repro.crypto.mac — SPDZ-style authenticated openings.

The cheater-detection *protocol* tests (full runs under an active adversary)
live in ``test_verify_adversary.py``; this module pins the MAC layer itself:
key generation, tag algebra, the batched round check, shape restoration, and
the ``resolve_authenticator`` config plumbing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cargo import Cargo
from repro.core.config import CargoConfig
from repro.crypto.mac import (
    MacKey,
    OpeningAuthenticator,
    resolve_authenticator,
)
from repro.crypto.ring import DEFAULT_RING
from repro.crypto.secure_ops import PlainOpener
from repro.exceptions import CheaterDetectedError, ConfigurationError
from repro.graph.datasets import load_dataset


class TestMacKey:
    def test_alpha_is_odd_unit(self):
        for seed in range(20):
            key = MacKey.generate(seed)
            assert key.alpha() % 2 == 1

    def test_generation_is_deterministic_per_seed(self):
        assert MacKey.generate(5) == MacKey.generate(5)
        assert MacKey.generate(5) != MacKey.generate(6)

    def test_shares_reconstruct_alpha(self):
        key = MacKey.generate(9)
        assert DEFAULT_RING.add(key.alpha1, key.alpha2) == key.alpha()


class TestOpeningAuthenticator:
    def test_scalar_exchange_matches_plain_reconstruction(self):
        auth = OpeningAuthenticator(seed=3)
        ring = DEFAULT_RING
        pairs = [(3, 4), (ring.sub(0, 5), 5)]
        opened = auth.exchange("round", pairs)
        assert opened == [ring.add(3, 4), 0]
        assert all(isinstance(value, int) for value in opened)
        assert auth.rounds_checked == 1
        assert auth.values_checked == 2

    def test_array_exchange_restores_shapes(self):
        auth = OpeningAuthenticator(seed=3)
        ring = DEFAULT_RING
        rng = np.random.default_rng(0)
        a1 = ring.random_array((2, 3), rng)
        a2 = ring.random_array((2, 3), rng)
        b1 = ring.random_array(4, rng)
        b2 = ring.random_array(4, rng)
        opened_a, opened_b = auth.exchange("round", [(a1, a2), (b1, b2)])
        assert opened_a.shape == (2, 3)
        assert opened_b.shape == (4,)
        np.testing.assert_array_equal(opened_a, ring.add(a1, a2))
        np.testing.assert_array_equal(opened_b, ring.add(b1, b2))
        assert auth.values_checked == 10

    def test_same_seed_same_tags(self):
        rounds = []

        def capture(opening):
            rounds.append(opening.messages[0].tags.copy())

        for _ in range(2):
            auth = OpeningAuthenticator(seed=11, tamper=capture)
            auth.exchange("round", [(1, 2), (3, 4)])
        np.testing.assert_array_equal(rounds[0], rounds[1])

    def test_value_tamper_detected_with_round_metadata(self):
        def lie(opening):
            opening.messages[1].values[0] = DEFAULT_RING.add(
                opening.messages[1].values[0], 17
            )

        auth = OpeningAuthenticator(seed=0, tamper=lie)
        with pytest.raises(CheaterDetectedError) as info:
            auth.exchange("beaver_opening", [(1, 2)])
        assert info.value.label == "beaver_opening"
        assert info.value.round_index == 0
        assert auth.rounds_checked == 0

    def test_tag_tamper_detected(self):
        def lie(opening):
            opening.messages[0].tags[0] = DEFAULT_RING.add(
                opening.messages[0].tags[0], 1
            )

        auth = OpeningAuthenticator(seed=0, tamper=lie)
        with pytest.raises(CheaterDetectedError):
            auth.exchange("round", [(1, 2)])

    def test_consistent_lie_on_both_fields_still_detected(self):
        """Shifting value and tag together only works with knowledge of alpha."""

        def lie(opening):
            message = opening.messages[0]
            message.values[0] = DEFAULT_RING.add(message.values[0], 1)
            message.tags[0] = DEFAULT_RING.add(message.tags[0], 1)

        auth = OpeningAuthenticator(seed=0, tamper=lie)
        # Detection fails only if alpha == 1; the dealt key is a random odd
        # 64-bit value, so this seed (like any realistic one) catches it.
        with pytest.raises(CheaterDetectedError):
            auth.exchange("round", [(1, 2)])

    def test_truncation_detected(self):
        def drop(opening):
            message = opening.messages[0]
            message.values = message.values[:-1]
            message.tags = message.tags[:-1]

        auth = OpeningAuthenticator(seed=0, tamper=drop)
        with pytest.raises(CheaterDetectedError, match="truncation"):
            auth.exchange("round", [(1, 2), (3, 4)])

    def test_dtype_swap_detected(self):
        def retype(opening):
            message = opening.messages[0]
            message.values = message.values.astype(np.int64)

        auth = OpeningAuthenticator(seed=0, tamper=retype)
        with pytest.raises(CheaterDetectedError, match="dtype"):
            auth.exchange("round", [(1, 2)])

    def test_mismatched_share_shapes_rejected(self):
        auth = OpeningAuthenticator(seed=0)
        with pytest.raises(CheaterDetectedError, match="shapes disagree"):
            auth.exchange("round", [(np.zeros(2, dtype=np.uint64), np.zeros(3, dtype=np.uint64))])

    def test_tags_are_the_dealt_split_of_alpha_times_value(self):
        from repro.crypto.mac import _TAG_DOMAIN
        from repro.utils.rng import derive_rng, stable_seed_from_name

        ring = DEFAULT_RING
        rng = np.random.default_rng(3)
        v1 = rng.integers(0, 2**63, (4, 5), dtype=np.uint64)
        v2 = rng.integers(0, 2**63, (4, 5), dtype=np.uint64)
        seen = []
        auth = OpeningAuthenticator(seed=13, tamper=seen.append)
        auth.exchange("round", [(v1, v2), (7, 8)])
        tag_rng = derive_rng(stable_seed_from_name(_TAG_DOMAIN, 13))
        honest = np.concatenate([ring.add(v1, v2).ravel(), np.array([15], dtype=np.uint64)])
        tags1 = ring.random_array(21, tag_rng)
        tags2 = ring.sub(ring.mul(auth.key.alpha(ring), honest), tags1)
        (opening,) = seen
        np.testing.assert_array_equal(opening.messages[0].tags, tags1)
        np.testing.assert_array_equal(opening.messages[1].tags, tags2)

    def test_tamper_never_touches_the_callers_shares(self):
        def lie(opening):
            opening.messages[0].values[:] = 0

        share1 = np.arange(6, dtype=np.uint64).reshape(2, 3)
        share2 = np.ones((2, 3), dtype=np.uint64)
        auth = OpeningAuthenticator(seed=0, tamper=lie)
        with pytest.raises(CheaterDetectedError):
            auth.exchange("round", [(share1, share2)])
        np.testing.assert_array_equal(share1, np.arange(6).reshape(2, 3))

    def test_check_reports_tamper_past_the_first_slice(self):
        from repro.crypto.mac import _CHECK_SLICE

        target = _CHECK_SLICE + 5

        def lie(opening):
            opening.messages[1].values[target] += np.uint64(1)

        size = 2 * _CHECK_SLICE + 3
        share = np.zeros(size, dtype=np.uint64)
        auth = OpeningAuthenticator(seed=0, tamper=lie)
        with pytest.raises(CheaterDetectedError, match=f"1 of {size} .*position {target}"):
            auth.exchange("round", [(share, share)])

    def test_round_peak_memory_is_a_small_multiple_of_its_values(self):
        """One round holds each server's values and tags plus the opened
        vector; the tag check runs in bounded slices."""
        import tracemalloc

        rng = np.random.default_rng(0)
        # Transposed operands, like a Beaver opening of a matrix product.
        pairs = [
            (
                rng.integers(0, 2**63, (384, 384), dtype=np.uint64).T,
                rng.integers(0, 2**63, (384, 384), dtype=np.uint64).T,
            )
            for _ in range(2)
        ]
        value_bytes = sum(s1.nbytes + s2.nbytes for s1, s2 in pairs)
        auth = OpeningAuthenticator(seed=1)
        tracemalloc.start()
        try:
            auth.exchange("round", pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * value_bytes, peak / value_bytes

    def test_empty_round_is_a_noop(self):
        auth = OpeningAuthenticator(seed=0)
        assert auth.exchange("round", []) == []
        assert auth.rounds_checked == 0


class TestResolveAuthenticator:
    def test_default_config_has_no_authenticator(self):
        assert resolve_authenticator(CargoConfig(epsilon=1.0)) is None

    def test_authenticate_flag_builds_from_run_seed(self):
        auth = resolve_authenticator(CargoConfig(epsilon=1.0, authenticate=True, seed=7))
        assert isinstance(auth, OpeningAuthenticator)
        assert auth.key == MacKey.generate(7)

    def test_injected_authenticator_wins(self):
        injected = OpeningAuthenticator(seed=1)
        config = CargoConfig(epsilon=1.0, authenticator=injected)
        assert resolve_authenticator(config) is injected
        # An injected authenticator implies authentication at the config level.
        assert config.authenticate

    def test_invalid_injected_object_rejected(self):
        class Bogus:
            exchange = "not callable"

        config = CargoConfig(epsilon=1.0)
        object.__setattr__(config, "authenticator", Bogus())
        with pytest.raises(ConfigurationError):
            resolve_authenticator(config)

    def test_keyless_opener_is_no_authenticator(self):
        config = CargoConfig(epsilon=1.0, authenticator=PlainOpener())
        assert not config.authenticate
        assert resolve_authenticator(config) is None


class TestKeylessOpenerRelease:
    def test_release_equals_no_authenticator(self):
        """A key-less opener neither pins 64 bits nor changes the release."""
        graph = load_dataset("facebook", num_nodes=128)
        bare, keyless = (
            Cargo(
                CargoConfig(
                    epsilon=2.0, seed=11, counting_backend="matrix", authenticator=opener
                )
            ).run(graph)
            for opener in (None, PlainOpener())
        )
        assert keyless.ring_bits == bare.ring_bits < 64
        assert keyless.noisy_triangle_count == bare.noisy_triangle_count
