"""Unit tests for repro.crypto.mac — SPDZ-style authenticated openings.

The cheater-detection *protocol* tests (full runs under an active adversary)
live in ``test_verify_adversary.py``; this module pins the MAC layer itself:
key generation, tag algebra, the batched round check, shape restoration, and
the ``resolve_authenticator`` config plumbing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CargoConfig
from repro.crypto.mac import (
    AuthenticatedShare,
    MacKey,
    OpeningAuthenticator,
    resolve_authenticator,
)
from repro.crypto.ring import DEFAULT_RING
from repro.exceptions import CheaterDetectedError, ConfigurationError


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


class TestAuthenticatedShare:
    def _share(self, key: MacKey, value: int, seed: int = 0) -> AuthenticatedShare:
        ring = DEFAULT_RING
        rng = np.random.default_rng(seed)
        value1 = ring.random_element(rng)
        tag = ring.mul(key.alpha(), value)
        tag1 = ring.random_element(rng)
        return AuthenticatedShare(
            value1=value1,
            value2=ring.sub(value, value1),
            tag1=tag1,
            tag2=ring.sub(tag, tag1),
        )

    def test_honest_share_opens(self):
        key = MacKey.generate(1)
        share = self._share(key, 42)
        assert share.check(key)
        assert share.open(key) == 42

    def test_tampered_value_fails_check(self):
        key = MacKey.generate(1)
        share = self._share(key, 42)
        bad = AuthenticatedShare(
            value1=DEFAULT_RING.add(share.value1, 1),
            value2=share.value2,
            tag1=share.tag1,
            tag2=share.tag2,
        )
        assert not bad.check(key)
        with pytest.raises(CheaterDetectedError):
            bad.open(key)

    def test_tampered_tag_fails_check(self):
        key = MacKey.generate(1)
        share = self._share(key, 42)
        bad = AuthenticatedShare(
            value1=share.value1,
            value2=share.value2,
            tag1=DEFAULT_RING.add(share.tag1, 3),
            tag2=share.tag2,
        )
        assert not bad.check(key)


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

    def test_disabled_arm_opens_plain_and_never_checks(self):
        fired = []
        auth = OpeningAuthenticator.disabled()
        auth._tamper = lambda opening: fired.append(opening)
        assert not auth.enabled
        assert auth.exchange("round", [(1, 2)]) == [3]
        assert fired == []
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
