"""SPDZ-style information-theoretic MACs for authenticated openings.

The semi-honest protocol reconstructs every opened value as ``d = d1 + d2``
and trusts both servers to send their true shares.  This module upgrades the
opening step to *covert/malicious detection*: a per-run global MAC key
``alpha`` is additively shared between the servers, every opened value ``d``
carries an authentication tag ``t = alpha * d`` (also additively shared), and
after each opening round the servers run a batched MAC check

``sigma_i = t_i - alpha_i * d`` with the acceptance condition
``sigma_1 + sigma_2 == 0``  (elementwise over the whole round).

Because ``alpha`` is forced odd it is a unit of ``Z_{2^64}``, so a one-sided
tamper ``d -> d + delta`` with ``delta != 0`` shifts the check by
``alpha * delta != 0`` and is detected with probability 1.  An adversary that
also shifts its tag share must pick ``delta_t == alpha * delta_v`` without
knowing ``alpha``, and in ``Z_{2^l}`` that is **not** hard for every shift:

* **Known weakness.**  ``alpha * 2^(l-1) == 2^(l-1) (mod 2^l)`` for every odd
  ``alpha``, so a server that adds ``2^(l-1)`` to both its value share and
  its tag share passes every check without knowing ``alpha``.  More
  generally, a shift ``delta_v = 2^(l-j) * u`` (``u`` odd) needs
  ``alpha mod 2^j``, whose low bit is known, so it passes with probability
  ``2^-(j-1)``.  A release shifted by half the ring is accepted today (the
  strict ``xfail`` in ``tests/test_verify_adversary.py`` reproduces it);
  SPDZ2k-style tags (Cramer et al., CRYPTO 2018), which check in a wider
  ring than the values live in, close it.

Detection is *anonymous* in the SPDZ sense: the check proves that cheating
happened, not which server cheated.

Two deliberate simplifications, mirroring the repo's trusted-dealer offline
phase (the dealer already learns ``z = x * y`` of every Beaver triple):

* tag shares are issued by the same trusted dealer role — the authenticator
  computes the honest tag ``t = alpha * d`` and splits it with a dedicated,
  domain-separated tag RNG, rather than running a secure ``alpha * d``
  multiplication online;
* the MAC key and tag randomness derive from ``stable_seed_from_name`` over
  the run seed, so they never consume the protocol's own substreams — honest
  authenticated runs release counts **bit-identical** to unauthenticated
  runs.

Examples
--------
An honest exchange opens the same values plain reconstruction would:

>>> from repro.crypto.mac import OpeningAuthenticator
>>> auth = OpeningAuthenticator(seed=7)
>>> auth.exchange("demo", [(3, 4)])
[7]
>>> auth.rounds_checked, auth.values_checked
(1, 1)

A server that lies in an opening is caught by the very next MAC check:

>>> def lie(round):
...     round.messages[0].values[0] += 1
>>> cheat = OpeningAuthenticator(seed=7, tamper=lie)
>>> try:
...     cheat.exchange("demo", [(3, 4)])
... except Exception as error:
...     print(type(error).__name__, error.label, error.round_index)
CheaterDetectedError demo 0
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.crypto.ring import DEFAULT_RING, Ring, ring_of
from repro.exceptions import CheaterDetectedError, ConfigurationError
from repro.utils.rng import derive_rng, stable_seed_from_name

IntOrArray = Union[int, np.ndarray]

__all__ = [
    "AuthenticatedShare",
    "CheaterDetectedError",
    "MacKey",
    "OpeningAuthenticator",
    "OpeningMessage",
    "OpeningRound",
    "resolve_authenticator",
]

#: Domain-separation labels for the key and tag substreams.  Deriving them
#: via :func:`~repro.utils.rng.stable_seed_from_name` keeps the protocol's
#: own ``spawn_rngs`` substreams untouched, which is what makes honest
#: authenticated releases bit-identical to unauthenticated ones.
_KEY_DOMAIN = "mac/key"
_TAG_DOMAIN = "mac/tags"

#: Elements per slice of the batched MAC check (1 MiB of ``uint64``).
_CHECK_SLICE = 1 << 17


@dataclass(frozen=True)
class MacKey:
    """Additive shares of the global MAC key ``alpha = alpha1 + alpha2``.

    ``alpha`` is forced odd, making it a unit of ``Z_{2^l}``: any nonzero
    value tamper ``delta`` yields a nonzero check offset ``alpha * delta``,
    so single-sided tampering is detected with probability 1 (not just with
    high probability, as over a field with a uniform key).
    """

    alpha1: int
    alpha2: int

    def alpha(self, ring: Ring = DEFAULT_RING) -> int:
        """The reconstructed key (test/dealer-side only; servers never see it)."""
        return ring.add(self.alpha1, self.alpha2)

    @classmethod
    def generate(cls, seed: int, ring: Ring = DEFAULT_RING) -> "MacKey":
        """Deal a fresh key from a domain-separated stream of *seed*."""
        rng = derive_rng(stable_seed_from_name(_KEY_DOMAIN, seed))
        alpha = ring.random_element(rng) | 1  # force odd: a unit of Z_{2^l}
        alpha1 = ring.random_element(rng)
        return cls(alpha1=alpha1, alpha2=ring.sub(alpha, alpha1))


@dataclass(frozen=True)
class AuthenticatedShare:
    """A secret with both value shares and MAC-tag shares attached.

    The invariant is ``tag1 + tag2 == alpha * (value1 + value2)``; breaking
    it on either side is exactly what :meth:`check` (and the batched round
    check in :class:`OpeningAuthenticator`) detects.
    """

    value1: IntOrArray
    value2: IntOrArray
    tag1: IntOrArray
    tag2: IntOrArray

    def open(self, key: MacKey, ring: Ring = DEFAULT_RING) -> IntOrArray:
        """Reconstruct the value, raising on a failed MAC check."""
        opened = ring.add(self.value1, self.value2)
        if not self.check(key, ring=ring):
            raise CheaterDetectedError(
                "authenticated share failed its MAC check", label="share"
            )
        return opened

    def check(self, key: MacKey, ring: Ring = DEFAULT_RING) -> bool:
        """Whether the tag shares authenticate the value shares."""
        opened = ring.add(self.value1, self.value2)
        sigma1 = ring.sub(self.tag1, ring.mul(key.alpha1, opened))
        sigma2 = ring.sub(self.tag2, ring.mul(key.alpha2, opened))
        residual = ring.add(sigma1, sigma2)
        if isinstance(residual, np.ndarray):
            return not np.any(residual)
        return residual == 0


@dataclass
class OpeningMessage:
    """What one server contributes to an opening round: value + tag shares.

    Deliberately mutable — the active-adversary harness tampers with these
    fields in-place through the authenticator's ``tamper`` hook.
    """

    server_index: int
    values: np.ndarray
    tags: np.ndarray


@dataclass
class OpeningRound:
    """One batched opening round as both servers' messages, pre-check."""

    index: int
    label: str
    messages: Tuple[OpeningMessage, OpeningMessage]


#: A tamper hook mutates the round in place (or leaves it alone).
TamperHook = Callable[[OpeningRound], None]

#: How one opening round flattens: ``(scalar?, shape, size)`` per operand.
RoundLayout = List[Tuple[bool, Tuple[int, ...], int]]


def pack_round(
    label: str, operands: Sequence[Tuple[IntOrArray, ...]], ring: Ring = DEFAULT_RING
) -> Tuple[RoundLayout, Tuple[np.ndarray, ...]]:
    """Flatten one opening round into one fresh value vector per held role.

    Each operand holds one share per held role (at least one operand).  The
    vectors are fresh, so a tamper hook may mutate them in place without
    touching the callers' shares; :func:`unpack_round` restores the
    per-operand shapes from the returned layout.
    """
    layout: RoundLayout = []
    arrays: List[List[np.ndarray]] = []
    for operand in operands:
        shares = [np.atleast_1d(np.asarray(share, dtype=ring.dtype)) for share in operand]
        if any(share.shape != shares[0].shape for share in shares):
            raise CheaterDetectedError(
                f"opening {label!r}: server share shapes disagree "
                f"({' vs '.join(str(share.shape) for share in shares)})",
                label=label,
            )
        scalar = not any(isinstance(share, np.ndarray) for share in operand)
        layout.append((scalar, shares[0].shape, shares[0].size))
        arrays.append(shares)
    vectors = tuple(np.concatenate([share.ravel() for share in role]) for role in zip(*arrays))
    return layout, vectors


def unpack_round(layout: RoundLayout, opened: np.ndarray) -> List[IntOrArray]:
    """The opened values of a :func:`pack_round` round; scalars come back as ints."""
    results: List[IntOrArray] = []
    offset = 0
    for scalar, shape, size in layout:
        chunk = opened[offset : offset + size]
        offset += size
        results.append(int(chunk[0]) if scalar else chunk.reshape(shape))
    return results


class OpeningAuthenticator:
    """Batched MAC-checked reconstruction of opened values.

    Parameters
    ----------
    seed:
        Run seed; the MAC key and tag randomness are derived from
        domain-separated streams of it, so two authenticators built from the
        same seed issue identical tags (deterministic replay).
    key:
        Explicit :class:`MacKey` override (tests); default derives from *seed*.
    ring:
        Ring the shares live in.
    tamper:
        Optional hook called with each :class:`OpeningRound` between tag
        issuance and the MAC check — the active-adversary injection point.

    The authenticator is shared by all workers of a parallel count, so the
    round counter and tag draws are guarded by a lock.  Round indices are
    deterministic for serial runs; under a thread pool the *order* in which
    rounds are checked (and hence their indices) may vary run to run.

    It is an *opener* (see :mod:`repro.crypto.secure_ops`) holding both
    server roles: every operand of :meth:`exchange` is a pair of shares.
    """

    roles = (1, 2)

    def __init__(
        self,
        seed: int = 0,
        key: Optional[MacKey] = None,
        ring: Ring = DEFAULT_RING,
        tamper: Optional[TamperHook] = None,
    ) -> None:
        self._ring = ring
        self._seed = int(seed)
        self._key = key if key is not None else MacKey.generate(self._seed, ring)
        self._tag_rng = derive_rng(stable_seed_from_name(_TAG_DOMAIN, self._seed))
        self._tamper = tamper
        self._enabled = True
        self._lock = threading.Lock()
        self._rounds_started = 0
        self.rounds_checked = 0
        self.values_checked = 0

    @classmethod
    def disabled(cls, ring: Ring = DEFAULT_RING) -> "OpeningAuthenticator":
        """An inert authenticator: plain reconstruction, no tags, no checks.

        The perf-gate A/B arm — carrying it through the call chain costs the
        same argument plumbing as a live authenticator while keeping the
        arithmetic identical to an unauthenticated run (analogous to
        ``Telemetry.disabled()``).
        """
        instance = cls(seed=0, ring=ring)
        instance._enabled = False
        return instance

    @property
    def enabled(self) -> bool:
        """Whether openings are actually tagged and checked."""
        return self._enabled

    @property
    def key(self) -> MacKey:
        """The dealt MAC key (dealer/test-side view)."""
        return self._key

    # ------------------------------------------------------------------ #
    # The one entry point the secure operations call
    # ------------------------------------------------------------------ #
    def exchange(
        self, label: str, pairs: Sequence[Tuple[IntOrArray, IntOrArray]]
    ) -> List[IntOrArray]:
        """Open every share pair of one round under a batched MAC check.

        All pairs of the round are flattened into a single value vector, a
        single tag vector is dealt for it, the (possibly tampered) messages
        are checked in one shot, and the opened values are returned with
        their original shapes — scalars in, scalars out; matrices in,
        matrices out.  For honest messages the result is bit-identical to
        ``ring.add(share1, share2)`` per pair.

        Raises
        ------
        CheaterDetectedError
            If a message was truncated / reshaped / retyped, or the batched
            MAC check does not verify.
        """
        if not self._enabled:
            return [self._ring.add(s1, s2) for s1, s2 in pairs]
        ring = self._ring
        if not pairs:
            return []

        # One fresh batch per server; the batches are the messages
        # themselves, which the tamper hook mutates in place.
        layout, (values1, values2) = pack_round(label, pairs, ring)
        total = values1.size

        with self._lock:
            round_index = self._rounds_started
            self._rounds_started += 1
            # Deal the tag shares: honest tag t = alpha * d, split with the
            # dedicated tag stream (trusted-dealer shortcut, see module doc).
            # tags2 = alpha * (v1 + v2) - tags1, computed in place.
            tags1 = ring.random_array(total, self._tag_rng)
            tags2 = np.add(values1, values2)
            tags2 *= ring.dtype.type(self._key.alpha(ring))
            tags2 -= tags1
            if ring.bits < 64:
                tags2 &= ring.dtype.type(ring.mask)
            opening = OpeningRound(
                index=round_index,
                label=label,
                messages=(
                    OpeningMessage(1, values1, tags1),
                    OpeningMessage(2, values2, tags2),
                ),
            )
            if self._tamper is not None:
                self._tamper(opening)
            self._validate_messages(opening, total)
            message1, message2 = opening.messages
            opened = ring.add(message1.values, message2.values)
            self._check_tags(opening, opened)
            self.rounds_checked += 1
            self.values_checked += total
        return unpack_round(layout, opened)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _check_tags(self, opening: OpeningRound, opened: np.ndarray) -> None:
        """Each server's ``sigma_i = t_i - alpha_i * d``; abort unless they cancel.

        Checked in fixed-size slices so the check's temporaries stay small
        however large the round is.
        """
        ring = self._ring
        message1, message2 = opening.messages
        alpha1 = ring.dtype.type(self._key.alpha1)
        alpha2 = ring.dtype.type(self._key.alpha2)
        failures = 0
        first = None
        for start in range(0, opened.size, _CHECK_SLICE):
            window = slice(start, start + _CHECK_SLICE)
            sigma1 = ring.sub(message1.tags[window], ring.mul(alpha1, opened[window]))
            sigma2 = ring.sub(message2.tags[window], ring.mul(alpha2, opened[window]))
            residual = ring.add(sigma1, sigma2)
            bad = np.flatnonzero(residual)
            if bad.size and first is None:
                first = start + int(bad[0])
            failures += int(bad.size)
        if failures:
            raise CheaterDetectedError(
                f"MAC check failed in opening round {opening.index} "
                f"({opening.label!r}): {failures} of {opened.size} opened values "
                f"carry inconsistent tags (first at position {first}) — a "
                "server cheated",
                label=opening.label,
                round_index=opening.index,
            )

    def _validate_messages(self, opening: OpeningRound, expected: int) -> None:
        """Reject truncated / reshaped / retyped messages as cheating.

        A server that drops values from a round (truncation) or swaps in a
        different dtype is lying about the round's layout; that is cheating
        of the same severity as a bad tag, so it gets the same typed abort
        instead of a downstream numpy broadcasting error.
        """
        for message in opening.messages:
            values = np.asarray(message.values)
            tags = np.asarray(message.tags)
            if values.shape != (expected,) or tags.shape != (expected,):
                raise CheaterDetectedError(
                    f"opening round {opening.index} ({opening.label!r}): "
                    f"server {message.server_index} sent a malformed round "
                    f"(expected {expected} values, got values {values.shape}, "
                    f"tags {tags.shape}) — truncation detected",
                    label=opening.label,
                    round_index=opening.index,
                )
            if values.dtype != self._ring.dtype or tags.dtype != self._ring.dtype:
                raise CheaterDetectedError(
                    f"opening round {opening.index} ({opening.label!r}): "
                    f"server {message.server_index} sent dtype "
                    f"{values.dtype}/{tags.dtype}, expected {self._ring.dtype}",
                    label=opening.label,
                    round_index=opening.index,
                )


def resolve_authenticator(config) -> Optional[OpeningAuthenticator]:
    """The authenticator a run should use, or ``None`` for plain openings.

    Mirrors ``resolve_telemetry``/``resolve_resilience``: an injected
    ``config.authenticator`` (tests, the adversary harness, the perf gate's
    inert arm) wins; otherwise ``config.authenticate=True`` builds a fresh
    authenticator from the run seed and ring — deterministic, so two runs of
    the same config deal the same key and tags, and its openings are reduced
    in the run's ring like plain ones.
    """
    injected = getattr(config, "authenticator", None)
    if injected is not None:
        if not callable(getattr(injected, "exchange", None)):
            raise ConfigurationError(
                "config.authenticator must expose an "
                "exchange(label, pairs) method, got "
                f"{type(injected).__name__}"
            )
        return injected
    if getattr(config, "authenticate", False):
        return OpeningAuthenticator(
            seed=int(getattr(config, "seed", 0) or 0),
            ring=ring_of(config),
        )
    return None
