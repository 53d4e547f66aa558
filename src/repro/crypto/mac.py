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
  ring than the values live in, close it.  The value width ``k`` they need
  exists now: an unauthenticated release counts in ``k = l - f`` bits
  (:func:`~repro.core.cargo.count_ring`), so uint64 tags would leave
  ``s = 64 - k`` bits of soundness; MAC-checked releases still count and
  perturb in 64 bits.

Detection is *anonymous* in the SPDZ sense: the check proves that cheating
happened, not which server cheated.

The check is written once, in :class:`MacCheck`, and both openers run it:
:class:`OpeningAuthenticator` holds both server roles in one process, and
the distributed runtime's :class:`~repro.runtime.server.OpeningChannel`
holds one role and swaps its value vector and its ``sigma`` with the peer
over the wire.  A round is checked in the same steps either way — the
received vectors' shape and dtype (:func:`check_received`), the lockstep tag
draw (:meth:`MacCheck.tag_shares`), ``sigma_r`` per held role
(:meth:`MacCheck.sigma`) and the sliced residual (:meth:`MacCheck.verify`) —
so a cheat aborts with the same :class:`~repro.exceptions.CheaterDetectedError`
text in both transports.

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
from functools import reduce
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.crypto.ring import DEFAULT_RING, Ring, ring_of
from repro.crypto.secure_ops import PlainOpener
from repro.exceptions import CheaterDetectedError, ConfigurationError
from repro.utils.rng import derive_rng, stable_seed_from_name

IntOrArray = Union[int, np.ndarray]

__all__ = [
    "CheaterDetectedError",
    "MacCheck",
    "MacKey",
    "OpeningAuthenticator",
    "OpeningMessage",
    "OpeningRound",
    "check_received",
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


def check_received(
    index: int, label: str, server: int, name: str, array, expected: int, ring: Ring
) -> None:
    """Reject a received round vector that is truncated, reshaped or retyped.

    *array* is what *server* sent as the round's *name* vector (``values``
    or ``tags``).  A server that drops values from a round or swaps in a
    different dtype is lying about the round's layout; that is cheating of
    the same severity as a bad tag, so it gets the same typed abort instead
    of a downstream numpy broadcasting error.
    """
    array = np.asarray(array)
    if array.shape != (expected,):
        raise CheaterDetectedError(
            f"opening round {index} ({label!r}): server {server} sent a "
            f"malformed round (expected {expected} values, got {name} "
            f"{array.shape}) — truncation detected",
            label=label,
            round_index=index,
        )
    if array.dtype != ring.dtype:
        raise CheaterDetectedError(
            f"opening round {index} ({label!r}): server {server} sent dtype "
            f"{array.dtype}, expected {ring.dtype}",
            label=label,
            round_index=index,
        )


class MacCheck:
    """The MAC check of opening rounds, for the server roles an opener holds.

    Holds the dealt key, the lockstep tag stream and the MAC counters.  Both
    openers subclass it: :class:`OpeningAuthenticator` (both roles) and the
    distributed runtime's :class:`~repro.runtime.server.OpeningChannel` (one
    role).  Two checks built from the same seed draw the same tags round by
    round, which is what lets two server processes check in lockstep.

    Parameters
    ----------
    seed:
        Run seed; the MAC key and tag randomness are derived from
        domain-separated streams of it (deterministic replay).
    key:
        Explicit :class:`MacKey` override (tests); default derives from *seed*.
    ring:
        Ring the shares live in.
    """

    def __init__(
        self, seed: int = 0, key: Optional[MacKey] = None, ring: Ring = DEFAULT_RING
    ) -> None:
        self.ring = ring
        self.key = key if key is not None else MacKey.generate(int(seed), ring)
        self._tag_rng = derive_rng(stable_seed_from_name(_TAG_DOMAIN, int(seed)))
        self.rounds_checked = 0
        self.values_checked = 0

    def tag_shares(self, roles: Sequence[int], opened: np.ndarray) -> tuple:
        """The held roles' tag shares of a round that opens *opened*.

        ``t_1`` is the round's draw from the tag stream (both servers draw
        it in lockstep) and ``t_2 = alpha * opened - t_1``: the honest tag
        split by the trusted-dealer shortcut (see the module doc).
        """
        ring = self.ring
        tags1 = ring.random_array(opened.size, self._tag_rng)
        if 2 not in roles:
            return (tags1,)
        tags2 = np.multiply(opened, ring.dtype.type(self.key.alpha(ring)))
        tags2 -= tags1
        if ring.bits < 64:
            tags2 &= ring.dtype.type(ring.mask)
        return tuple(tags1 if role == 1 else tags2 for role in roles)

    def sigma(self, role: int, tags: np.ndarray, opened: np.ndarray) -> np.ndarray:
        """Server *role*'s ``sigma_r = t_r - alpha_r * opened`` (of any slice of a round)."""
        ring = self.ring
        alpha = self.key.alpha1 if role == 1 else self.key.alpha2
        return ring.sub(tags, ring.mul(ring.dtype.type(alpha), opened))

    def verify(
        self,
        index: int,
        label: str,
        opened: np.ndarray,
        tags: Sequence[Tuple[int, np.ndarray]] = (),
        sigmas: Sequence[np.ndarray] = (),
    ) -> None:
        """Count the round checked, or abort unless its ``sigma`` cancel.

        The residual is the sum of ``sigma_r`` over the ``(role, tag share)``
        pairs in *tags* and the already computed vectors in *sigmas* (the
        wire's own and its peer's).  Checked in fixed-size slices, so the
        check's temporaries stay small however large the round is.

        Raises
        ------
        CheaterDetectedError
            If any opened value's residual is nonzero.
        """
        ring = self.ring
        failures = 0
        first = None
        for start in range(0, opened.size, _CHECK_SLICE):
            window = slice(start, start + _CHECK_SLICE)
            residual = reduce(
                ring.add,
                [self.sigma(role, share[window], opened[window]) for role, share in tags]
                + [sigma[window] for sigma in sigmas],
            )
            bad = np.flatnonzero(residual)
            if bad.size and first is None:
                first = start + int(bad[0])
            failures += int(bad.size)
        if failures:
            raise CheaterDetectedError(
                f"MAC check failed in opening round {index} "
                f"({label!r}): {failures} of {opened.size} opened values "
                f"carry inconsistent tags (first at position {first}) — a "
                "server cheated",
                label=label,
                round_index=index,
            )
        self.rounds_checked += 1
        self.values_checked += int(opened.size)


class OpeningAuthenticator(MacCheck):
    """Batched MAC-checked reconstruction of opened values, both roles in process.

    Parameters are :class:`MacCheck`'s, plus:

    tamper:
        Optional hook called with each :class:`OpeningRound` between tag
        issuance and the MAC check — the active-adversary injection point.

    The round counter, tag draws and checks are guarded by a lock, so rounds
    from concurrent callers sharing one authenticator never interleave.

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
        super().__init__(seed, key, ring)
        self._tamper = tamper
        self._lock = threading.Lock()
        self._rounds_started = 0

    def exchange(
        self, label: str, pairs: Sequence[Tuple[IntOrArray, IntOrArray]]
    ) -> List[IntOrArray]:
        """Open every share pair of one round under a batched MAC check.

        All pairs of the round are flattened into a single value vector per
        server, a single tag vector is dealt for it, the (possibly tampered)
        messages are checked in one shot, and the opened values are returned
        with their original shapes — scalars in, scalars out; matrices in,
        matrices out.  For honest messages the result is bit-identical to
        ``ring.add(share1, share2)`` per pair.

        Raises
        ------
        CheaterDetectedError
            If a message was truncated / reshaped / retyped, or the batched
            MAC check does not verify.
        """
        if not pairs:
            return []
        ring = self.ring
        # One fresh batch per server; the batches are the messages
        # themselves, which the tamper hook mutates in place.
        layout, (values1, values2) = pack_round(label, pairs, ring)
        total = values1.size
        with self._lock:
            index = self._rounds_started
            self._rounds_started += 1
            tags1, tags2 = self.tag_shares(self.roles, np.add(values1, values2))
            opening = OpeningRound(
                index=index,
                label=label,
                messages=(
                    OpeningMessage(1, values1, tags1),
                    OpeningMessage(2, values2, tags2),
                ),
            )
            if self._tamper is not None:
                self._tamper(opening)
            message1, message2 = opening.messages
            for message in opening.messages:
                check_received(
                    index, label, message.server_index, "values", message.values, total, ring
                )
            opened = ring.add(message1.values, message2.values)
            for message in opening.messages:
                check_received(
                    index, label, message.server_index, "tags", message.tags, total, ring
                )
            self.verify(index, label, opened, tags=((1, message1.tags), (2, message2.tags)))
        return unpack_round(layout, opened)


def resolve_authenticator(config) -> Optional[OpeningAuthenticator]:
    """The authenticator a run should use, or ``None`` for plain openings.

    Mirrors ``resolve_telemetry``/``resolve_resilience``: an injected
    ``config.authenticator`` (tests, the adversary harness) wins, unless it
    is the key-less :class:`~repro.crypto.secure_ops.PlainOpener`, which
    checks nothing and so opens like no authenticator at all (in the
    release's ring).  Otherwise ``config.authenticate=True`` builds a fresh
    authenticator from the run seed and ring — deterministic, so two runs of
    the same config deal the same key and tags, and its openings are reduced
    in the run's ring like plain ones.
    """
    injected = getattr(config, "authenticator", None)
    if injected is not None and not isinstance(injected, PlainOpener):
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
