"""Active-adversary harness: corrupt one server, assert the MAC check aborts.

The threat model of :mod:`repro.crypto.mac` is *one actively malicious
server*: it may send a wrong value share in an opening, forge its tag share,
or drop values from a round entirely.  This module packages those attacks as
a declarative :class:`Corruption` and executes the full protocol with the
corruption installed through the authenticator's tamper hook, so tests can
sweep a (round × server × tamper kind) matrix across every backend and
statistic and assert the only possible outcomes are

* the corruption never fired (the targeted round does not exist), or
* a typed :class:`~repro.exceptions.CheaterDetectedError` naming the round —

never a silently wrong released count.

Round indices are deterministic at every worker count, which is what the
corruption matrix relies on to target, say, "the second Beaver opening of
the blocked backend": ``faithful``/``batched`` run their blocks serially,
and ``blocked``/``matrix`` open only from the coordinating thread, whatever
their pool.

Examples
--------
>>> from repro.graph.graph import Graph
>>> graph = Graph(5, edges=[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
>>> outcome = run_with_corruption(graph, Corruption(round_index=0))
>>> outcome.detected and outcome.fired
True
>>> outcome.error.round_index
0
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.cargo import Cargo
from repro.core.config import CargoConfig
from repro.core.node_dp import NodeDpCargo
from repro.core.result import CargoResult
from repro.crypto.mac import OpeningAuthenticator, OpeningRound
from repro.exceptions import CheaterDetectedError, ConfigurationError
from repro.graph.graph import Graph

__all__ = [
    "CORRUPTION_KINDS",
    "CorruptingChannel",
    "Corruption",
    "CorruptionOutcome",
    "count_opening_rounds",
    "run_with_corruption",
]

#: The tamper kinds the harness knows how to apply.
CORRUPTION_KINDS = ("flip_value", "flip_tag", "lie_value", "truncate")


@dataclass(frozen=True)
class Corruption:
    """One single-shot corruption of an opening round.

    Parameters
    ----------
    round_index:
        Which opening round (authenticator numbering, release opening
        included) the corruption targets.
    server:
        Which server misbehaves (1 or 2).
    kind:
        ``flip_value`` xors the lowest bit of one opened value share,
        ``flip_tag`` does the same to the tag share (an attempted forgery
        with a wrong tag), ``lie_value`` adds *magnitude* to a value share
        (a biased count, the attack MACs exist to stop), ``truncate`` drops
        the last element of the server's round message.
    position:
        Index of the targeted value within the round's flattened batch
        (reduced modulo the batch length).
    magnitude:
        Additive offset used by ``lie_value``.
    """

    round_index: int
    server: int = 1
    kind: str = "flip_value"
    position: int = 0
    magnitude: int = 1

    def __post_init__(self) -> None:
        if self.kind not in CORRUPTION_KINDS:
            raise ConfigurationError(
                f"unknown corruption kind {self.kind!r}; "
                f"known: {', '.join(CORRUPTION_KINDS)}"
            )
        if self.server not in (1, 2):
            raise ConfigurationError(f"server must be 1 or 2, got {self.server}")
        if self.round_index < 0:
            raise ConfigurationError(
                f"round_index must be non-negative, got {self.round_index}"
            )
        if self.kind == "lie_value" and self.magnitude % (1 << 64) == 0:
            raise ConfigurationError(
                "lie_value with magnitude ≡ 0 (mod 2^64) is not a corruption"
            )


class CorruptingChannel:
    """A tamper hook applying one :class:`Corruption` when its round comes up.

    Records whether the corruption actually fired, so a test targeting a
    round that does not exist for some backend can tell "survived because
    nothing was tampered" apart from "tamper went undetected".
    """

    def __init__(self, corruption: Corruption) -> None:
        self.corruption = corruption
        self.fired = False

    def __call__(self, opening: OpeningRound) -> None:
        corruption = self.corruption
        if opening.index != corruption.round_index:
            return
        message = opening.messages[corruption.server - 1]
        size = int(np.asarray(message.values).size)
        if size == 0:
            return
        position = corruption.position % size
        mask = (1 << 64) - 1
        if corruption.kind == "flip_value":
            message.values[position] ^= np.uint64(1)
        elif corruption.kind == "flip_tag":
            message.tags[position] ^= np.uint64(1)
        elif corruption.kind == "lie_value":
            lied = (int(message.values[position]) + corruption.magnitude) & mask
            message.values[position] = np.uint64(lied)
        elif corruption.kind == "truncate":
            message.values = message.values[:-1]
            message.tags = message.tags[:-1]
        self.fired = True


@dataclass(frozen=True)
class CorruptionOutcome:
    """What happened when the protocol ran against one corruption."""

    detected: bool
    fired: bool
    error: Optional[CheaterDetectedError]
    result: Optional[CargoResult]

    @property
    def safe(self) -> bool:
        """No silent wrong count: every fired corruption was detected."""
        return self.detected or not self.fired


def _build_config(
    *,
    statistic: str,
    backend: str,
    epsilon: float,
    seed: int,
    authenticator: OpeningAuthenticator,
    **config_kwargs,
) -> CargoConfig:
    return CargoConfig(
        epsilon=epsilon,
        seed=seed,
        statistic=statistic,
        counting_backend=backend,
        authenticator=authenticator,
        **config_kwargs,
    )


def run_with_corruption(
    graph: Graph,
    corruption: Corruption,
    *,
    statistic: str = "triangles",
    backend: str = "matrix",
    epsilon: float = 2.0,
    seed: int = 0,
    node_dp: bool = False,
    **config_kwargs,
) -> CorruptionOutcome:
    """Run the full protocol with *corruption* installed and report the outcome.

    The run is authenticated (the corruption is applied through the MAC
    layer's tamper hook), serial, and otherwise identical to an honest run
    of the same configuration.
    """
    channel = CorruptingChannel(corruption)
    authenticator = OpeningAuthenticator(seed=seed, tamper=channel)
    config = _build_config(
        statistic=statistic,
        backend=backend,
        epsilon=epsilon,
        seed=seed,
        authenticator=authenticator,
        **config_kwargs,
    )
    orchestrator = NodeDpCargo(config) if node_dp else Cargo(config)
    try:
        result = orchestrator.run(graph)
    except CheaterDetectedError as error:
        return CorruptionOutcome(
            detected=True, fired=channel.fired, error=error, result=None
        )
    return CorruptionOutcome(
        detected=False, fired=channel.fired, error=None, result=result
    )


def count_opening_rounds(
    graph: Graph,
    *,
    statistic: str = "triangles",
    backend: str = "matrix",
    epsilon: float = 2.0,
    seed: int = 0,
    node_dp: bool = False,
    **config_kwargs,
) -> int:
    """MAC-checked rounds of one honest run (release reconstruction included).

    The corruption matrix uses this probe to enumerate the valid
    ``round_index`` targets for a given backend × statistic before sweeping
    them; it also pins the invariant that *every* configuration has at least
    one checked round (the release opening), so even statistics whose secure
    kernel needs no openings at all are covered by the MAC layer.
    """
    authenticator = OpeningAuthenticator(seed=seed)
    config = _build_config(
        statistic=statistic,
        backend=backend,
        epsilon=epsilon,
        seed=seed,
        authenticator=authenticator,
        **config_kwargs,
    )
    orchestrator = NodeDpCargo(config) if node_dp else Cargo(config)
    orchestrator.run(graph)
    return authenticator.rounds_checked
