"""The dealer process of the process-separated runtime.

The in-process engine keeps the trusted dealer as an object the backends call
into mid-protocol.  Here the dealer is what the paper actually describes: a
third process that knows the counting schedule, deals every piece of
correlated randomness *in the exact order the in-process backends consume
it*, and ships each half to its server as ``PROVISION`` frames.  Because
both the dealer classes (:class:`~repro.crypto.multiplication_groups.MultiplicationGroupDealer`,
:class:`~repro.crypto.beaver.BeaverTripleDealer`) and the replayed schedule
are identical to the in-process ones — same RNG stream, same bulk-provision
chunking, same draw order — the dealt material is bit-identical, which is
what makes the whole distributed transcript bit-identical.

The dealer never sees the graph, the shares, or any opened value: its links
carry correlated randomness out and nothing in, matching the non-collusion
assumption the privacy argument rests on.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.core.backends.base import num_candidate_triples
from repro.core.backends.blocked import group_triples, tile_schedule
from repro.core.backends.faithful import DEFAULT_PROVISION_LIMIT
from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.multiplication_groups import MG_FIELDS, MultiplicationGroupDealer
from repro.exceptions import WireFormatError
from repro.runtime.wire import (
    CONTROL_RUN,
    CONTROL_SHUTDOWN,
    KIND_CONTROL,
    KIND_PROVISION,
    KIND_RESULT,
    WireEndpoint,
    summary_delta,
)

__all__ = ["run_dealer"]


def _deal_mg(spec: Dict, server1: WireEndpoint, server2: WireEndpoint) -> None:
    """Replay the faithful/batched provisioning order and ship each group."""
    ring = spec["ring"]
    n = int(spec["num_users"])
    batch_size = 1 if spec["backend"] == "faithful" else int(spec["batch_size"])
    dealer = MultiplicationGroupDealer(ring=ring, seed=spec["dealer_rng"])
    provision_limit = DEFAULT_PROVISION_LIMIT
    to_provision = num_candidate_triples(n) if provision_limit else 0
    remaining = num_candidate_triples(n)
    while remaining:
        size = min(batch_size, remaining)
        remaining -= size
        while to_provision and dealer.provisioned_remaining < size:
            draw = min(to_provision, provision_limit)
            dealer.provision(draw)
            to_provision -= draw
        group = dealer.vector_group((size,))
        meta = {"label": "mg_group"}
        server1.send(
            KIND_PROVISION, meta, [getattr(group.server1, field) for field in MG_FIELDS]
        )
        server2.send(
            KIND_PROVISION, meta, [getattr(group.server2, field) for field in MG_FIELDS]
        )


def _ship_triple(pair, label: str, server1: WireEndpoint, server2: WireEndpoint) -> None:
    meta = {"label": label}
    server1.send(KIND_PROVISION, meta, [pair.server1.x, pair.server1.y, pair.server1.z])
    server2.send(KIND_PROVISION, meta, [pair.server2.x, pair.server2.y, pair.server2.z])


def _deal_matrix(spec: Dict, server1: WireEndpoint, server2: WireEndpoint) -> None:
    """Replay the matrix backend's two offline draws."""
    ring = spec["ring"]
    n = int(spec["num_users"])
    if n < 3:
        return
    dealer = BeaverTripleDealer(ring=ring, seed=spec["dealer_rng"])
    _ship_triple(dealer.matrix_triple((n, n), (n, n)), "matrix_triple", server1, server2)
    _ship_triple(dealer.vector_triple((n, n)), "vector_triple", server1, server2)


def _deal_blocked(spec: Dict, server1: WireEndpoint, server2: WireEndpoint) -> None:
    """Replay the blocked tile schedule, group ``g`` from sub-dealer ``g``."""
    n = int(spec["num_users"])
    if n < 3:
        return
    dealer = BeaverTripleDealer(ring=spec["ring"], seed=spec["dealer_rng"])
    schedule = tile_schedule(n, int(spec["block_size"]))
    for group, sub_dealer in zip(schedule, dealer.spawn_subdealers(len(schedule))):
        tiles = len(group[4])
        for index, triple in enumerate(group_triples(group, sub_dealer)):
            label = "matrix_triple" if index < tiles else "vector_triple"
            _ship_triple(triple, label, server1, server2)


_DEALERS = {
    "faithful": _deal_mg,
    "batched": _deal_mg,
    "matrix": _deal_matrix,
    "blocked": _deal_blocked,
}


def run_dealer(driver_sock, s1_sock, s2_sock) -> None:
    """Main loop of the dealer process.

    Handshakes driver, server 1, server 2 (in that order), then serves one
    full provisioning replay per ``RUN`` control frame.  Any failure — a
    server dying mid-provision surfaces here as a send error — is reported
    to the driver as an ``ERROR`` frame and ends the process.
    """
    driver_ep = WireEndpoint(driver_sock, name="dealer", peer="driver")
    server1 = WireEndpoint(s1_sock, name="dealer", peer="server1")
    server2 = WireEndpoint(s2_sock, name="dealer", peer="server2")
    try:
        driver_ep.hello()
        server1.hello()
        server2.hello()
        while True:
            try:
                meta, _ = driver_ep.recv_expect(KIND_CONTROL)
            except WireFormatError:
                break  # driver went away
            verb = meta.get("verb")
            if verb == CONTROL_SHUTDOWN:
                break
            if verb != CONTROL_RUN:
                driver_ep.send_error(
                    WireFormatError(f"dealer cannot handle control verb {verb!r}")
                )
                break
            spec = meta["spec"]
            try:
                deal = _DEALERS.get(spec["backend"])
                if deal is None:
                    raise WireFormatError(
                        f"dealer has no schedule for backend {spec['backend']!r}"
                    )
                started = time.perf_counter()
                before1 = server1.sent_summary()
                before2 = server2.sent_summary()
                deal(spec, server1, server2)
                driver_ep.send(
                    KIND_RESULT,
                    {
                        "stage": "dealer",
                        "seconds": time.perf_counter() - started,
                        "sent": {
                            "server1": summary_delta(before1, server1.sent_summary()),
                            "server2": summary_delta(before2, server2.sent_summary()),
                        },
                    },
                )
            except BaseException as error:  # noqa: BLE001 - reported, then fatal
                driver_ep.send_error(error)
                break
    finally:
        driver_ep.close()
        server1.close()
        server2.close()
