"""The dealer process of the process-separated runtime.

The in-process engine keeps the trusted dealer as an object the backends call
into mid-protocol.  Here the dealer is what the paper actually describes: a
third process that knows the counting schedule, deals every piece of
correlated randomness *in the exact order the in-process backends consume
it*, and provisions each server over ``PROVISION`` frames.  For the
multiplication groups it ships each half in full; for the blocked
mask-once material it first sends the driver, which runs the users' steps,
one frame of the users' input-mask seeds, then ships each server one frame
of its stream seeds and server 2 one frame of ``Z``/``W`` corrections per
row of tiles, since each server regenerates the rest from its seeds.  Because
both the dealer classes (:class:`~repro.crypto.multiplication_groups.MultiplicationGroupDealer`,
:class:`~repro.crypto.beaver.BeaverTripleDealer`) and the replayed schedule
are identical to the in-process ones — same RNG stream, and the same
generators fix the draw order
(:func:`~repro.core.backends.faithful.group_stream`,
:func:`~repro.core.backends.blocked.deal_row`) — the dealt material is
bit-identical, which is what makes the whole distributed transcript
bit-identical.

The dealer never sees the graph, the shares, or any opened value: its links
carry correlated randomness out and nothing in (its one frame to the driver
is the users' seeds), matching the non-collusion assumption the privacy
argument rests on.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.core.backends.blocked import (
    Dealt,
    chunk_dealers,
    chunk_rows,
    deal_row,
    input_seeds,
    mask_blocks,
    material_seeds,
    tile_schedule,
)
from repro.core.backends.faithful import group_stream
from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.multiplication_groups import MG_FIELDS, MultiplicationGroupDealer
from repro.crypto.ring import Ring
from repro.exceptions import WireFormatError
from repro.parallel.blas import blas_threads, os_threads
from repro.runtime.wire import (
    CONTROL_RUN,
    CONTROL_SHUTDOWN,
    KIND_CONTROL,
    KIND_PROVISION,
    KIND_RESULT,
    WireEndpoint,
    recv_ring,
    summary_delta,
)

__all__ = ["run_dealer"]


def _deal_mg(
    spec: Dict, ring: Ring, driver: WireEndpoint, server1: WireEndpoint, server2: WireEndpoint
) -> None:
    """Walk the faithful/batched group stream and ship each group."""
    batch_size = 1 if spec["backend"] == "faithful" else int(spec["batch_size"])
    dealer = MultiplicationGroupDealer(ring=ring, seed=spec["dealer_rng"])
    meta = {"label": "mg_group"}
    for group in group_stream(dealer, int(spec["num_users"]), batch_size):
        server1.send(
            KIND_PROVISION, meta, [getattr(group.server1, field) for field in MG_FIELDS]
        )
        server2.send(
            KIND_PROVISION, meta, [getattr(group.server2, field) for field in MG_FIELDS]
        )


def _deal_blocked(
    spec: Dict, ring: Ring, driver: WireEndpoint, server1: WireEndpoint, server2: WireEndpoint
) -> None:
    """Deal the blocked schedule as one mask-once chunk: seeds, then row by row.

    The driver gets the users' input-mask seeds first (the servers wait on
    the upload they mask), each server its stream seeds; server 2 then gets
    each row's ``Z`` tiles and ``W`` share, the corrections its seeds cannot
    regenerate.
    """
    n = int(spec["num_users"])
    schedule = tile_schedule(n, int(spec["block_size"]))
    dealers = chunk_dealers(BeaverTripleDealer(ring=ring, seed=spec["dealer_rng"]), schedule)
    seeds = input_seeds(dealers, n)
    driver.send(KIND_PROVISION, {"label": "input_masks", "phase": "input_masks"}, [seeds])
    if n < 3:
        return
    groups = range(len(schedule))
    for role, endpoint in ((1, server1), (2, server2)):
        endpoint.send(
            KIND_PROVISION, {"label": "material_seeds"}, [material_seeds(dealers, role)]
        )
    masks = Dealt(*(mask_blocks(seeds[:, role], schedule, ring) for role in range(2)))
    for position in range(len(chunk_rows(schedule, groups))):
        half = deal_row(schedule, groups, position, masks, dealers, ring).server2
        server2.send(KIND_PROVISION, {"label": "row_finish"}, [*half.z, half.w])


_DEALERS = {
    "faithful": _deal_mg,
    "batched": _deal_mg,
    "matrix": _deal_blocked,
    "blocked": _deal_blocked,
}


def run_dealer(driver_sock, s1_sock, s2_sock) -> None:
    """Main loop of the dealer process.

    Handshakes driver, server 1, server 2 (in that order), then serves one
    full provisioning replay per ``RUN`` control frame, in the ring of the
    ``ring`` frame that follows it once the driver's `Max` is done.  Any
    failure — a server dying mid-provision surfaces here as a send error —
    is reported to the driver as an ``ERROR`` frame and ends the process.
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
                ring = recv_ring(driver_ep)
                if ring is None:
                    break
                started = time.perf_counter()
                before = driver_ep.sent_summary()
                before1 = server1.sent_summary()
                before2 = server2.sent_summary()
                deal(spec, ring, driver_ep, server1, server2)
                driver_ep.send(
                    KIND_RESULT,
                    {
                        "stage": "dealer",
                        "seconds": time.perf_counter() - started,
                        "blas_threads": blas_threads(),
                        "os_threads": os_threads(),
                        "sent": {
                            "driver": summary_delta(before, driver_ep.sent_summary()),
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
