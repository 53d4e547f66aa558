"""Server role drivers for the process-separated runtime.

Each computation server runs :func:`run_server` in its own OS process.  A
server owns three links — driver, dealer, and its peer server — and evaluates
*only its role's side* of the secure protocol: it receives its half of every
share payload and every piece of correlated randomness, or the seeds to
expand it from (server 1's adjacency share and the blocked mask-once
material; on the blocked backends both servers receive the users' masked
input ``E`` instead of shares), and exchanges opening rounds directly with its peer over
:class:`~repro.runtime.wire` frames (one frame per opening round, never one
per element).

Bit-exactness contract
----------------------
The servers run the in-process backends' own code, not a copy of it.  Each
``_count_*`` function below walks its backend's schedule
(:func:`~repro.core.backends.faithful._gather_schedule`,
:func:`~repro.core.backends.blocked.tile_schedule`), reads or regenerates
the dealt material from its ``PROVISION`` frames, and calls the backend's counting
kernel — :func:`~repro.core.backends.faithful.count_blocks` with its one
packed share ``(share,)``, :func:`~repro.core.backends.blocked.count_chunk`
with the masked input and its own half of ``X`` — and its
:class:`OpeningChannel` as the *opener*.  The
in-process backends call the same kernels with both servers' shares and a
local opener (:mod:`repro.crypto.secure_ops`), so both modes perform the
same ring operations in the same order.  Because every ring operation is
exact modulo ``2^l``, the shares each server derives — and therefore every
opened value that crosses the wire — are bit-identical to what the
in-process engine opens for the same seed and configuration.

Authenticated openings run the in-process MAC check itself
(:class:`~repro.crypto.mac.MacCheck`), for one held role: both servers
derive the same key and the same lockstep tag stream from the run seed (the
trusted-dealer shortcut the in-process authenticator already takes), each
computes its own ``sigma`` locally, and the swapped ``sigma`` must cancel —
``sigma_1 + sigma_2 = alpha_1 * (opened_2 - opened_1)``, which is zero
exactly when both servers opened the same values.  A server that lies on
the wire is detected by both sides and the run aborts with the same typed
:class:`~repro.exceptions.CheaterDetectedError` message the in-process
authenticator raises, because the same functions raise it.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import time
from typing import List, Optional, Sequence

import numpy as np

from repro.core.backends.base import num_candidate_triples, server1_share
from repro.core.backends.blocked import (
    INPUT_LABEL,
    chunk_rows,
    count_chunk,
    held_row,
    held_streams,
    mask_blocks,
    record_input,
    tile_schedule,
)
from repro.core.backends.faithful import _gather_schedule, count_blocks
from repro.core.max_degree import clamp_max_degree
from repro.core.perturbation import release_opening
from repro.crypto.mac import MacCheck, check_received, pack_round, unpack_round
from repro.crypto.multiplication_groups import MG_FIELDS, MultiplicationGroup
from repro.crypto.views import ViewRecorder
from repro.exceptions import ProtocolError, WireFormatError
from repro.parallel.blas import blas_threads, os_threads
from repro.resilience.faults import FaultPlan, InjectedCrash, fault_point, install_fault_plan
from repro.runtime.wire import (
    CONTROL_RUN,
    CONTROL_SHUTDOWN,
    KIND_CHECK,
    KIND_CONTROL,
    KIND_OPEN_MAC,
    KIND_OPEN_VALUES,
    KIND_PROVISION,
    KIND_RESULT,
    KIND_SHARES,
    WireEndpoint,
    recv_ring,
    summary_delta,
)
from repro.telemetry.spans import NULL_TRACER, Tracer

__all__ = ["OpeningChannel", "run_server"]


#: Opening labels whose frames the ledger books under another phase: the
#: release opening is the ``noisy_count_share`` swap.
_LEDGER_PHASES = {"release_opening": "noisy_count_share"}


class OpeningChannel(MacCheck):
    """One server's side of the peer-to-peer opening rounds.

    Every interactive secure operation funnels its opening through
    :meth:`exchange`: the server's local mask-differences go out in one
    ``OPEN_VALUES`` frame, the peer's arrive in one, and the opened values
    are their ring sum.  With ``authenticate=True`` each round is followed
    by one ``OPEN_MAC`` frame each way carrying the servers' ``sigma``, and
    the round is checked by the :class:`~repro.crypto.mac.MacCheck` the
    in-process authenticator runs — same key, same lockstep tag stream,
    same checks and messages — so the MAC counters and any cheater abort
    are indistinguishable from an in-process authenticated run.  Both
    servers derive the key and tag stream from the run seed, the
    distributed form of the in-process trusted-dealer shortcut.

    ``tamper_round`` is the active-adversary hook for tests: on that
    opening round the server lies about its first outbound value *on the
    wire only* (its local arithmetic keeps the true value), which is
    exactly the one-sided tamper the MAC check is designed to catch.
    """

    def __init__(
        self,
        endpoint: WireEndpoint,
        role: int,
        ring,
        authenticate: bool = False,
        seed: int = 0,
        tamper_round: Optional[int] = None,
    ) -> None:
        super().__init__(seed, ring=ring)
        self._endpoint = endpoint
        self._role = int(role)
        #: The opener's held roles (see :mod:`repro.crypto.secure_ops`).
        self.roles = (self._role,)
        self._authenticate = bool(authenticate)
        self._tamper_round = None if tamper_round is None else int(tamper_round)
        self._rounds_started = 0

    def exchange(self, label: str, operands: Sequence) -> List:
        """Open one round of this server's shares against the peer's.

        Each operand is a 1-tuple holding this role's share.  The round
        flattens into one value vector (:func:`~repro.crypto.mac.pack_round`,
        the codec ``OpeningAuthenticator.exchange`` uses) and the opened
        values come back with their original shapes (scalars as ints).
        With ``authenticate=True`` this server's ``sigma`` and the peer's
        must cancel: ``sigma_1 + sigma_2 = alpha_1 * (opened_2 - opened_1)``,
        zero exactly when both servers opened the same values.
        """
        fault_point("runtime.round")
        ring = self.ring
        layout, (values,) = pack_round(label, operands, ring)
        total = int(values.size)
        index = self._rounds_started
        self._rounds_started += 1

        outbound = values
        if self._tamper_round == index:
            # Lie on the wire only: the local combination keeps the true
            # values, so the inconsistency lives purely in the transcript.
            outbound = values.copy()
            outbound[0] = ring.add(int(outbound[0]), 1)

        meta = {"label": label, "round": index, "phase": _LEDGER_PHASES.get(label, label)}
        peer_meta, received = self._swap(KIND_OPEN_VALUES, meta, outbound)
        peer = 3 - self._role
        if peer_meta.get("label") != label or peer_meta.get("round") != index:
            raise WireFormatError(
                f"opening round desync with server {peer}: expected "
                f"round {index} ({label!r}), got round "
                f"{peer_meta.get('round')!r} ({peer_meta.get('label')!r})"
            )
        check_received(index, label, peer, "values", received, total, ring)
        opened = ring.add(values, received)

        if self._authenticate:
            (tags,) = self.tag_shares(self.roles, opened)
            sigma = self.sigma(self._role, tags, opened)
            _, theirs = self._swap(KIND_OPEN_MAC, {"label": label, "round": index}, sigma)
            check_received(index, label, peer, "tags", theirs, total, ring)
            self.verify(index, label, opened, sigmas=(sigma, theirs))

        return unpack_round(layout, opened)

    def agree(self, label: str, array: np.ndarray) -> None:
        """Confirm the peer holds the same *array*: swap 32-byte SHA-256 digests.

        One ``CHECK`` frame each way, off the ledger (it is no protocol
        message, like the in-process backends' equality check); a mismatch
        aborts with :class:`~repro.exceptions.ProtocolError`.
        """
        digest = np.frombuffer(
            hashlib.sha256(np.ascontiguousarray(array)).digest(), dtype=np.uint8
        )
        _, theirs = self._swap(KIND_CHECK, {"label": label}, digest)
        if not np.array_equal(theirs, digest):
            raise ProtocolError(
                f"the servers received different {label} uploads: server "
                f"{3 - self._role}'s digest differs from server {self._role}'s"
            )

    def _swap(self, kind: int, meta: dict, array: np.ndarray):
        """Role-asymmetric exchange: role 1 sends first, role 2 receives first."""
        if self._role == 1:
            self._endpoint.send(kind, meta, [array])
            peer_meta, arrays = self._endpoint.recv_expect(kind)
        else:
            peer_meta, arrays = self._endpoint.recv_expect(kind)
            self._endpoint.send(kind, meta, [array])
        if len(arrays) != 1:
            raise WireFormatError(
                f"opening frame must carry exactly one array, got {len(arrays)}"
            )
        return peer_meta, arrays[0]


# ---------------------------------------------------------------------- #
# Correlated-randomness consumption (dealer PROVISION frames)
# ---------------------------------------------------------------------- #
def _recv_group(endpoint: WireEndpoint) -> MultiplicationGroup:
    """One multiplication-group half from the dealer link."""
    meta, arrays = endpoint.recv_expect(KIND_PROVISION)
    if meta.get("label") != "mg_group" or len(arrays) != len(MG_FIELDS):
        raise WireFormatError(
            f"expected an mg_group provisioning frame, got label "
            f"{meta.get('label')!r} with {len(arrays)} arrays"
        )
    return MultiplicationGroup(**dict(zip(MG_FIELDS, arrays)))


def _recv_blocked(endpoint: WireEndpoint, label: str, arrays: int) -> list:
    """One blocked provisioning frame (``material_seeds`` / ``row_finish``)."""
    meta, received = endpoint.recv_expect(KIND_PROVISION)
    if meta.get("label") != label or len(received) != arrays:
        raise WireFormatError(
            f"expected a {label} provisioning frame of {arrays} arrays, got "
            f"label {meta.get('label')!r} with {len(received)} arrays"
        )
    return received


# ---------------------------------------------------------------------- #
# Count phase — the backends' schedules and kernels, for this role's share
# ---------------------------------------------------------------------- #
def _count_mg(dealer_ep, channel, ring, share, num_users, batch_size, views, tracer):
    """The faithful/batched block loop, each block's group read from the dealer link."""
    groups = map(_recv_group, itertools.repeat(dealer_ep))
    with tracer.span(
        "backend",
        backend="faithful" if batch_size == 1 else "batched",
        num_users=num_users,
        batch_size=batch_size,
        candidates=num_candidate_triples(num_users),
    ) as backend_span:
        (total,), triples, rounds = count_blocks(
            _gather_schedule(num_users, batch_size), groups, (share,), ring, views, channel
        )
        backend_span.annotate(opening_rounds=rounds)
    return int(total), triples, rounds


def _count_blocked(dealer_ep, channel, ring, e, n, block_size, views, tracer):
    """The blocked schedule as one mask-once chunk through ``count_chunk``.

    *e* is the users' masked input: the servers first confirm they both
    received the same one (:meth:`OpeningChannel.agree`), then it is booked
    once in this server's view.  The server regenerates its half of ``X``
    and its finish material from the dealer's seed frame
    (:func:`~repro.core.backends.blocked.mask_blocks`,
    :func:`~repro.core.backends.blocked.held_row`); server 2 also reads one
    ``row_finish`` frame of ``Z`` tiles and ``W`` per row of tiles.
    """
    channel.agree(INPUT_LABEL, e)
    if n < 3:
        return 0, 0, 0
    role = channel.roles[0]
    record_input(views, channel.roles, e)
    schedule = tile_schedule(n, block_size)
    groups = range(len(schedule))
    rows = chunk_rows(schedule, groups)

    def finish(position):
        correction = None
        if role == 2:
            arrays = _recv_blocked(dealer_ep, "row_finish", len(rows[position][2]) + 1)
            correction = (tuple(arrays[:-1]), arrays[-1])
        return held_row(schedule, groups, position, streams, correction)

    with tracer.span("mask_blocks", groups=len(schedule)):
        (seeds,) = _recv_blocked(dealer_ep, "material_seeds", 1)
        streams = held_streams(seeds, ring, schedule)
        masks = mask_blocks(streams[0].row_seeds(n), schedule, ring)
    with tracer.span(
        "backend", backend="blocked", num_users=n, block_size=block_size,
        tile_window=None,
    ) as backend_span:
        (total,) = count_chunk(
            schedule, groups, e, masks, finish, ring, views, channel, tracer=tracer
        )
        backend_span.annotate(opening_rounds=1)
    return int(total), num_candidate_triples(n), 1


# ---------------------------------------------------------------------- #
# Release execution and the server main loop
# ---------------------------------------------------------------------- #
def _run_release(role, spec, driver_ep, dealer_ep, peer_ep) -> bool:
    """One release: Max clamp (S1), the ring, count, perturb, final report.

    Returns ``False`` when the driver shut the server down in place of the
    ring frame.
    """
    started = time.perf_counter()
    n = int(spec["num_users"])
    telemetry_on = bool(spec.get("telemetry"))
    tracer = Tracer() if telemetry_on else NULL_TRACER
    views = ViewRecorder() if spec.get("record_views") else None
    driver_before = driver_ep.sent_summary()
    peer_before = peer_ep.sent_summary()

    plan = None
    if spec.get("fault_plan") and spec.get("fault_target") == f"server{role}":
        plan = FaultPlan.from_json(spec["fault_plan"])
    with install_fault_plan(plan):
        # Max — S1 computes the clamped noisy maximum from the users' noisy
        # degrees (skipped entirely on a checkpoint resume).
        if role == 1 and spec.get("run_max") and n > 0:
            meta, arrays = driver_ep.recv_expect(KIND_SHARES)
            if meta.get("phase") != "noisy_degree":
                raise WireFormatError(
                    f"expected the noisy_degree upload, got phase {meta.get('phase')!r}"
                )
            noisy_max = clamp_max_degree(arrays[0])
            driver_ep.send(
                KIND_RESULT,
                {"phase": "noisy_max_degree"},
                [np.array([noisy_max], dtype=np.float64)],
            )

        # The ring the driver derived from d'_max: every share, opening and
        # tag of the release lives in it.
        ring = recv_ring(driver_ep)
        if ring is None:
            return False
        channel = OpeningChannel(
            peer_ep,
            role=role,
            ring=ring,
            authenticate=bool(spec.get("authenticate")),
            seed=int(spec.get("seed") or 0),
            tamper_round=spec.get("tamper_round"),
        )

        # Count — the users' upload of C, the strict upper part of the
        # projected rows: on the blocked backends both servers receive the
        # masked E; otherwise S2 receives its share entries and S1
        # regenerates its own from the users' seeds.
        meta, arrays = driver_ep.recv_expect(KIND_SHARES)
        if meta.get("phase") != "adjacency_share":
            raise WireFormatError(
                f"expected the adjacency_share upload, got phase {meta.get('phase')!r}"
            )
        upload = arrays[0]
        backend = spec["backend"]
        seeded = role == 1 and not spec["masked_input"]
        expected = (
            ((n, 4), np.dtype(np.uint64)) if seeded else ((n * (n - 1) // 2,), ring.dtype)
        )
        if (upload.shape, upload.dtype) != expected:
            raise WireFormatError(
                f"server {role}'s adjacency upload must be a {expected[0]} "
                f"{expected[1]} array, got {upload.shape} {upload.dtype}"
            )
        share = server1_share(upload, ring, tracer) if seeded else upload
        if backend in ("faithful", "batched"):
            batch_size = 1 if backend == "faithful" else int(spec["batch_size"])
            total, triples, rounds = _count_mg(
                dealer_ep, channel, ring, share, n, batch_size, views, tracer
            )
        elif backend in ("matrix", "blocked"):
            total, triples, rounds = _count_blocked(
                dealer_ep, channel, ring, share, n, int(spec["block_size"]), views, tracer
            )
        else:
            raise ProtocolError(f"unknown counting backend {backend!r}")
        driver_ep.send(
            KIND_RESULT,
            {
                "stage": "count",
                "share": int(total),
                "triples": int(triples),
                "opening_rounds": int(rounds),
                "spans": tracer.roots if telemetry_on else [],
            },
        )

        # Perturb — add the noise plane to the count share, and run the
        # MAC-checked release opening against the peer.
        meta, arrays = driver_ep.recv_expect(KIND_SHARES)
        if meta.get("phase") != "noise_share":
            raise WireFormatError(
                f"expected the noise_share upload, got phase {meta.get('phase')!r}"
            )
        (noisy_share,), opened = release_opening((total,), (arrays[0],), ring, channel)

    driver_ep.send(
        KIND_RESULT,
        {
            "stage": "release",
            "noisy_share": int(noisy_share),
            "opened": int(opened),
            "rounds_checked": int(channel.rounds_checked),
            "values_checked": int(channel.values_checked),
            "views": views,
            "seconds": time.perf_counter() - started,
            "blas_threads": blas_threads(),
            "os_threads": os_threads(),
            "sent": {
                "driver": summary_delta(driver_before, driver_ep.sent_summary()),
                "peer": summary_delta(peer_before, peer_ep.sent_summary()),
            },
        },
    )
    return True


def run_server(role: int, driver_sock, dealer_sock, peer_sock) -> None:
    """Main loop of one computation-server process.

    Handshakes its three links (driver, dealer, peer — in that fixed order,
    which is what keeps the four-process handshake deadlock-free), then
    serves ``RUN`` control frames until ``SHUTDOWN`` or link EOF.  A failure
    inside a release is reported as an ``ERROR`` frame on *both* the peer
    and the driver link (so neither ever blocks on a round that will not
    come) and ends the process; an :class:`InjectedCrash` exits immediately
    with status 2, simulating the process dying mid-round.
    """
    name = f"server{int(role)}"
    driver_ep = WireEndpoint(driver_sock, name=name, peer="driver")
    dealer_ep = WireEndpoint(dealer_sock, name=name, peer="dealer")
    peer_ep = WireEndpoint(peer_sock, name=name, peer=f"server{3 - int(role)}")
    try:
        driver_ep.hello()
        dealer_ep.hello()
        peer_ep.hello()
        while True:
            try:
                meta, _ = driver_ep.recv_expect(KIND_CONTROL)
            except WireFormatError:
                break  # driver went away; nothing left to serve
            verb = meta.get("verb")
            if verb == CONTROL_SHUTDOWN:
                break
            if verb != CONTROL_RUN:
                driver_ep.send_error(
                    WireFormatError(f"{name} cannot handle control verb {verb!r}")
                )
                break
            try:
                if not _run_release(int(role), meta["spec"], driver_ep, dealer_ep, peer_ep):
                    break
            except InjectedCrash:
                os._exit(2)
            except BaseException as error:  # noqa: BLE001 - reported, then fatal
                peer_ep.send_error(error)
                driver_ep.send_error(error)
                break
    finally:
        driver_ep.close()
        dealer_ep.close()
        peer_ep.close()
