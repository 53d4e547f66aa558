"""Server role drivers for the process-separated runtime.

Each computation server runs :func:`run_server` in its own OS process.  A
server owns three links — driver, dealer, and its peer server — and evaluates
*only its role's side* of the secure protocol: it receives its half of every
share payload and every piece of correlated randomness, performs the local
ring arithmetic the in-process backends perform for that role, and exchanges
opening rounds directly with its peer over :class:`~repro.runtime.wire`
frames (one frame per opening round, never one per element).

Bit-exactness contract
----------------------
The count loops below mirror the in-process backends
(:mod:`repro.core.backends.faithful` / ``matrix`` / ``blocked``) statement
for statement: the same gather schedule, the same tile schedule
(:func:`~repro.core.backends.blocked.tile_schedule`), the same ring
operations in the same order.  Because every ring operation is exact modulo
``2^l``, the shares each server derives — and therefore every opened value
that crosses the wire — are bit-identical to what the in-process engine
opens for the same seed and configuration.  The local combine that ends
each secure operation is not mirrored but shared: the servers call the
role-local combines of :mod:`repro.crypto.secure_ops` that the in-process
operations call for both roles.

Authenticated openings re-derive the in-process MAC scheme
(:mod:`repro.crypto.mac`) in two-sided form: both servers derive the same
key and the same lockstep tag stream from the run seed (the trusted-dealer
shortcut the in-process authenticator already takes), each computes its tag
share locally, and the swapped tag shares must cancel —
``sigma_1 + sigma_2 = alpha_1 * (opened_2 - opened_1)``, which is zero
exactly when both servers opened the same values.  A server that lies on
the wire is detected by both sides and the run aborts with the same typed
:class:`~repro.exceptions.CheaterDetectedError` message the in-process
authenticator raises.
"""

from __future__ import annotations

import os
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.backends.base import num_candidate_triples, strict_upper
from repro.core.backends.blocked import tile_schedule
from repro.core.backends.faithful import _gather_schedule
from repro.crypto.beaver import BeaverTriple
from repro.crypto.mac import MacKey, _TAG_DOMAIN
from repro.crypto.multiplication_groups import MG_FIELDS, MultiplicationGroup
from repro.crypto.secure_ops import (
    beaver_matrix_combine,
    beaver_pair_combine,
    check_matrix_triple,
    multiplication_group_combine,
)
from repro.crypto.views import ViewRecorder
from repro.exceptions import CheaterDetectedError, ProtocolError, WireFormatError
from repro.resilience.faults import FaultPlan, InjectedCrash, fault_point, install_fault_plan
from repro.runtime.wire import (
    CONTROL_RUN,
    CONTROL_SHUTDOWN,
    KIND_CONTROL,
    KIND_OPEN_MAC,
    KIND_OPEN_VALUES,
    KIND_PROVISION,
    KIND_RESULT,
    KIND_SHARES,
    WireEndpoint,
    summary_delta,
)
from repro.telemetry.spans import NULL_TRACER, Tracer
from repro.utils.rng import derive_rng, stable_seed_from_name

__all__ = ["OpeningChannel", "run_server"]


class OpeningChannel:
    """One server's side of the peer-to-peer opening rounds.

    Every interactive secure operation funnels its opening through
    :meth:`exchange`: the server's local mask-differences go out in one
    ``OPEN_VALUES`` frame, the peer's arrive in one, and the opened values
    are their ring sum.  With ``authenticate=True`` each round is followed
    by one ``OPEN_MAC`` tag-share swap and the batched SPDZ-style check of
    :mod:`repro.crypto.mac` — same key derivation, same lockstep tag
    stream, same error messages, so the MAC counters and any cheater abort
    are indistinguishable from an in-process authenticated run.

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
        self._endpoint = endpoint
        self._role = int(role)
        self._ring = ring
        self._authenticate = bool(authenticate)
        self._tamper_round = None if tamper_round is None else int(tamper_round)
        self._rounds_started = 0
        self.rounds_checked = 0
        self.values_checked = 0
        if self._authenticate:
            # Both servers derive the same key and tag stream from the run
            # seed — the distributed form of the in-process trusted-dealer
            # shortcut (the dealer already knows every secret it deals).
            self._key = MacKey.generate(int(seed), ring)
            self._tag_rng = derive_rng(stable_seed_from_name(_TAG_DOMAIN, int(seed)))

    def exchange(self, label: str, shares: Sequence, phase: Optional[str] = None) -> List:
        """Open one round of this server's *shares* against the peer's.

        Mirrors ``OpeningAuthenticator.exchange`` flattening: scalars and
        arrays concatenate into one value vector per round, and the opened
        results come back with their original shapes (scalars as ints).
        *phase* overrides the frame's accounting phase (the release opening
        is labelled ``release_opening`` but ledgered as
        ``noisy_count_share``); it defaults to the label.
        """
        fault_point("runtime.round")
        ring = self._ring
        parts: List[np.ndarray] = []
        layout: List[Tuple[bool, Tuple[int, ...], int]] = []
        for share in shares:
            scalar = not isinstance(share, np.ndarray)
            arr = np.atleast_1d(np.asarray(share, dtype=ring.dtype))
            layout.append((scalar, arr.shape, arr.size))
            parts.append(arr.ravel())
        values = np.concatenate(parts) if len(parts) > 1 else parts[0].ravel()
        total = int(values.size)
        round_index = self._rounds_started
        self._rounds_started += 1

        outbound = values
        if self._tamper_round is not None and self._tamper_round == round_index:
            # Lie on the wire only: the local combination keeps the true
            # values, so the inconsistency lives purely in the transcript.
            outbound = values.copy()
            outbound[0] = ring.add(int(outbound[0]), 1)

        meta = {"label": label, "round": round_index, "phase": phase or label}
        peer_meta, received = self._swap(KIND_OPEN_VALUES, meta, outbound)
        peer_role = 3 - self._role
        if peer_meta.get("label") != label or peer_meta.get("round") != round_index:
            raise WireFormatError(
                f"opening round desync with server {peer_role}: expected "
                f"round {round_index} ({label!r}), got round "
                f"{peer_meta.get('round')!r} ({peer_meta.get('label')!r})"
            )
        if received.shape != (total,):
            raise CheaterDetectedError(
                f"opening round {round_index} ({label!r}): server {peer_role} "
                f"sent a malformed round (expected {total} values, got values "
                f"{received.shape}) — truncation detected",
                label=label,
                round_index=round_index,
            )
        if received.dtype != ring.dtype:
            raise CheaterDetectedError(
                f"opening round {round_index} ({label!r}): server {peer_role} "
                f"sent dtype {received.dtype}, expected {ring.dtype}",
                label=label,
                round_index=round_index,
            )
        opened = ring.add(values, received)

        if self._authenticate:
            # Lockstep tag shares: both servers draw the identical tags1
            # vector, so the swapped sigmas cancel iff both opened the same
            # values.  sigma1 + sigma2 = alpha1 * (opened_2 - opened_1).
            tags1 = ring.random_array(total, self._tag_rng)
            if self._role == 1:
                sigma_own = ring.sub(tags1, ring.mul(self._key.alpha1, opened))
            else:
                tags2 = ring.sub(ring.mul(self._key.alpha(ring), opened), tags1)
                sigma_own = ring.sub(tags2, ring.mul(self._key.alpha2, opened))
            mac_meta = {"label": label, "round": round_index}
            _, sigma_theirs = self._swap(KIND_OPEN_MAC, mac_meta, sigma_own)
            if sigma_theirs.shape != (total,) or sigma_theirs.dtype != ring.dtype:
                raise CheaterDetectedError(
                    f"opening round {round_index} ({label!r}): server "
                    f"{peer_role} sent a malformed tag share — truncation "
                    "detected",
                    label=label,
                    round_index=round_index,
                )
            residual = ring.add(sigma_own, sigma_theirs)
            if np.any(residual):
                position = int(np.flatnonzero(residual)[0])
                raise CheaterDetectedError(
                    f"MAC check failed in opening round {round_index} "
                    f"({label!r}): {int(np.count_nonzero(residual))} of "
                    f"{total} opened values carry inconsistent tags "
                    f"(first at position {position}) — a server cheated",
                    label=label,
                    round_index=round_index,
                )
            self.rounds_checked += 1
            self.values_checked += total

        results: List = []
        offset = 0
        for scalar, shape, size in layout:
            chunk = opened[offset : offset + size]
            offset += size
            results.append(int(chunk[0]) if scalar else chunk.reshape(shape))
        return results

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
# Role-side secure operations (one server's half of repro.crypto.secure_ops)
# ---------------------------------------------------------------------- #
def _multiply_pair(channel, role, ring, a, b, triple, views):
    """This role's side of ``secure_multiply_pair`` (one Beaver opening)."""
    e, f = channel.exchange(
        "beaver_opening", [ring.sub(a, triple.x), ring.sub(b, triple.y)]
    )
    if views is not None:
        views.observe(role, "beaver_opening", (e, f))
    return beaver_pair_combine(role, e, f, triple, ring)


def _multiply_triple(channel, role, ring, a, b, c, mg, views):
    """This role's side of ``secure_multiply_triple`` (Theorem 1)."""
    e, f, g = channel.exchange(
        "mg_opening", [ring.sub(a, mg.x), ring.sub(b, mg.y), ring.sub(c, mg.z)]
    )
    if views is not None:
        views.observe(role, "mg_opening", (e, f, g))
    return multiplication_group_combine(role, e, f, g, mg, ring)


def _matrix_multiply(channel, role, ring, a, b, triple, views):
    """This role's side of ``secure_matrix_multiply`` (matrix Beaver)."""
    a = np.asarray(a, dtype=ring.dtype)
    b = np.asarray(b, dtype=ring.dtype)
    check_matrix_triple(triple, a, b)
    e, f = channel.exchange(
        "matrix_beaver_opening", [ring.sub(a, triple.x), ring.sub(b, triple.y)]
    )
    if views is not None:
        views.observe(role, "matrix_beaver_opening", (e, f))
    return beaver_matrix_combine(role, e, f, triple, ring)


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


def _recv_triple(endpoint: WireEndpoint, label: str) -> BeaverTriple:
    """One Beaver-triple half (``matrix_triple`` / ``vector_triple``)."""
    meta, arrays = endpoint.recv_expect(KIND_PROVISION)
    if meta.get("label") != label or len(arrays) != 3:
        raise WireFormatError(
            f"expected a {label} provisioning frame, got label "
            f"{meta.get('label')!r} with {len(arrays)} arrays"
        )
    return BeaverTriple(x=arrays[0], y=arrays[1], z=arrays[2])


# ---------------------------------------------------------------------- #
# Count phase — one role's half of each backend schedule
# ---------------------------------------------------------------------- #
def _count_mg(dealer_ep, channel, ring, share, role, batch_size, views, tracer):
    """The faithful/batched schedule for this role's share matrix."""
    num_users = share.shape[0]
    total = 0
    triples_processed = 0
    opening_rounds = 0
    with tracer.span(
        "backend",
        backend="faithful" if batch_size == 1 else "batched",
        num_users=num_users,
        batch_size=batch_size,
        candidates=num_candidate_triples(num_users),
    ) as backend_span:
        for size, rows, cols in _gather_schedule(num_users, batch_size):
            gathered = share[rows, cols].reshape(3, size)
            group = _recv_group(dealer_ep)
            product = _multiply_triple(
                channel, role, ring, gathered[0], gathered[1], gathered[2], group, views
            )
            total = ring.add(total, ring.sum(product))
            triples_processed += size
            opening_rounds += 1
        backend_span.annotate(opening_rounds=opening_rounds)
    return int(total), triples_processed, opening_rounds


def _count_matrix(dealer_ep, channel, ring, share, role, views, tracer):
    """The monolithic matrix schedule for this role's share matrix."""
    n = share.shape[0]
    if n < 3:
        return 0, 0, 0
    num_triples = num_candidate_triples(n)
    with tracer.span("backend", backend="matrix", num_users=n, candidates=num_triples):
        c = strict_upper(share)
        with tracer.span("offline"):
            matrix_triple = _recv_triple(dealer_ep, "matrix_triple")
            elementwise_triple = _recv_triple(dealer_ep, "vector_triple")
        with tracer.span("online", opening_rounds=2):
            m = _matrix_multiply(channel, role, ring, c.T.copy(), c, matrix_triple, views)
            prod = _multiply_pair(
                channel, role, ring, c, strict_upper(m), elementwise_triple, views
            )
            total = ring.sum(prod)
    return int(total), num_triples, 2


def _count_blocked(dealer_ep, channel, ring, share, role, block_size, views, tracer):
    """The blocked tile schedule for this role's share matrix."""
    n = share.shape[0]
    if n < 3:
        return 0, 0, 0
    total = 0
    opening_rounds = 0
    with tracer.span(
        "backend", backend="blocked", num_users=n, block_size=block_size,
        tile_window=None,
    ) as backend_span:
        for j0, j1, k0, k1, i_tiles in tile_schedule(n, block_size):
            with tracer.span(
                "tile_group", j0=j0, k0=k0, opening_rounds=len(i_tiles) + 1
            ):
                m = np.zeros((j1 - j0, k1 - k0), dtype=ring.dtype)
                for i0, i1 in i_tiles:
                    left = np.ascontiguousarray(
                        strict_upper(share[i0:i1, j0:j1], i0, j0).T
                    )
                    right = strict_upper(share[i0:i1, k0:k1], i0, k0)
                    tile_triple = _recv_triple(dealer_ep, "matrix_triple")
                    partial = _matrix_multiply(
                        channel, role, ring, left, right, tile_triple, views
                    )
                    m = ring.add(m, partial)
                c_tile = strict_upper(share[j0:j1, k0:k1], j0, k0)
                elementwise_triple = _recv_triple(dealer_ep, "vector_triple")
                prod = _multiply_pair(
                    channel, role, ring, c_tile, strict_upper(m, j0, k0),
                    elementwise_triple, views,
                )
                total = ring.add(total, ring.sum(prod))
            opening_rounds += len(i_tiles) + 1
        backend_span.annotate(opening_rounds=opening_rounds)
    return int(total), num_candidate_triples(n), opening_rounds


# ---------------------------------------------------------------------- #
# Release execution and the server main loop
# ---------------------------------------------------------------------- #
def _run_release(role, spec, driver_ep, dealer_ep, peer_ep) -> None:
    """One release: Max clamp (S1), count, perturb, final report."""
    started = time.perf_counter()
    ring = spec["ring"]
    n = int(spec["num_users"])
    telemetry_on = bool(spec.get("telemetry"))
    tracer = Tracer() if telemetry_on else NULL_TRACER
    views = ViewRecorder() if spec.get("record_views") else None
    channel = OpeningChannel(
        peer_ep,
        role=role,
        ring=ring,
        authenticate=bool(spec.get("authenticate")),
        seed=int(spec.get("seed") or 0),
        tamper_round=spec.get("tamper_round"),
    )
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
            noisy = np.asarray(arrays[0], dtype=np.float64)
            noisy_max = float(np.max(noisy))
            noisy_max = min(noisy_max, float(n - 1) if n > 1 else 1.0)
            noisy_max = max(noisy_max, 1.0)
            driver_ep.send(
                KIND_RESULT,
                {"phase": "noisy_max_degree"},
                [np.array([noisy_max], dtype=np.float64)],
            )

        # Count — this role's share of the projected adjacency matrix.
        meta, arrays = driver_ep.recv_expect(KIND_SHARES)
        if meta.get("phase") != "adjacency_share":
            raise WireFormatError(
                f"expected the adjacency_share upload, got phase {meta.get('phase')!r}"
            )
        share = arrays[0]
        if share.shape != (n, n) or share.dtype != ring.dtype:
            raise WireFormatError(
                f"adjacency share must be a ({n}, {n}) {ring.dtype} matrix, "
                f"got {share.shape} {share.dtype}"
            )
        backend = spec["backend"]
        if backend in ("faithful", "batched"):
            batch_size = 1 if backend == "faithful" else int(spec["batch_size"])
            total, triples, rounds = _count_mg(
                dealer_ep, channel, ring, share, role, batch_size, views, tracer
            )
        elif backend == "matrix":
            total, triples, rounds = _count_matrix(
                dealer_ep, channel, ring, share, role, views, tracer
            )
        elif backend == "blocked":
            total, triples, rounds = _count_blocked(
                dealer_ep, channel, ring, share, role, int(spec["block_size"]),
                views, tracer,
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

        # Perturb — aggregate the noise plane, lift the count share, and run
        # the MAC-checked release opening against the peer.
        meta, arrays = driver_ep.recv_expect(KIND_SHARES)
        if meta.get("phase") != "noise_share":
            raise WireFormatError(
                f"expected the noise_share upload, got phase {meta.get('phase')!r}"
            )
        factor = int(meta["factor"])
        plane = arrays[0]
        scaled = ring.mul(ring.encode(int(total)), factor)
        noisy_share = ring.add(scaled, ring.sum(plane))
        (opened,) = channel.exchange(
            "release_opening", [int(noisy_share)], phase="noisy_count_share"
        )

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
            "sent": {
                "driver": summary_delta(driver_before, driver_ep.sent_summary()),
                "peer": summary_delta(peer_before, peer_ep.sent_summary()),
            },
        },
    )


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
                _run_release(int(role), meta["spec"], driver_ep, dealer_ep, peer_ep)
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
