"""The user-batch driver of the process-separated runtime.

:class:`DistributedRuntime` forks the dealer and the two computation servers
as separate OS processes and wires the four parties together with six
``socketpair`` links.  It has no protocol code of its own: each release runs
the in-process engine's one Algorithm 1,
:meth:`~repro.core.cargo.Cargo._run_protocol` — Max, Project, Count, Perturb
— with a servers seam (:class:`_LinkedServers`) that sends every share
payload to the server processes as :mod:`repro.runtime.wire` frames, while
every piece of correlated randomness and every opening round crosses
between the processes directly.  The users' steps (noisy degrees,
projection, sharing, noise planes) run in the driver.

Three guarantees define the runtime:

* **Bit-identity** — the released count, the noisy maximum degree, the
  communication ledger, the recorded adversarial views, and the MAC
  counters are bit-identical to an in-process run with the same seed and
  configuration, for every counting backend and for
  :class:`~repro.core.node_dp.NodeDpCargo`.  The users' steps are the
  in-process code itself, the dealer walks the same dealing
  generators, and the servers run the backends' own counting kernels and
  the same `Max` clamp and release kernels.  The seam cross-checks each
  answer: server 1's ``d'_max`` against the driver's, the two servers'
  schedules and MAC counters against each other, and the release opening
  against its shares.
* **Ledger/wire reconciliation** — the
  :class:`~repro.crypto.protocol.CommunicationLedger` stops being a mere
  estimate: after every release the driver reconciles each ledgered
  phase's logical byte count against the payload bytes actually written to
  the transport for that phase, exactly (broadcasts reconcile as
  ``messages x physical payload``).  Framing overhead is reported
  separately in the ``transport`` summary, never mixed into protocol
  bytes.  A mismatch raises :class:`~repro.exceptions.RuntimeProcessError`.
* **Crash safety** — with a ``resilience`` checkpoint configured, the
  driver checkpoints that server 1's `Max` exchange happened, bound to the
  configuration and the graph's edge set; if a server process dies
  mid-round the run fails with :class:`RuntimeProcessError` and a fresh
  runtime resumes: the users' steps are recomputed from the seed (they are
  deterministic), only the `Max` exchange and its reconciliation are
  skipped, and the secure phases re-run to the bit-identical release.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import socket
import time
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.backends import create_backend
from repro.core.backends.base import CountResult
from repro.core.backends.blocked import block_size_for
from repro.core.cargo import Cargo, protocol_rngs
from repro.core.config import CargoConfig
from repro.core.max_degree import clamp_max_degree
from repro.core.result import CargoResult
from repro.crypto.protocol import TwoServerRuntime
from repro.crypto.secure_ops import PlainOpener
from repro.exceptions import (
    CheaterDetectedError,
    ConfigurationError,
    RuntimeProcessError,
    WireFormatError,
)
from repro.parallel.blas import limit_blas_threads
from repro.resilience import Checkpointer, resolve_resilience
from repro.runtime.dealer import run_dealer
from repro.runtime.server import run_server
from repro.runtime.wire import (
    CONTROL_RING,
    CONTROL_RUN,
    CONTROL_SHUTDOWN,
    KIND_CONTROL,
    KIND_PROVISION,
    KIND_RESULT,
    KIND_SHARES,
    WireEndpoint,
    summary_delta,
)
from repro.telemetry import resolve_telemetry
from repro.telemetry.spans import NULL_TRACER

__all__ = ["DistributedRuntime", "run_distributed"]

_BACKENDS = ("faithful", "batched", "matrix", "blocked")

#: Frame kinds whose phased payloads correspond to ledgered protocol bytes
#: (the dealer's one phased ``PROVISION`` frame is the users' input masks).
_LEDGERED_KINDS = ("SHARES", "OPEN_VALUES", "RESULT", "PROVISION")

#: The phases of S1's `Max` exchange: a checkpoint records that they crossed
#: the wire, so a resumed release neither repeats nor reconciles them.
_MAX_PHASES = ("noisy_degree", "noisy_max_degree")


def _validate_distributed_config(config: CargoConfig) -> None:
    """Reject configurations the process-separated runtime cannot honour."""
    if config.statistic != "triangles":
        raise ConfigurationError(
            "the distributed runtime currently serves the 'triangles' "
            f"statistic only, got {config.statistic!r}"
        )
    if getattr(config, "sparse", "auto") == "force":
        raise ConfigurationError(
            "sparse='force' has no distributed execution path (triangles "
            "never run sparse)"
        )
    if (getattr(config, "workers", None) or 1) > 1:
        raise ConfigurationError(
            "in-process worker pools cannot cross the process boundary; "
            "use workers=1 (or unset) for distributed runs"
        )
    if getattr(config, "tile_window", None):
        raise ConfigurationError(
            "tile_window streaming is not supported by the distributed runtime"
        )
    authenticator = getattr(config, "authenticator", None)
    if authenticator is not None and not isinstance(authenticator, PlainOpener):
        # A key-less opener checks nothing: it runs like no authenticator.
        raise ConfigurationError(
            "injected authenticators cannot be shipped to server processes; "
            "use authenticate=True instead"
        )
    if config.backend_name not in _BACKENDS:
        raise ConfigurationError(
            f"the distributed runtime has no schedule for backend "
            f"{config.backend_name!r}; supported: {', '.join(_BACKENDS)}"
        )


def _checkpoint_token(config: CargoConfig, variant: str, graph) -> str:
    """Fingerprint binding a distributed checkpoint to its configuration,
    protocol variant (the Cargo's ``backend_label``) and graph."""
    budget = config.resolved_budget()
    edges = hashlib.sha256()
    for array in graph.csr_arrays():
        edges.update(np.ascontiguousarray(array))
    payload = "|".join(
        str(part)
        for part in (
            "distributed",
            variant,
            graph.num_nodes,
            edges.hexdigest(),
            config.statistic,
            config.backend_name,
            config.batch_size,
            config.block_size,
            "derived" if config.ring is None else config.ring.mask,
            budget.epsilon1,
            budget.epsilon2,
            config.seed,
            config.authenticate,
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def _aggregate_transport(
    reports: List[Tuple[str, str, Dict[str, Dict[str, int]]]],
) -> Tuple[Dict[str, int], Dict[str, int], Dict[str, int]]:
    """Fold per-link sent-summaries into totals, per-phase and per-link payload bytes.

    The per-link map is keyed ``"sender->receiver"`` and lists every
    reported link, idle ones at zero.
    """
    totals = {"frames": 0, "payload_bytes": 0, "wire_bytes": 0}
    by_phase: Dict[str, int] = {}
    links: Dict[str, int] = {}
    for process, peer, delta in reports:
        link = f"{process}->{peer}"
        links[link] = links.get(link, 0)
        for key, counter in delta.items():
            links[link] += counter["payload_bytes"]
            kind_name, _, phase = key.partition("/")
            totals["frames"] += counter["frames"]
            totals["payload_bytes"] += counter["payload_bytes"]
            totals["wire_bytes"] += counter["wire_bytes"]
            if phase and kind_name in _LEDGERED_KINDS:
                by_phase[phase] = by_phase.get(phase, 0) + counter["payload_bytes"]
    return totals, by_phase, links


def _reconcile_ledger(
    ledger_phases: Dict[str, Dict[str, int]],
    by_phase: Dict[str, int],
    skip: Tuple[str, ...] = (),
) -> int:
    """Check every ledgered phase against the bytes the transport carried.

    Point-to-point phases must match exactly; broadcast phases
    (``noisy_max_degree``) reconcile as ``messages x physical payload``
    because one 8-byte frame logically fans out to every user.  Returns the
    total payload bytes accounted for by ledgered phases.
    """
    accounted = 0
    for phase, stats in ledger_phases.items():
        if phase in skip:
            continue
        carried = by_phase.get(phase, 0)
        accounted += carried
        if phase == "noisy_max_degree":
            matches = stats["bytes"] == stats["messages"] * carried
        else:
            matches = stats["bytes"] == carried
        if not matches:
            raise RuntimeProcessError(
                f"ledger/wire reconciliation failed for phase {phase!r}: the "
                f"ledger records {stats['bytes']} logical bytes over "
                f"{stats['messages']} messages but the transport carried "
                f"{carried} payload bytes"
            )
    return accounted


class DistributedRuntime:
    """A persistent four-process CARGO runtime.

    Forks the dealer and both servers once; every :meth:`run` call then
    executes one full release over the standing processes (the per-release
    cost is the protocol itself, not process startup).  Use as a context
    manager, or call :meth:`close` explicitly to shut the processes down.

    Parameters
    ----------
    config:
        The run configuration; defaults to ``CargoConfig()``.  Statistics
        other than triangles, worker pools, tile windows and
        authenticators that check MACs are rejected (a key-less
        :class:`~repro.crypto.secure_ops.PlainOpener` runs like none) — see
        ``docs/distributed-runtime.md`` for the supported envelope.
    fault_plan / fault_target:
        Optional fault-injection schedule (JSON from
        :meth:`~repro.resilience.faults.FaultPlan.to_json`) installed in the
        named process (``"server1"`` / ``"server2"``) for chaos tests.
    tamper:
        Optional ``(role, round_index)`` pair instructing that server to lie
        on the wire in the given opening round — the active-adversary probe
        the MAC check must catch.
    """

    def __init__(
        self,
        config: Optional[CargoConfig] = None,
        fault_plan: Optional[str] = None,
        fault_target: Optional[str] = None,
        tamper: Optional[Tuple[int, int]] = None,
    ) -> None:
        self._config = config if config is not None else CargoConfig()
        _validate_distributed_config(self._config)
        self._fault_plan = fault_plan
        self._fault_target = fault_target
        self._tamper = tamper
        self._closed = False
        self._broken = False
        self._processes: List = []
        self._spawn_processes()

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    def _spawn_processes(self) -> None:
        ctx = multiprocessing.get_context("fork")
        d_s1, s1_d = socket.socketpair()
        d_s2, s2_d = socket.socketpair()
        d_dl, dl_d = socket.socketpair()
        s1_s2, s2_s1 = socket.socketpair()
        dl_s1, s1_dl = socket.socketpair()
        dl_s2, s2_dl = socket.socketpair()
        every = [d_s1, s1_d, d_s2, s2_d, d_dl, dl_d, s1_s2, s2_s1, dl_s1, s1_dl, dl_s2, s2_dl]

        def entry(target, own):
            # Each process closes every link end it does not own, so a dead
            # process is observed as EOF by every peer (no hung recvs), and
            # caps its BLAS at one thread so the three processes do not
            # oversubscribe the host's cores.
            def main() -> None:
                keep = {id(sock) for sock in own}
                for sock in every:
                    if id(sock) not in keep:
                        sock.close()
                limit_blas_threads(1)
                target(*own)

            return main

        plans = [
            (entry(lambda a, b, c: run_server(1, a, b, c), (s1_d, s1_dl, s1_s2)), "server1"),
            (entry(lambda a, b, c: run_server(2, a, b, c), (s2_d, s2_dl, s2_s1)), "server2"),
            (entry(run_dealer, (dl_d, dl_s1, dl_s2)), "dealer"),
        ]
        for main, name in plans:
            process = ctx.Process(target=main, name=f"repro-{name}", daemon=True)
            process.start()
            self._processes.append(process)
        for sock in (s1_d, s1_dl, s1_s2, s2_d, s2_dl, s2_s1, dl_d, dl_s1, dl_s2):
            sock.close()
        self._s1 = WireEndpoint(d_s1, name="driver", peer="server1")
        self._s2 = WireEndpoint(d_s2, name="driver", peer="server2")
        self._dealer = WireEndpoint(d_dl, name="driver", peer="dealer")
        self._s1.hello()
        self._s2.hello()
        self._dealer.hello()

    def __enter__(self) -> "DistributedRuntime":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the dealer and server processes and close every link."""
        if self._closed:
            return
        self._closed = True
        for endpoint in (self._s1, self._s2, self._dealer):
            try:
                endpoint.send(KIND_CONTROL, {"verb": CONTROL_SHUTDOWN})
            except Exception:  # noqa: BLE001 - link may already be dead
                pass
            endpoint.close()
        for process in self._processes:
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2)

    def _fail(self, error: BaseException) -> RuntimeProcessError:
        """Mark the runtime unusable after a mid-run failure and wrap it."""
        self._broken = True
        self.close()
        if isinstance(error, RuntimeProcessError):
            return error
        return RuntimeProcessError(f"distributed run failed: {error}")

    # ------------------------------------------------------------------ #
    # One release
    # ------------------------------------------------------------------ #
    def run(self, graph, views=None) -> CargoResult:
        """Execute one full release of *graph* over the standing processes."""
        return self.release(Cargo(self._config), graph, views=views)

    def release(self, cargo: Cargo, graph, views=None) -> CargoResult:
        """Run *cargo*'s Algorithm 1 with the standing processes as its servers.

        *cargo* supplies the protocol variant (its `Max` estimator and
        `Perturb` sensitivity — :class:`~repro.core.node_dp.NodeDpCargo`
        runs here too); *views*, when given, receives both servers'
        recorded views.  *cargo* must run on this runtime's own
        configuration object: the server specs, dealer stream and checkpoint
        are built from it.  A detected cheat, a release no ring can hold, or
        a failed process poisons the runtime.
        """
        if cargo.config is not self._config:
            raise ConfigurationError(
                "release() needs a Cargo built on this DistributedRuntime's own config"
            )
        if self._closed or self._broken:
            raise RuntimeProcessError(
                "this DistributedRuntime is closed; create a fresh one"
            )
        try:
            servers = _LinkedServers(self, cargo.backend_label, graph, views)
            return cargo._run_protocol(graph, servers=servers, views=views)
        except (CheaterDetectedError, ConfigurationError):
            # The parties are mid-release (a refused ring leaves them waiting
            # for its frame), so they are shut down.
            self._broken = True
            self.close()
            raise
        except (WireFormatError, RuntimeProcessError, OSError, EOFError) as error:
            raise self._fail(error) from error


class _LinkedServers:
    """One release's servers seam over a :class:`DistributedRuntime`'s links.

    Implements the calls :meth:`~repro.core.cargo.Cargo._run_protocol` makes
    where the two servers act (see :class:`~repro.core.cargo.LocalServers`)
    by shipping the users' uploads to the server processes and reading their
    answers back, cross-checking each answer on the way.  Constructing it
    starts the release: it loads a resume checkpoint, if any, and sends the
    ``RUN`` specs.  Once `Max` is done, :meth:`use_ring` sends every party
    the release's ring, and the dealer deals while the driver runs the
    users' steps.
    """

    def __init__(self, owner: DistributedRuntime, variant: str, graph, views) -> None:
        config = owner._config
        self._started = time.perf_counter()
        self._config = config
        self._views = views
        self._s1, self._s2, self._dealer = owner._s1, owner._s2, owner._dealer
        self._telemetry = resolve_telemetry(config)
        n = graph.num_nodes
        # The ledger is always kept — it is the reconciliation oracle — but
        # the result surfaces it only when the caller asked for it.
        self.runtime = TwoServerRuntime(n)

        resilience = resolve_resilience(config)
        self._checkpointer = None
        self._resumed: Tuple[str, ...] = ()
        if resilience.checkpoint_path is not None:
            self._checkpointer = Checkpointer(
                resilience.checkpoint_path,
                kind="distributed",
                token=_checkpoint_token(config, variant, graph),
                retry=resilience.retry,
                metrics=self._telemetry.metrics if self._telemetry.enabled else None,
            )
            if resilience.resume and self._checkpointer.exists():
                self._resumed = tuple(self._checkpointer.load()["phases"])

        block_size = block_size_for(config.backend_name, config)
        self._ring = None
        spec = {
            "backend": config.backend_name,
            "masked_input": create_backend(config.counting_backend, config=config).masked_input,
            "batch_size": config.batch_size,
            "block_size": block_size,
            "authenticate": bool(config.authenticate),
            "seed": int(getattr(config, "seed", 0) or 0),
            "record_views": views is not None,
            "telemetry": self._telemetry.enabled,
            "num_users": n,
            "run_max": not self._resumed,
        }
        specs = {1: dict(spec), 2: dict(spec)}
        if owner._tamper is not None:
            role, round_index = owner._tamper
            specs[int(role)]["tamper_round"] = int(round_index)
        if owner._fault_plan is not None and owner._fault_target in ("server1", "server2"):
            target_role = 1 if owner._fault_target == "server1" else 2
            specs[target_role]["fault_plan"] = owner._fault_plan
            specs[target_role]["fault_target"] = owner._fault_target
        dealer_spec = {
            "backend": config.backend_name,
            "num_users": n,
            "batch_size": config.batch_size,
            "block_size": block_size,
            "dealer_rng": protocol_rngs(config)[3],
        }
        self._sent_before = {
            "server1": self._s1.sent_summary(),
            "server2": self._s2.sent_summary(),
            "dealer": self._dealer.sent_summary(),
        }
        self._s1.send(KIND_CONTROL, {"verb": CONTROL_RUN, "spec": specs[1]})
        self._s2.send(KIND_CONTROL, {"verb": CONTROL_RUN, "spec": specs[2]})
        self._dealer.send(KIND_CONTROL, {"verb": CONTROL_RUN, "spec": dealer_spec})

    def max_degree(self, noisy_degrees) -> float:
        """S1 computes ``d'_max`` from the uploaded noisy degrees.

        The driver cross-checks it against its own clamp.  A resumed release
        skips the exchange: S1 answered it before the crash, and the users'
        steps recompute the same value from the seed.
        """
        noisy_max = clamp_max_degree(noisy_degrees)
        if self._resumed:
            return noisy_max
        noisy_array = np.asarray(noisy_degrees, dtype=np.float64)
        self._s1.send(KIND_SHARES, {"phase": "noisy_degree"}, [noisy_array])
        meta, arrays = self._s1.recv_expect(KIND_RESULT)
        if meta.get("phase") != "noisy_max_degree":
            raise RuntimeProcessError(
                f"server1 answered the Max phase with {meta.get('phase')!r}"
            )
        remote_max = float(arrays[0][0])
        if remote_max != noisy_max:
            raise RuntimeProcessError(
                f"server1 computed d'_max={remote_max!r}, the driver expected "
                f"{noisy_max!r}"
            )
        if self._checkpointer is not None:
            self._checkpointer.save({"phases": _MAX_PHASES})
        return noisy_max

    def use_ring(self, ring) -> None:
        """Send both servers and the dealer the release's ring, fixed after `Max`.

        The servers count and release in it; the dealer deals in it.
        """
        self._ring = ring
        meta = {"verb": CONTROL_RING, "bits": ring.bits}
        for endpoint in (self._s1, self._s2, self._dealer):
            endpoint.send(KIND_CONTROL, meta)

    def count(self, statistic, projected, *, sparse, config, share_rng, dealer_rng, views):
        """Run the backend's users' step; both servers run the backend's kernel.

        On the mask-once backends the users mask ``C`` with the row seeds
        of the dealer's ``input_masks`` frame and both servers get ``E``;
        otherwise server 1 gets the users' 32-byte seeds and expands its
        share of ``C`` itself, and server 2 gets its packed share.

        Only dense triangles reach here (``_validate_distributed_config``);
        the dealer process deals from its own copy of *dealer_rng*, so the
        driver's backend deals nothing.
        """
        telemetry = self._telemetry
        share_tracer = (
            telemetry.tracer
            if telemetry.enabled and config.track_communication
            else NULL_TRACER
        )
        # The backend's users' step runs here, in the driver, in the ring
        # *config* pins; the dealer process deals the material, so this
        # instance deals nothing.
        counter = create_backend(config.counting_backend, config=config)
        if counter.masked_input:
            upload = counter.upload(
                projected, share_rng, self.runtime, share_tracer,
                input_seeds=self._input_seeds(),
            )
        else:
            upload = counter.upload(projected, share_rng, self.runtime, share_tracer)
        self._s1.send(KIND_SHARES, {"phase": "adjacency_share"}, [upload.sent[0]])
        self._s2.send(KIND_SHARES, {"phase": "adjacency_share"}, [upload.sent[1]])
        meta1, _ = self._s1.recv_expect(KIND_RESULT)
        meta2, _ = self._s2.recv_expect(KIND_RESULT)
        if meta1.get("stage") != "count" or meta2.get("stage") != "count":
            raise RuntimeProcessError(
                "servers answered the Count phase out of order: "
                f"{meta1.get('stage')!r} / {meta2.get('stage')!r}"
            )
        if (
            meta1["triples"] != meta2["triples"]
            or meta1["opening_rounds"] != meta2["opening_rounds"]
        ):
            raise RuntimeProcessError(
                "the two servers disagree on the counting schedule: "
                f"{meta1['triples']}/{meta1['opening_rounds']} vs "
                f"{meta2['triples']}/{meta2['opening_rounds']}"
            )
        if telemetry.enabled and meta1.get("spans"):
            # Server 1's span tree is the canonical backend trace — both
            # servers execute the identical schedule.
            telemetry.tracer.current().children.extend(meta1["spans"])
        return CountResult(
            share1=int(meta1["share"]),
            share2=int(meta2["share"]),
            num_triples_processed=int(meta1["triples"]),
            opening_rounds=int(meta1["opening_rounds"]),
            ring=self._ring,
        )

    def _input_seeds(self) -> np.ndarray:
        """The users' input-mask seeds: the dealer's one frame to the driver."""
        meta, arrays = self._dealer.recv_expect(KIND_PROVISION)
        if meta.get("phase") != "input_masks" or len(arrays) != 1:
            raise RuntimeProcessError(
                f"expected the dealer's input_masks frame, got phase "
                f"{meta.get('phase')!r} with {len(arrays)} arrays"
            )
        return arrays[0]

    def release(self, count_result, planes):
        """Each server adds its plane to its count share, and they open."""
        ring = self._ring
        noise_meta = {"phase": "noise_share"}
        self._s1.send(KIND_SHARES, noise_meta, [planes[0]])
        self._s2.send(KIND_SHARES, noise_meta, [planes[1]])
        final1, _ = self._s1.recv_expect(KIND_RESULT)
        final2, _ = self._s2.recv_expect(KIND_RESULT)
        if final1.get("stage") != "release" or final2.get("stage") != "release":
            raise RuntimeProcessError(
                "servers answered the Perturb phase out of order: "
                f"{final1.get('stage')!r} / {final2.get('stage')!r}"
            )
        noisy_shares = (int(final1["noisy_share"]), int(final2["noisy_share"]))
        opened = int(final1["opened"])
        if opened != int(final2["opened"]) or opened != ring.add(*noisy_shares):
            raise RuntimeProcessError(
                "the release opening does not reconstruct: "
                f"{final1['opened']} / {final2['opened']} vs shares "
                f"{noisy_shares[0]} + {noisy_shares[1]}"
            )
        self._finals = (final1, final2)
        return noisy_shares, opened

    def finish(self):
        """Views, MAC counters, ledger/wire reconciliation, transport section."""
        final1, final2 = self._finals
        # Dealer report (sent as soon as its replay finished, read last).
        dealer_meta, _ = self._dealer.recv_expect(KIND_RESULT)
        if dealer_meta.get("stage") != "dealer":
            raise RuntimeProcessError(
                f"dealer answered with stage {dealer_meta.get('stage')!r}"
            )

        # Adversarial views and MAC counters, merged in server order.
        if self._views is not None:
            self._views.merge_from(final1["views"])
            self._views.merge_from(final2["views"])
        authenticator = None
        if self._config.authenticate:
            if (
                final1["rounds_checked"] != final2["rounds_checked"]
                or final1["values_checked"] != final2["values_checked"]
            ):
                raise RuntimeProcessError(
                    "the two servers disagree on the MAC counters: "
                    f"{final1['rounds_checked']}/{final1['values_checked']} vs "
                    f"{final2['rounds_checked']}/{final2['values_checked']}"
                )
            authenticator = SimpleNamespace(
                rounds_checked=int(final1["rounds_checked"]),
                values_checked=int(final1["values_checked"]),
            )

        before = self._sent_before
        reports: List[Tuple[str, str, Dict]] = [
            ("driver", "server1", summary_delta(before["server1"], self._s1.sent_summary())),
            ("driver", "server2", summary_delta(before["server2"], self._s2.sent_summary())),
            ("driver", "dealer", summary_delta(before["dealer"], self._dealer.sent_summary())),
            ("server1", "driver", final1["sent"]["driver"]),
            ("server1", "server2", final1["sent"]["peer"]),
            ("server2", "driver", final2["sent"]["driver"]),
            ("server2", "server1", final2["sent"]["peer"]),
            ("dealer", "driver", dealer_meta["sent"]["driver"]),
            ("dealer", "server1", dealer_meta["sent"]["server1"]),
            ("dealer", "server2", dealer_meta["sent"]["server2"]),
        ]
        totals, by_phase, links = _aggregate_transport(reports)
        accounted = _reconcile_ledger(
            self.runtime.ledger.phase_summary(), by_phase, skip=self._resumed
        )
        transport = {
            "frames": totals["frames"],
            "payload_bytes": totals["payload_bytes"],
            "wire_bytes": totals["wire_bytes"],
            "overhead_bytes": totals["wire_bytes"] - totals["payload_bytes"],
            "unledgered_payload_bytes": totals["payload_bytes"] - accounted,
            "links": links,
            "processes": {
                "driver": time.perf_counter() - self._started,
                "server1": float(final1.get("seconds", 0.0)),
                "server2": float(final2.get("seconds", 0.0)),
                "dealer": float(dealer_meta.get("seconds", 0.0)),
            },
            "blas_threads": {
                "server1": final1.get("blas_threads"),
                "server2": final2.get("blas_threads"),
                "dealer": dealer_meta.get("blas_threads"),
            },
            "os_threads": {
                "server1": final1.get("os_threads"),
                "server2": final2.get("os_threads"),
                "dealer": dealer_meta.get("os_threads"),
            },
        }
        return authenticator, transport


def run_distributed(
    graph,
    config: Optional[CargoConfig] = None,
    views=None,
    fault_plan: Optional[str] = None,
    fault_target: Optional[str] = None,
    tamper: Optional[Tuple[int, int]] = None,
) -> CargoResult:
    """One-shot convenience: fork the runtime, run one release, shut down."""
    with DistributedRuntime(
        config,
        fault_plan=fault_plan,
        fault_target=fault_target,
        tamper=tamper,
    ) as runtime:
        return runtime.run(graph, views=views)
