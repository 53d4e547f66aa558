"""The user-batch driver of the process-separated runtime.

:class:`DistributedRuntime` forks the dealer and the two computation servers
as separate OS processes, wires the four parties together with six
``socketpair`` links, and then drives the same four protocol phases the
in-process :class:`~repro.core.cargo.Cargo` orchestrator drives — Max,
Project, Count, Perturb — except that every share payload, every piece of
correlated randomness, and every opening round now physically crosses a
process boundary as :mod:`repro.runtime.wire` frames.

Three guarantees define the runtime:

* **Bit-identity** — the released count, the noisy maximum degree, the
  communication ledger, the recorded adversarial views, and the MAC
  counters are bit-identical to an in-process run with the same seed and
  configuration, for every counting backend.  The driver re-derives the
  same RNG substreams, the dealer replays the same provisioning order, and
  the servers execute the same ring arithmetic in the same order.
* **Ledger/wire reconciliation** — the
  :class:`~repro.crypto.protocol.CommunicationLedger` stops being a mere
  estimate: after every release the driver reconciles each ledgered
  phase's logical byte count against the payload bytes actually written to
  the transport for that phase, exactly (broadcasts reconcile as
  ``messages x physical payload``).  Framing overhead is reported
  separately in the ``transport`` summary, never mixed into protocol
  bytes.  A mismatch raises :class:`~repro.exceptions.RuntimeProcessError`.
* **Crash safety** — with a ``resilience`` checkpoint configured, the
  driver checkpoints the user-phase outputs (noisy degrees, projection)
  after Project; if a server process dies mid-round the run fails with
  :class:`RuntimeProcessError` and a fresh runtime resumes from the
  checkpoint, skipping the user-facing Max exchange and re-running the
  secure phases to the bit-identical release.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import socket
import time
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.cargo import (
    feed_run_telemetry,
    record_cheater_event,
    resolve_sparse_mode,
)
from repro.core.config import CargoConfig
from repro.core.backends.base import CountResult
from repro.core.backends.base import share_adjacency_rows
from repro.core.max_degree import MaxDegreeEstimator
from repro.core.perturbation import DistributedPerturbation, PerturbationResult
from repro.core.projection import SimilarityProjection
from repro.core.result import CargoResult
from repro.crypto.protocol import TwoServerRuntime
from repro.crypto.sharing import share_scalar
from repro.dp.gamma_noise import stacked_noise_supported
from repro.exceptions import (
    CheaterDetectedError,
    ConfigurationError,
    RuntimeProcessError,
    WireFormatError,
)
from repro.resilience import Checkpointer, resolve_resilience
from repro.runtime.dealer import run_dealer
from repro.runtime.server import run_server
from repro.runtime.wire import (
    CONTROL_RUN,
    CONTROL_SHUTDOWN,
    KIND_CONTROL,
    KIND_RESULT,
    KIND_SHARES,
    WireEndpoint,
    summary_delta,
)
from repro.stats import create_statistic
from repro.telemetry import Tracer, resolve_telemetry
from repro.telemetry.spans import NULL_TRACER
from repro.utils.rng import (
    derive_rng,
    spawn_rngs,
    spawn_state_matrix,
    uniforms_from_states,
)

__all__ = ["DistributedRuntime", "run_distributed"]

_BACKENDS = ("faithful", "batched", "matrix", "blocked")

#: Frame kinds whose phased payloads correspond to ledgered protocol bytes.
_LEDGERED_KINDS = ("SHARES", "OPEN_VALUES", "RESULT")


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
    if getattr(config, "triple_store", None) is not None:
        raise ConfigurationError(
            "triple stores are not supported by the distributed runtime; "
            "the dealer process provisions material directly"
        )
    if getattr(config, "tile_window", None):
        raise ConfigurationError(
            "tile_window streaming is not supported by the distributed runtime"
        )
    if getattr(config, "authenticator", None) is not None:
        raise ConfigurationError(
            "injected authenticators cannot be shipped to server processes; "
            "use authenticate=True instead"
        )
    if config.backend_name not in _BACKENDS:
        raise ConfigurationError(
            f"the distributed runtime has no schedule for backend "
            f"{config.backend_name!r}; supported: {', '.join(_BACKENDS)}"
        )


def _checkpoint_token(config: CargoConfig, num_users: int) -> str:
    """Fingerprint binding a distributed checkpoint to its configuration."""
    budget = config.resolved_budget()
    payload = "|".join(
        str(part)
        for part in (
            "distributed",
            num_users,
            config.statistic,
            config.backend_name,
            config.batch_size,
            config.block_size,
            config.fixed_point_bits,
            config.ring.mask,
            budget.epsilon1,
            budget.epsilon2,
            config.seed,
            config.offline_seed,
            config.authenticate,
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def _aggregate_transport(
    reports: List[Tuple[str, str, Dict[str, Dict[str, int]]]],
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Fold per-link sent-summaries into totals and per-phase payload bytes."""
    totals = {"frames": 0, "payload_bytes": 0, "wire_bytes": 0}
    by_phase: Dict[str, int] = {}
    for _process, _link, delta in reports:
        for key, counter in delta.items():
            kind_name, _, phase = key.partition("/")
            totals["frames"] += counter["frames"]
            totals["payload_bytes"] += counter["payload_bytes"]
            totals["wire_bytes"] += counter["wire_bytes"]
            if phase and kind_name in _LEDGERED_KINDS:
                by_phase[phase] = by_phase.get(phase, 0) + counter["payload_bytes"]
    return totals, by_phase


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
        other than triangles, worker pools, triple stores, tile windows and
        injected authenticators are rejected — see
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
            # process is observed as EOF by every peer (no hung recvs).
            def main() -> None:
                keep = {id(sock) for sock in own}
                for sock in every:
                    if id(sock) not in keep:
                        sock.close()
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
        if self._closed or self._broken:
            raise RuntimeProcessError(
                "this DistributedRuntime is closed; create a fresh one"
            )
        try:
            return self._run_release(graph, views)
        except CheaterDetectedError as error:
            record_cheater_event(
                self._config,
                resolve_telemetry(self._config),
                backend=self._config.backend_name,
                error=error,
            )
            self._broken = True
            self.close()
            raise
        except (WireFormatError, RuntimeProcessError, OSError, EOFError) as error:
            raise self._fail(error) from error

    def _run_release(self, graph, views) -> CargoResult:
        config = self._config
        driver_started = time.perf_counter()
        budget = config.resolved_budget()
        statistic = create_statistic(config.statistic, config)
        telemetry = resolve_telemetry(config)
        resilience = resolve_resilience(config)
        tracer = telemetry.tracer if telemetry.enabled else Tracer()
        master_rng = derive_rng(config.seed)
        max_rng, share_rng, noise_rng, dealer_rng = spawn_rngs(master_rng, 4)
        if config.offline_seed is not None:
            dealer_rng = derive_rng(config.offline_seed)
        n = graph.num_nodes
        ring = config.ring

        # The ledger is always kept — it is the reconciliation oracle — but
        # it only surfaces in the result when the caller asked for it, so
        # results stay bit-identical to in-process runs either way.
        runtime = TwoServerRuntime(n)

        checkpointer = None
        if resilience.checkpoint_path is not None:
            checkpointer = Checkpointer(
                resilience.checkpoint_path,
                kind="distributed",
                token=_checkpoint_token(config, n),
                retry=resilience.retry,
                metrics=telemetry.metrics if telemetry.enabled else None,
            )
        resumed = None
        if checkpointer is not None and resilience.resume and checkpointer.exists():
            resumed = checkpointer.load()

        spec = {
            "backend": config.backend_name,
            "batch_size": config.batch_size,
            "block_size": config.block_size,
            "ring": ring,
            "authenticate": bool(config.authenticate),
            "seed": int(getattr(config, "seed", 0) or 0),
            "record_views": views is not None,
            "telemetry": telemetry.enabled,
            "num_users": n,
            "run_max": resumed is None,
        }
        specs = {1: dict(spec), 2: dict(spec)}
        if self._tamper is not None:
            role, round_index = self._tamper
            specs[int(role)]["tamper_round"] = int(round_index)
        if self._fault_plan is not None and self._fault_target in ("server1", "server2"):
            target_role = 1 if self._fault_target == "server1" else 2
            specs[target_role]["fault_plan"] = self._fault_plan
            specs[target_role]["fault_target"] = self._fault_target
        dealer_spec = {
            "backend": config.backend_name,
            "ring": ring,
            "num_users": n,
            "batch_size": config.batch_size,
            "block_size": config.block_size,
            "dealer_rng": dealer_rng,
        }

        sent_before = {
            "server1": self._s1.sent_summary(),
            "server2": self._s2.sent_summary(),
            "dealer": self._dealer.sent_summary(),
        }
        self._s1.send(KIND_CONTROL, {"verb": CONTROL_RUN, "spec": specs[1]})
        self._s2.send(KIND_CONTROL, {"verb": CONTROL_RUN, "spec": specs[2]})
        self._dealer.send(KIND_CONTROL, {"verb": CONTROL_RUN, "spec": dealer_spec})

        with tracer.span(
            "total", backend=config.backend_name, statistic=config.statistic
        ) as run_span:
            # -------------------------------------------------------- #
            # Max — S1 genuinely computes d'_max from the uploaded noisy
            # degrees; the driver cross-checks it against the local clamp.
            # -------------------------------------------------------- #
            with tracer.span("max"):
                if resumed is None:
                    estimator = MaxDegreeEstimator(budget.epsilon1)
                    max_result = estimator.run(
                        graph.degrees(), rng=max_rng, runtime=runtime
                    )
                    noisy_degrees = max_result.noisy_degrees
                    noisy_max = max_result.noisy_max_degree
                    if n > 0:
                        noisy_array = np.asarray(noisy_degrees, dtype=np.float64)
                        self._s1.send(
                            KIND_SHARES, {"phase": "noisy_degree"}, [noisy_array]
                        )
                        meta, arrays = self._s1.recv_expect(KIND_RESULT)
                        if meta.get("phase") != "noisy_max_degree":
                            raise RuntimeProcessError(
                                "server1 answered the Max phase with "
                                f"{meta.get('phase')!r}"
                            )
                        remote_max = float(arrays[0][0])
                        if remote_max != noisy_max:
                            raise RuntimeProcessError(
                                f"server1 computed d'_max={remote_max!r}, the "
                                f"driver expected {noisy_max!r}"
                            )
                else:
                    noisy_degrees = list(resumed["noisy_degrees"])
                    noisy_max = float(resumed["noisy_max"])
                    if n > 0:
                        # Replay the ledger records the live exchange would
                        # have produced; reconciliation skips these phases.
                        runtime.users_to_server(
                            1,
                            "noisy_degree",
                            np.asarray(noisy_degrees, dtype=np.float64),
                        )
                        runtime.broadcast_to_users(1, "noisy_max_degree", noisy_max)

            # -------------------------------------------------------- #
            # Project — driver-local degree bounding (the users' step).
            # -------------------------------------------------------- #
            use_sparse = resolve_sparse_mode(config, statistic)
            if use_sparse:
                raise ConfigurationError(
                    "sparse execution is not supported by the distributed runtime"
                )
            with tracer.span("project", sparse=use_sparse):
                if resumed is None:
                    projection = SimilarityProjection(noisy_max)
                    projection_result = projection.project_graph(
                        graph, noisy_degrees=noisy_degrees
                    )
                    projected_rows = projection_result.projected_rows
                    edges_removed = projection_result.edges_removed
                else:
                    projected_rows = np.asarray(resumed["projected_rows"])
                    edges_removed = int(resumed["edges_removed"])

            if checkpointer is not None and resumed is None:
                checkpointer.save(
                    {
                        "num_users": n,
                        "noisy_degrees": noisy_degrees,
                        "noisy_max": noisy_max,
                        "projected_rows": projected_rows,
                        "edges_removed": edges_removed,
                    }
                )

            # -------------------------------------------------------- #
            # Count — share upload, then the servers run the backend.
            # -------------------------------------------------------- #
            share_tracer = (
                telemetry.tracer
                if telemetry.enabled and config.track_communication
                else NULL_TRACER
            )
            with tracer.span("count", backend=config.backend_name) as count_span:
                with share_tracer.span(
                    "share", num_users=int(np.asarray(projected_rows).shape[0])
                ):
                    share1, share2 = share_adjacency_rows(
                        projected_rows, ring=ring, rng=share_rng
                    )
                    runtime.users_to_server(1, "adjacency_share", share1)
                    runtime.users_to_server(2, "adjacency_share", share2)
                self._s1.send(KIND_SHARES, {"phase": "adjacency_share"}, [share1])
                self._s2.send(KIND_SHARES, {"phase": "adjacency_share"}, [share2])
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
                count_result = CountResult(
                    share1=int(meta1["share"]),
                    share2=int(meta2["share"]),
                    num_triples_processed=int(meta1["triples"]),
                    opening_rounds=int(meta1["opening_rounds"]),
                )
                if telemetry.enabled and meta1.get("spans"):
                    # Server 1's span tree is the canonical backend trace —
                    # both servers execute the identical schedule.
                    count_span.children.extend(meta1["spans"])

            # -------------------------------------------------------- #
            # Perturb — the users' noise planes, then the MAC-checked
            # release opening between the servers.
            # -------------------------------------------------------- #
            with tracer.span("perturb"):
                perturbation = DistributedPerturbation(
                    epsilon2=budget.epsilon2,
                    sensitivity=statistic.secure_output_sensitivity(noisy_max),
                    num_users=max(n, 1),
                    ring=ring,
                    fixed_point_bits=config.fixed_point_bits,
                )
                noise = perturbation.noise_config
                factor = noise.fixed_point_factor
                num_noise_users = noise.num_users
                if stacked_noise_supported():
                    states = spawn_state_matrix(noise_rng, num_noise_users, words=3)
                    gammas = noise.sample_noises_from_uniforms(
                        uniforms_from_states(states[:, 0]),
                        uniforms_from_states(states[:, 1]),
                    )
                    encoded = noise.encode_array(gammas)
                    noise_total_encoded = int(np.sum(encoded.astype(object)))
                    share1_plane = states[:, 2] & np.uint64(ring.mask)
                    share2_plane = ring.sub(ring.encode(encoded), share1_plane)
                else:
                    user_rngs = spawn_rngs(noise_rng, num_noise_users)
                    noise_total_encoded = 0
                    share1_list = []
                    share2_list = []
                    for user_rng in user_rngs:
                        gamma = noise.sample_user_noise(user_rng)
                        encoded_value = noise.encode(gamma)
                        noise_total_encoded += encoded_value
                        pair = share_scalar(encoded_value, ring=ring, rng=user_rng)
                        share1_list.append(pair.share1)
                        share2_list.append(pair.share2)
                    share1_plane = np.asarray(share1_list, dtype=ring.dtype)
                    share2_plane = np.asarray(share2_list, dtype=ring.dtype)
                runtime.users_to_server(1, "noise_share", share1_plane)
                runtime.users_to_server(2, "noise_share", share2_plane)
                noise_meta = {"phase": "noise_share", "factor": int(factor)}
                self._s1.send(KIND_SHARES, noise_meta, [share1_plane])
                self._s2.send(KIND_SHARES, noise_meta, [share2_plane])
                final1, _ = self._s1.recv_expect(KIND_RESULT)
                final2, _ = self._s2.recv_expect(KIND_RESULT)
                if final1.get("stage") != "release" or final2.get("stage") != "release":
                    raise RuntimeProcessError(
                        "servers answered the Perturb phase out of order: "
                        f"{final1.get('stage')!r} / {final2.get('stage')!r}"
                    )
                noisy_share1 = int(final1["noisy_share"])
                noisy_share2 = int(final2["noisy_share"])
                runtime.server_to_server(1, 2).send("noisy_count_share", noisy_share1)
                runtime.server_to_server(2, 1).send("noisy_count_share", noisy_share2)
                opened = int(final1["opened"])
                if opened != int(final2["opened"]) or opened != int(
                    ring.add(noisy_share1, noisy_share2)
                ):
                    raise RuntimeProcessError(
                        "the release opening does not reconstruct: "
                        f"{final1['opened']} / {final2['opened']} vs shares "
                        f"{noisy_share1} + {noisy_share2}"
                    )
                perturb_result = PerturbationResult(
                    noisy_count=float(ring.decode_signed(opened) / factor),
                    aggregate_noise=noise.decode(noise_total_encoded),
                    noisy_share1=noisy_share1,
                    noisy_share2=noisy_share2,
                    epsilon2=noise.epsilon,
                    sensitivity=noise.sensitivity,
                )

        # Dealer report (sent as soon as its replay finished, read last).
        dealer_meta, _ = self._dealer.recv_expect(KIND_RESULT)
        if dealer_meta.get("stage") != "dealer":
            raise RuntimeProcessError(
                f"dealer answered with stage {dealer_meta.get('stage')!r}"
            )

        # Adversarial views and MAC counters, merged in server order.
        if views is not None:
            views.merge_from(final1["views"])
            views.merge_from(final2["views"])
        authenticator = None
        if config.authenticate:
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
                enabled=True,
                rounds_checked=int(final1["rounds_checked"]),
                values_checked=int(final1["values_checked"]),
            )

        # ------------------------------------------------------------ #
        # Ledger/wire reconciliation and the transport summary.
        # ------------------------------------------------------------ #
        reports: List[Tuple[str, str, Dict]] = [
            ("driver", "server1", summary_delta(sent_before["server1"], self._s1.sent_summary())),
            ("driver", "server2", summary_delta(sent_before["server2"], self._s2.sent_summary())),
            ("driver", "dealer", summary_delta(sent_before["dealer"], self._dealer.sent_summary())),
            ("server1", "driver", final1["sent"]["driver"]),
            ("server1", "server2", final1["sent"]["peer"]),
            ("server2", "driver", final2["sent"]["driver"]),
            ("server2", "server1", final2["sent"]["peer"]),
            ("dealer", "server1", dealer_meta["sent"]["server1"]),
            ("dealer", "server2", dealer_meta["sent"]["server2"]),
        ]
        totals, by_phase = _aggregate_transport(reports)
        ledger_phases = runtime.ledger.phase_summary()
        skip = ("noisy_degree", "noisy_max_degree") if resumed is not None else ()
        accounted = _reconcile_ledger(ledger_phases, by_phase, skip=skip)
        transport = {
            "frames": totals["frames"],
            "payload_bytes": totals["payload_bytes"],
            "wire_bytes": totals["wire_bytes"],
            "overhead_bytes": totals["wire_bytes"] - totals["payload_bytes"],
            "unledgered_payload_bytes": totals["payload_bytes"] - accounted,
            "processes": {
                "driver": time.perf_counter() - driver_started,
                "server1": float(final1.get("seconds", 0.0)),
                "server2": float(final2.get("seconds", 0.0)),
                "dealer": float(dealer_meta.get("seconds", 0.0)),
            },
        }

        # ------------------------------------------------------------ #
        # Result assembly — identical to the in-process orchestrator.
        # ------------------------------------------------------------ #
        # Evaluation-only ground truth, computed outside every protocol span.
        true_count = statistic.plain_count(graph)
        projected_count = statistic.projected_count(projected_rows)
        noisy_count = statistic.finalise(perturb_result.noisy_count)
        timings = run_span.timings()
        communication_phases = ledger_phases if config.track_communication else {}
        result_telemetry = feed_run_telemetry(
            config,
            telemetry,
            backend=config.backend_name,
            timings=timings,
            communication_phases=communication_phases,
            count_result=count_result,
            budget=budget,
            noisy_count=noisy_count,
            true_count=true_count,
            projected_count=projected_count,
            noisy_max_degree=noisy_max,
            authenticator=authenticator,
            transport=transport,
        )
        return CargoResult(
            noisy_triangle_count=noisy_count,
            true_triangle_count=true_count,
            projected_triangle_count=projected_count,
            noisy_max_degree=noisy_max,
            epsilon1=budget.epsilon1,
            epsilon2=budget.epsilon2,
            edges_removed=edges_removed,
            timings=timings,
            communication=runtime.ledger.summary() if config.track_communication else {},
            communication_phases=communication_phases,
            backend=config.backend_name,
            statistic=config.statistic,
            telemetry=result_telemetry,
        )


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
