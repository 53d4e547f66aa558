"""End-to-end properties of the process-separated runtime.

The distributed runtime's contract is *bit-identity*: for the same seed and
configuration, a release computed by four OS processes over socket links
must equal the in-process engine's release exactly — count, noisy max
degree, communication ledger, adversarial views, MAC counters, and span
structure.  These tests run real forked processes on small graphs, so each
case is one full protocol execution.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cargo import Cargo
from repro.core.config import CargoConfig
from repro.crypto.mac import OpeningAuthenticator
from repro.crypto.views import ViewRecorder
from repro.exceptions import (
    CheaterDetectedError,
    CheckpointError,
    ConfigurationError,
    RuntimeProcessError,
)
from repro.graph.datasets import load_dataset
from repro.resilience import FaultKind, FaultPlan, FaultSpec, ResilienceConfig
from repro.runtime import DistributedRuntime, run_distributed

BACKENDS = ("faithful", "batched", "matrix", "blocked")

#: Small enough that the faithful backend's O(n^3) rounds stay quick.
N_SMALL = 24


def make_config(backend="matrix", distributed=False, **overrides):
    kwargs = dict(
        epsilon=2.0,
        seed=11,
        counting_backend=backend,
        batch_size=64,
        block_size=8,
        authenticate=True,
        track_communication=True,
        distributed=distributed,
    )
    kwargs.update(overrides)
    return CargoConfig(**kwargs)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("facebook", num_nodes=N_SMALL)


class TestBitIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_release_identical_to_in_process(self, graph, backend):
        baseline = Cargo(make_config(backend)).run(graph)
        result = run_distributed(graph, make_config(backend, distributed=True))
        assert result.noisy_triangle_count == baseline.noisy_triangle_count
        assert result.true_triangle_count == baseline.true_triangle_count
        assert result.noisy_max_degree == baseline.noisy_max_degree
        assert result.projected_triangle_count == baseline.projected_triangle_count
        assert result.edges_removed == baseline.edges_removed
        assert result.communication_phases == baseline.communication_phases
        assert result.communication == baseline.communication

    def test_cargo_run_delegates_on_distributed_flag(self, graph):
        baseline = Cargo(make_config("matrix")).run(graph)
        result = Cargo(make_config("matrix", distributed=True)).run(graph)
        assert result.noisy_triangle_count == baseline.noisy_triangle_count

    def test_node_dp_release_identical_to_in_process(self, graph):
        from repro.core.node_dp import NodeDpCargo
        from repro.telemetry import Telemetry

        baseline = NodeDpCargo(make_config("blocked")).run(graph)
        result = NodeDpCargo(
            make_config("blocked", distributed=True, telemetry=Telemetry())
        ).run(graph)
        assert result.backend == baseline.backend == "node-dp/blocked"
        assert result.noisy_triangle_count == baseline.noisy_triangle_count
        assert result.noisy_max_degree == baseline.noisy_max_degree
        assert result.edges_removed == baseline.edges_removed
        assert result.communication == baseline.communication
        assert result.telemetry["transport"]["frames"] > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_adversarial_views_identical(self, graph, backend):
        local_cargo = Cargo(make_config(backend, record_views=True))
        local_cargo.run(graph)
        local_views = local_cargo.views
        remote_views = ViewRecorder()
        run_distributed(
            graph,
            make_config(backend, distributed=True, record_views=True),
            views=remote_views,
        )
        for server_index in (1, 2):
            local = local_views.view(server_index)
            remote = remote_views.view(server_index)
            local_values = local.values()
            remote_values = remote.values()
            assert len(local_values) == len(remote_values)
            for mine, theirs in zip(local_values, remote_values):
                assert len(mine) == len(theirs)
                for opened, remote_opened in zip(mine, theirs):
                    assert np.array_equal(opened, remote_opened)

    @pytest.mark.parametrize("track_communication", (True, False))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_span_structure_matches_in_process(self, graph, backend, track_communication):
        from repro.telemetry import Telemetry

        local = Telemetry()
        Cargo(
            make_config(
                backend, telemetry=local, track_communication=track_communication
            )
        ).run(graph)
        remote = Telemetry()
        run_distributed(
            graph,
            make_config(
                backend,
                distributed=True,
                telemetry=remote,
                track_communication=track_communication,
            ),
        )
        assert remote.tracer.structure() == local.tracer.structure()

    def test_server_one_expands_the_seeds_in_one_span(self, graph):
        """Server 1's seed expansion has its own span in the kept span tree.

        The share-based backends send server 1 seeds; the mask-once ones
        send both servers ``E`` and expand nothing at upload.
        """
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        run_distributed(graph, make_config("batched", distributed=True, telemetry=telemetry))

        def walk(spans):
            for span in spans:
                yield span
                yield from walk(span.children)

        spans = walk(telemetry.tracer.roots)
        expansions = [span.attributes for span in spans if span.name == "expand_seeds"]
        assert expansions == [{"num_users": N_SMALL}]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mac_counters_match_in_process(self, graph, backend):
        from repro.telemetry import Telemetry

        local_telemetry = Telemetry()
        Cargo(make_config(backend, telemetry=local_telemetry)).run(graph)
        remote_telemetry = Telemetry()
        run_distributed(
            graph, make_config(backend, distributed=True, telemetry=remote_telemetry)
        )
        local = local_telemetry.releases[-1]["mac"]
        remote = remote_telemetry.releases[-1]["mac"]
        assert local["rounds_checked"] > 0 and local["values_checked"] > 0
        assert (remote["rounds_checked"], remote["values_checked"]) == (
            local["rounds_checked"],
            local["values_checked"],
        )


class TestTransport:
    def test_transport_section_accounts_for_every_byte(self, graph):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        result = run_distributed(
            graph, make_config("matrix", distributed=True, telemetry=telemetry)
        )
        transport = result.telemetry["transport"]
        assert transport["frames"] > 0
        assert transport["overhead_bytes"] > 0
        assert (
            transport["wire_bytes"]
            == transport["payload_bytes"] + transport["overhead_bytes"]
        )
        # Every ledgered byte is carried on the wire: the ledger's phase
        # totals (minus the broadcast phase, which fans out logically) are a
        # lower bound on the physical payload.
        ledgered = sum(
            stats["bytes"]
            for phase, stats in result.communication_phases.items()
            if phase != "noisy_max_degree"
        )
        assert ledgered <= transport["payload_bytes"]
        assert transport["unledgered_payload_bytes"] >= 0
        for process in ("driver", "server1", "server2", "dealer"):
            assert transport["processes"][process] >= 0.0
        # The release record in the manifest carries the same section.
        releases = [
            record
            for record in telemetry.releases
            if isinstance(record, dict) and "transport" in record
        ]
        assert releases and releases[0]["transport"] == transport

    def test_forked_processes_run_one_blas_thread(self, graph):
        """Each forked process caps its OpenBLAS at one thread and reports it;
        the driver's own pool is left alone.  The cap starts no thread: a
        forked child runs the one thread it was forked with."""
        from repro.parallel.blas import blas_threads, os_threads
        from repro.telemetry import Telemetry

        before = blas_threads()
        result = run_distributed(
            graph, make_config("blocked", distributed=True, telemetry=Telemetry())
        )
        transport = result.telemetry["transport"]
        expected = 1 if before is not None else None
        parties = ("server1", "server2", "dealer")
        assert transport["blas_threads"] == dict.fromkeys(parties, expected)
        threads = 1 if os_threads() is not None else None
        assert transport["os_threads"] == dict.fromkeys(parties, threads)
        assert blas_threads() == before

    def test_blocked_links_carry_their_closed_form_payloads(self, graph):
        """Seeds, not matrices: the users mask C with the dealer's 64-byte row
        seeds and send E to both servers, each server gets its 32-byte
        stream seeds, and S2 gets only its Z/W corrections on top of them."""
        from repro.core.backends.blocked import chunk_rows, tile_schedule
        from repro.telemetry import Telemetry

        n, block = N_SMALL, 8
        result = run_distributed(
            graph,
            make_config("blocked", distributed=True, block_size=block, telemetry=Telemetry()),
        )
        transport = result.telemetry["transport"]
        links = transport["links"]
        schedule = tile_schedule(n, block)
        rows = len(chunk_rows(schedule, range(len(schedule))))
        seeds = 32 * (1 + len(schedule))
        # Per user: a float64 noisy degree, her n - 1 - i elements of E, a
        # noise share.
        assert links["driver->server1"] == 8 * n + 4 * n * (n - 1) + 8 * n
        # Per user i: her n - 1 - i elements of E and a noise share.
        assert links["driver->server2"] == 4 * n * (n - 1) + 8 * n
        assert links["driver->dealer"] == 0
        # Per user: her two 32-byte row seeds, in one frame to the driver.
        assert links["dealer->driver"] == 64 * n
        assert links["dealer->server1"] == seeds
        # One Z-correction element per strict-upper entry, one W per J row.
        assert links["dealer->server2"] == seeds + 8 * n * (n - 1) // 2 + 8 * rows
        assert sum(links.values()) == transport["payload_bytes"]
        assert result.communication_phases["adjacency_share"] == {
            "messages": 2 * n,
            "bytes": 8 * n * (n - 1),
        }
        assert result.communication_phases["input_masks"] == {
            "messages": n,
            "bytes": 64 * n,
        }
        # E crosses from the users only: each server sends its peer a
        # 32-byte digest of E, its values of F and of the release, each
        # with its MAC tag share.
        opened = 8 * n * (n - 1) // 2 + 8
        assert links["server1->server2"] == links["server2->server1"] == 32 + 2 * opened
        assert (
            transport["wire_bytes"]
            == transport["payload_bytes"] + transport["overhead_bytes"]
        )

    def test_reconciliation_failure_is_typed(self):
        from repro.runtime.driver import _reconcile_ledger

        ledger_phases = {"noise_share": {"messages": 4, "bytes": 32}}
        with pytest.raises(RuntimeProcessError, match="reconciliation failed"):
            _reconcile_ledger(ledger_phases, {"noise_share": 24})
        assert _reconcile_ledger(ledger_phases, {"noise_share": 32}) == 32


class TestScopeGuards:
    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"statistic": "kstars"}, "triangles"),
            ({"workers": 2}, "worker pools"),
            ({"tile_window": 2, "counting_backend": "blocked"}, "tile_window"),
            ({"sparse": "force"}, "sparse"),
        ],
    )
    def test_unsupported_configs_rejected(self, overrides, match):
        config = CargoConfig(epsilon=2.0, seed=0, distributed=True, **overrides)
        with pytest.raises(ConfigurationError, match=match):
            DistributedRuntime(config)

    def test_single_worker_accepted(self, graph):
        """``workers=1`` is the default engine, so the runtime takes it."""
        baseline = Cargo(make_config("blocked")).run(graph)
        result = run_distributed(
            graph, make_config("blocked", distributed=True, workers=1)
        )
        assert result.noisy_triangle_count == baseline.noisy_triangle_count

    def test_injected_authenticator_rejected(self):
        config = CargoConfig(
            epsilon=2.0,
            seed=0,
            distributed=True,
            authenticator=OpeningAuthenticator(seed=0),
        )
        with pytest.raises(ConfigurationError, match="authenticator"):
            DistributedRuntime(config)

    def test_key_less_opener_runs_like_no_authenticator(self, graph):
        """A ``PlainOpener`` checks nothing, so the runtime accepts it and
        releases exactly what ``authenticator=None`` releases."""
        from repro.crypto.secure_ops import PlainOpener

        plain = run_distributed(
            graph, make_config("blocked", distributed=True, authenticate=False)
        )
        opener = run_distributed(
            graph,
            make_config(
                "blocked", distributed=True, authenticate=False, authenticator=PlainOpener()
            ),
        )
        assert opener.noisy_triangle_count == plain.noisy_triangle_count
        assert opener.ring_bits == plain.ring_bits < 64
        assert opener.communication_phases == plain.communication_phases


class TestCheaterDetection:
    @pytest.mark.parametrize("role", (1, 2))
    def test_wire_tampering_detected_with_in_process_message(self, graph, role):
        target_round = 1

        def lie(opening):
            if opening.index == target_round:
                opening.messages[role - 1].values[0] += 1

        local_config = CargoConfig(
            epsilon=2.0,
            seed=11,
            counting_backend="matrix",
            track_communication=True,
            authenticator=OpeningAuthenticator(seed=11, tamper=lie),
        )
        with pytest.raises(CheaterDetectedError) as local_error:
            Cargo(local_config).run(graph)

        with pytest.raises(CheaterDetectedError) as remote_error:
            run_distributed(
                graph,
                make_config("matrix", distributed=True),
                tamper=(role, target_round),
            )
        assert str(remote_error.value) == str(local_error.value)
        assert remote_error.value.round_index == target_round

    def test_unauthenticated_tampering_goes_undetected(self, graph):
        honest = run_distributed(
            graph, make_config("matrix", distributed=True, authenticate=False)
        )
        tampered = run_distributed(
            graph,
            make_config("matrix", distributed=True, authenticate=False),
            tamper=(1, 0),
        )
        # No MAC: the lie silently lands in the release instead of aborting.
        assert tampered.noisy_triangle_count != honest.noisy_triangle_count


class TestCrashAndResume:
    def test_mid_round_crash_resumes_bit_identically(self, graph, tmp_path):
        checkpoint = str(tmp_path / "distributed.ckpt")
        resilience = ResilienceConfig(checkpoint_path=checkpoint, resume=True)
        config = make_config("matrix", distributed=True, resilience=resilience)
        baseline = Cargo(make_config("matrix")).run(graph)

        plan = FaultPlan(
            [FaultSpec("runtime.round", FaultKind.CRASH, at=2)]
        ).to_json()
        with pytest.raises(RuntimeProcessError):
            run_distributed(graph, config, fault_plan=plan, fault_target="server1")
        assert (tmp_path / "distributed.ckpt").exists()

        resumed = run_distributed(graph, config)
        assert resumed.noisy_triangle_count == baseline.noisy_triangle_count
        assert resumed.noisy_max_degree == baseline.noisy_max_degree
        assert resumed.communication_phases == baseline.communication_phases

    def test_resume_refuses_another_graph(self, graph, tmp_path):
        """A checkpoint binds its graph: resuming a crashed facebook release
        on wiki must raise, never release wiki under facebook's projection."""
        resilience = ResilienceConfig(
            checkpoint_path=str(tmp_path / "distributed.ckpt"), resume=True
        )
        config = make_config("matrix", distributed=True, resilience=resilience)
        plan = FaultPlan(
            [FaultSpec("runtime.round", FaultKind.CRASH, at=2)]
        ).to_json()
        with pytest.raises(RuntimeProcessError):
            run_distributed(graph, config, fault_plan=plan, fault_target="server1")
        with pytest.raises(CheckpointError, match="refusing to resume"):
            run_distributed(load_dataset("wiki", num_nodes=N_SMALL), config)

    def test_resume_refuses_another_variant(self, graph, tmp_path):
        """A checkpoint binds its protocol variant: a crashed Node-DP release
        is never resumed as an Edge-DP one on the same config and graph."""
        from repro.core.node_dp import NodeDpCargo

        resilience = ResilienceConfig(
            checkpoint_path=str(tmp_path / "distributed.ckpt"), resume=True
        )
        config = make_config("matrix", distributed=True, resilience=resilience)
        plan = FaultPlan(
            [FaultSpec("runtime.round", FaultKind.CRASH, at=2)]
        ).to_json()
        runtime = DistributedRuntime(config, fault_plan=plan, fault_target="server1")
        with pytest.raises(RuntimeProcessError):
            runtime.release(NodeDpCargo(config), graph)
        assert (tmp_path / "distributed.ckpt").exists()
        with pytest.raises(CheckpointError, match="refusing to resume"):
            run_distributed(graph, config)

    def test_dead_peer_surfaces_as_typed_error(self, graph):
        plan = FaultPlan(
            [FaultSpec("runtime.round", FaultKind.CRASH, at=1)]
        ).to_json()
        runtime = DistributedRuntime(
            make_config("matrix", distributed=True),
            fault_plan=plan,
            fault_target="server2",
        )
        with pytest.raises(RuntimeProcessError):
            runtime.run(graph)
        # A crashed run poisons the runtime: further use is refused.
        with pytest.raises(RuntimeProcessError, match="closed"):
            runtime.run(graph)


class TestPersistentRuntime:
    def test_one_runtime_serves_many_releases(self, graph):
        other = load_dataset("wiki", num_nodes=26)
        with DistributedRuntime(make_config("batched", distributed=True)) as runtime:
            first = runtime.run(graph)
            second = runtime.run(graph)
            third = runtime.run(other)
        assert first.noisy_triangle_count == second.noisy_triangle_count
        one_shot = run_distributed(other, make_config("batched", distributed=True))
        assert third.noisy_triangle_count == one_shot.noisy_triangle_count

    def test_release_refuses_a_foreign_config(self, graph):
        """The servers run the runtime's own config; a Cargo built on another
        one is refused up front and leaves the runtime usable."""
        config = make_config("matrix", distributed=True)
        with DistributedRuntime(config) as runtime:
            with pytest.raises(ConfigurationError, match="own config"):
                runtime.release(Cargo(make_config("matrix", distributed=True)), graph)
            result = runtime.release(Cargo(config), graph)
        assert result.noisy_triangle_count == run_distributed(graph, config).noisy_triangle_count

    def test_closed_runtime_refuses_runs(self, graph):
        runtime = DistributedRuntime(make_config("matrix", distributed=True))
        runtime.close()
        with pytest.raises(RuntimeProcessError, match="closed"):
            runtime.run(graph)
