"""The ring a release derives from its public bound.

A release that pins no ring counts and perturbs in the fewest bits its
public bound needs (:func:`~repro.core.cargo.release_ring`).  Three things
must hold for that to be safe:

* each statistic's bound dominates its secure output on every input the
  projection can leave behind (extremal graphs and asymmetric rows here);
* the released, true and projected counts and ``d'_max`` equal the 64-bit
  ring's on every backend × statistic × transport × MAC setting, and
  MAC-checked releases count and perturb in 64 bits with the same views
  and ledgers;
* a ring that cannot hold the bound is refused after `Max`, before any
  material is dealt, instead of wrapping the released count.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import Cargo, CargoConfig
from repro.core.cargo import LocalServers, release_ring
from repro.core.perturbation import required_ring_bits
from repro.crypto.ring import DEFAULT_RING, Ring
from repro.exceptions import ConfigurationError, ProtocolError, RuntimeProcessError
from repro.graph.datasets import load_dataset
from repro.graph.generators import erdos_renyi_graph, random_regular_graph
from repro.graph.graph import Graph
from repro.runtime import DistributedRuntime
from repro.stats import create_statistic
from repro.telemetry import Telemetry, build_manifest
from repro.verify import transcripts_equal

BACKENDS = ("faithful", "batched", "matrix", "blocked")
STATISTICS = ("triangles", "kstars", "wedges", "4cycles")


def _statistic(name: str, star_k: int = 2):
    return create_statistic(name, CargoConfig(statistic=name, star_k=star_k))


def _disjoint_cliques(count: int, size: int) -> np.ndarray:
    rows = np.zeros((count * size, count * size), dtype=np.int64)
    for block in range(count):
        rows[block * size : (block + 1) * size, block * size : (block + 1) * size] = 1
    np.fill_diagonal(rows, 0)
    return rows


def _asymmetric_rows(n: int, theta: int, seed: int) -> np.ndarray:
    """One-sided rows of exactly ``min(θ, n − 1)`` ones each, ``a_ij`` independent of ``a_ji``."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        others = np.delete(np.arange(n), i)
        rows[i, rng.choice(others, size=min(theta, n - 1), replace=False)] = 1
    return rows


def _forward_rows(n: int, theta: int) -> np.ndarray:
    """Row ``i`` holds ``i + 1 … i + θ``: every pair of a row closes, so triangles meet the bound."""
    rows = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        rows[i, i + 1 : i + 1 + theta] = 1
    return rows


def _extremal_inputs():
    """``(label, rows, θ)``: inputs whose rows all hold at most θ ones."""
    yield "disjoint K5", _disjoint_cliques(3, 5), 4
    yield "disjoint K7", _disjoint_cliques(2, 7), 6
    for theta in (3, 4, 5):
        graph = random_regular_graph(14, theta, seed=0)
        yield f"random {theta}-regular", graph.adjacency_matrix(), theta
    for theta in (2, 5, 13):
        yield f"asymmetric θ={theta}", _asymmetric_rows(14, theta, seed=theta), theta
        yield f"forward θ={theta}", _forward_rows(14, theta), theta


class TestOutputBound:
    @pytest.mark.parametrize(
        "name, star_k", [("triangles", 2), ("kstars", 3), ("wedges", 2), ("4cycles", 2)]
    )
    def test_bound_dominates_the_secure_output(self, name, star_k):
        statistic = _statistic(name, star_k)
        config = CargoConfig(statistic=name, star_k=star_k, counting_backend="matrix")
        for label, rows, theta in _extremal_inputs():
            assert rows.sum(axis=1).max() <= theta, label
            n = rows.shape[0]
            secure = statistic.secure_count(rows, config=config, share_rng=1, dealer_rng=2)
            raw = secure.reconstruct()
            assert raw == statistic.release_scale * statistic.projected_count(rows), label
            # A fractional d'_max projects to its floor.
            assert raw <= statistic.secure_output_bound(n, theta + 0.9), label

    def test_triangle_bound_is_tight_on_forward_rows(self):
        statistic = _statistic("triangles")
        for theta in (2, 5, 13):
            rows = _forward_rows(14, theta)
            assert statistic.projected_count(rows) == statistic.secure_output_bound(14, theta)

    def test_kstar_bound_is_tight_when_every_row_is_full(self):
        statistic = _statistic("kstars", 3)
        rows = _asymmetric_rows(14, 5, seed=1)
        assert statistic.projected_count(rows) == statistic.secure_output_bound(14, 5.5)

    def test_bounds_cap_the_degree_at_n_minus_one(self):
        for name in STATISTICS:
            statistic = _statistic(name)
            assert statistic.secure_output_bound(6, 1e9) == statistic.secure_output_bound(6, 5)
            assert statistic.secure_output_bound(0, 3.0) == 0


class TestReleaseRing:
    def test_derived_width_is_the_required_bits(self):
        statistic = _statistic("triangles")
        kwargs = dict(num_users=100, degree_bound=20.7, sensitivity=20.7, epsilon2=1.8)
        ring = release_ring(CargoConfig(), statistic, **kwargs)
        expected = required_ring_bits(
            statistic.secure_output_bound(100, 20.7), sensitivity=20.7, epsilon2=1.8
        )
        assert ring == Ring(expected) and expected < 64

    def test_pinned_and_authenticated_rings_are_kept(self):
        statistic = _statistic("triangles")
        kwargs = dict(num_users=100, degree_bound=20.7, sensitivity=20.7, epsilon2=1.8)
        assert release_ring(CargoConfig(ring=Ring(60)), statistic, **kwargs) == Ring(60)
        assert release_ring(CargoConfig(authenticate=True), statistic, **kwargs) == DEFAULT_RING

    def test_statistic_without_a_bound_keeps_64_bits(self):
        class Unbounded:
            name = "unbounded"

            def secure_output_bound(self, num_users, degree_bound):
                return None

        kwargs = dict(num_users=10, degree_bound=3.0, sensitivity=3.0, epsilon2=1.0)
        assert release_ring(CargoConfig(), Unbounded(), **kwargs) == DEFAULT_RING
        assert release_ring(CargoConfig(ring=Ring(9)), Unbounded(), **kwargs) == Ring(9)

    def test_release_ring_holds_the_output_bound(self):
        for name in STATISTICS:
            statistic = _statistic(name)
            for n, theta in ((14, 5.5), (1024, 263.0), (768, 120.0)):
                bound = statistic.secure_output_bound(n, theta)
                ring = release_ring(
                    CargoConfig(), statistic, num_users=n, degree_bound=theta,
                    sensitivity=theta, epsilon2=1.8,
                )
                assert ring.bits >= bound.bit_length() + 1

    def test_required_bits_grow_with_the_noise_tail(self):
        narrow = required_ring_bits(1000, sensitivity=1.0, epsilon2=1.0)
        wide = required_ring_bits(1000, sensitivity=1e6, epsilon2=0.01)
        assert wide > narrow

    @pytest.mark.parametrize("scale", [0.5, 1.0, 7.3, 263.0 / 1.8, 1e6])
    def test_the_noise_overflows_the_ring_with_probability_below_2_to_minus_40(self, scale):
        """``P(|N| ≥ m) = 2α^m / (1 + α)`` for discrete Laplace noise with ``α = e^(−1/λ)``."""
        for bound in (0, 1000, 2**30):
            bits = required_ring_bits(bound, sensitivity=scale, epsilon2=1.0)
            # The opened value T + N stays in [−2^(l−1), 2^(l−1)) unless
            # |N| reaches the headroom left above the bound.
            headroom = (1 << (bits - 1)) - bound
            alpha = math.exp(-1.0 / scale)
            log2_tail = 1 - headroom / (scale * math.log(2)) - math.log2(1 + alpha)
            assert log2_tail <= -40


def _run(graph, **overrides):
    config = CargoConfig(epsilon=2.0, seed=5, **overrides)
    cargo = Cargo(config)
    return cargo.run(graph), cargo.views


def _released(result):
    return (
        result.noisy_count,
        result.true_count,
        result.projected_count,
        result.noisy_max_degree,
    )


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(14, 0.45, seed=3)


class TestBitIdentity:
    @pytest.mark.parametrize("authenticate", [False, True])
    @pytest.mark.parametrize("statistic", STATISTICS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_derived_ring_releases_what_64_bits_release(
        self, graph, backend, statistic, authenticate
    ):
        kwargs = dict(counting_backend=backend, statistic=statistic, authenticate=authenticate)
        derived, _ = _run(graph, **kwargs)
        pinned, _ = _run(graph, ring=Ring(64), **kwargs)
        assert _released(derived) == _released(pinned)
        assert pinned.ring_bits == 64
        assert (derived.ring_bits == 64) == authenticate
        assert derived.ring_bits == 64 or derived.ring_bits < 24

    @pytest.mark.parametrize("authenticate", [False, True])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_distributed_derived_ring_matches_in_process(self, graph, backend, authenticate):
        kwargs = dict(counting_backend=backend, authenticate=authenticate)
        local, _ = _run(graph, **kwargs)
        remote, _ = _run(graph, distributed=True, **kwargs)
        pinned, _ = _run(graph, distributed=True, ring=Ring(64), **kwargs)
        assert _released(remote) == _released(local) == _released(pinned)
        assert remote.ring_bits == local.ring_bits
        assert (local.ring_bits == 64) == authenticate

    @pytest.mark.parametrize("distributed", [False, True])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mac_checked_views_and_ledgers_are_the_64_bit_ones(
        self, graph, backend, distributed
    ):
        kwargs = dict(
            counting_backend=backend,
            authenticate=True,
            record_views=True,
            track_communication=True,
            distributed=distributed,
        )
        derived, derived_views = _run(graph, **kwargs)
        pinned, pinned_views = _run(graph, ring=Ring(64), **kwargs)
        assert transcripts_equal(derived_views, pinned_views)
        assert derived.communication == pinned.communication
        assert derived.communication_phases == pinned.communication_phases

    def test_count_result_reconstructs_in_its_own_ring(self, graph, monkeypatch):
        seen = []
        original = LocalServers.count

        def count(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            seen.append(result)
            return result

        monkeypatch.setattr(LocalServers, "count", count)
        config = CargoConfig(seed=5, counting_backend="blocked", block_size=4)
        result = Cargo(config).run(graph)
        (count_result,) = seen
        assert count_result.ring == Ring(result.ring_bits)
        # What the release benchmark's kernel-parity check reads.
        assert count_result.reconstruct(config.ring) == result.projected_count
        assert count_result.reconstruct(count_result.ring) == result.projected_count
        with pytest.raises(ProtocolError, match="cannot be recombined"):
            count_result.reconstruct(DEFAULT_RING)


class TestObservability:
    @pytest.mark.parametrize("authenticate", [False, True])
    def test_manifest_record_carries_the_ring_width(self, graph, authenticate):
        telemetry = Telemetry()
        result, _ = _run(graph, telemetry=telemetry, authenticate=authenticate)
        (release,) = build_manifest(telemetry)["releases"]
        assert release["ring_bits"] == result.ring_bits
        assert "count_ring_bits" not in release
        assert (result.ring_bits == 64) == authenticate


class TestRefusedRing:
    """A pinned ring below the 13 bits this release needs would wrap its count."""

    @pytest.fixture(scope="class")
    def small(self):
        return load_dataset("facebook", num_nodes=23)

    def test_pinned_ring_too_narrow_raises_before_count(self, small, monkeypatch):
        counted = []
        monkeypatch.setattr(LocalServers, "count", lambda *args, **kwargs: counted.append(1))
        config = CargoConfig(seed=5, counting_backend="blocked", ring=Ring(12))
        with pytest.raises(ConfigurationError, match="needs a 13-bit ring"):
            Cargo(config).run(small)
        assert counted == []

    def test_the_narrowest_ring_that_holds_releases_what_64_bits_release(self, small):
        narrow, _ = _run(small, counting_backend="blocked", ring=Ring(13))
        wide, _ = _run(small, counting_backend="blocked", ring=Ring(64))
        assert _released(narrow) == _released(wide)

    def test_distributed_refusal_shuts_every_party_down(self, small):
        config = CargoConfig(seed=5, counting_backend="blocked", ring=Ring(12), distributed=True)
        runtime = DistributedRuntime(config)
        try:
            with pytest.raises(ConfigurationError, match="needs a 13-bit ring"):
                runtime.run(small)
            for process in runtime._processes:
                assert process.exitcode == 0
            with pytest.raises(RuntimeProcessError):
                runtime.run(small)
        finally:
            runtime.close()

    def test_derived_width_above_64_bits_raises(self):
        # 66 · C(65, 33) ≈ 2^68 stars.
        complete = Graph(66, edges=[(u, v) for u in range(66) for v in range(u + 1, 66)])
        config = CargoConfig(seed=1, statistic="kstars", star_k=33)
        with pytest.raises(ConfigurationError, match="rings hold at most 64 bits"):
            Cargo(config).run(complete)
