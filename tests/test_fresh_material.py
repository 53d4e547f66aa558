"""Every release deals fresh material.

CARGO's Count is private only because every input is masked with fresh,
input-independent randomness: a mask ``X`` served again to a new input
``C'`` shows the servers ``E - E' = C - C'``.  These tests pin that no path
re-serves dealt material — successive releases threading one dealer
substream (the streaming anchors), independent releases with their own
seeds, and the streaming orchestrator end to end — while one seed still
replays its own release bit for bit.  A control in each family pins a
dealer seed on purpose and shows the same check catching the reuse.  The
options that used to re-serve material are gone and fail loudly.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.cli import main
from repro.core import CargoConfig
from repro.core.backends import BlockedMatrixTriangleCounter, FaithfulTriangleCounter
from repro.core.backends.base import pack_upper
from repro.crypto.multiplication_groups import MultiplicationGroupDealer
from repro.crypto.ring import DEFAULT_RING
from repro.crypto.views import ViewRecorder
from repro.experiments.runner import ProtocolSweep
from repro.graph import load_dataset
from repro.graph.generators import erdos_renyi_graph
from repro.resilience import ResilienceConfig
from repro.stats import TriangleStatistic, create_statistic
from repro.stream import StreamingCargo, StreamingConfig, replay_stream
from repro.utils.rng import derive_rng, spawn_rngs

NUM_USERS = 24
#: Every kernel that opens values masked with dealt material.
KERNELS = [
    ("triangles", "faithful"),
    ("triangles", "batched"),
    ("triangles", "matrix"),
    ("triangles", "blocked"),
    ("4cycles", None),
]
KERNEL_IDS = [
    f"{statistic}-{backend}" if backend else statistic for statistic, backend in KERNELS
]
#: The mask-once backends: the users upload ``E = C - X`` to both servers.
MASKED_INPUT_BACKENDS = ("matrix", "blocked")
TRIANGLE_BACKENDS = ("faithful", "batched", "matrix", "blocked")


@pytest.fixture(scope="module")
def rows():
    return load_dataset("facebook", num_nodes=NUM_USERS).adjacency_matrix()


def _config(statistic, backend):
    options = {} if backend is None else {"counting_backend": backend}
    return CargoConfig(
        epsilon=2.0, statistic=statistic, batch_size=16, block_size=8, **options
    )


def _release(kernel, rows, share_rng, dealer_rng):
    """One secure count of *rows*; its opened value and both servers' views."""
    config = _config(*kernel)
    views = ViewRecorder()
    result = create_statistic(kernel[0], config).secure_count(
        rows, config=config, share_rng=share_rng, dealer_rng=dealer_rng, views=views
    )
    return result.reconstruct(), views


def _flat(value) -> np.ndarray:
    """One view entry's value as a flat array of ring elements."""
    if isinstance(value, (tuple, list)):
        return np.concatenate([_flat(part) for part in value])
    return np.ravel(np.asarray(value)).astype(np.uint64)


def _openings(views):
    """Per server, every value it saw, flattened in the order it saw them."""
    return [[_flat(entry.value) for entry in views.view(server).entries] for server in (1, 2)]


def _shared_elements(lhs, rhs) -> int:
    """How many ring elements two transcripts of one schedule share, position by position."""
    shared = 0
    for server_l, server_r in zip(_openings(lhs), _openings(rhs)):
        assert len(server_l) == len(server_r)
        for value_l, value_r in zip(server_l, server_r):
            assert value_l.shape == value_r.shape
            shared += int(np.count_nonzero(value_l == value_r))
    return shared


def _masked_input(views) -> np.ndarray:
    (entry,) = views.view(1).values("masked_input")
    return _flat(entry)


def _encoded(rows) -> np.ndarray:
    return DEFAULT_RING.encode(pack_upper(np.asarray(rows, dtype=np.int64)))


class TestSuccessiveReleases:
    """Two releases threading one pair of substreams, as the streaming anchors do."""

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    def test_threaded_substreams_repeat_no_opened_element(self, rows, kernel):
        share_rng, dealer_rng = spawn_rngs(5, 2)
        first_count, first = _release(kernel, rows, share_rng, dealer_rng)
        second_count, second = _release(kernel, rows, share_rng, dealer_rng)
        assert first_count == second_count
        # Same input, fresh masks: no masked value comes back.
        assert _shared_elements(first, second) == 0

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    def test_a_seed_replays_its_own_release(self, rows, kernel):
        first_count, first = _release(kernel, rows, *spawn_rngs(5, 2))
        again_count, again = _release(kernel, rows, *spawn_rngs(5, 2))
        assert first_count == again_count
        for server_l, server_r in zip(_openings(first), _openings(again)):
            assert len(server_l) == len(server_r)
            for value_l, value_r in zip(server_l, server_r):
                assert np.array_equal(value_l, value_r)

    @pytest.mark.parametrize("kernel", KERNELS, ids=KERNEL_IDS)
    def test_releases_of_different_seeds_share_no_opened_element(self, rows, kernel):
        first_count, first = _release(kernel, rows, *spawn_rngs(5, 2))
        other_count, other = _release(kernel, rows, *spawn_rngs(6, 2))
        assert first_count == other_count
        assert _shared_elements(first, other) == 0


class TestMaskedInputDifference:
    """The leak a re-served mask causes: ``E - E' = C - C'``."""

    @pytest.fixture(scope="class")
    def other_rows(self):
        return erdos_renyi_graph(NUM_USERS, 0.2, seed=9).adjacency_matrix()

    @pytest.mark.parametrize("backend", MASKED_INPUT_BACKENDS)
    def test_servers_cannot_difference_two_releases(self, rows, other_rows, backend):
        share_rng, dealer_rng = spawn_rngs(5, 2)
        _, first = _release(("triangles", backend), rows, share_rng, dealer_rng)
        _, second = _release(("triangles", backend), other_rows, share_rng, dealer_rng)
        seen = DEFAULT_RING.sub(_masked_input(first), _masked_input(second))
        inputs = DEFAULT_RING.sub(_encoded(rows), _encoded(other_rows))
        assert np.count_nonzero(seen == inputs) == 0

    @pytest.mark.parametrize("backend", MASKED_INPUT_BACKENDS)
    def test_a_repeated_dealer_seed_shows_the_input_difference(self, rows, other_rows, backend):
        _, first = _release(("triangles", backend), rows, derive_rng(1), derive_rng(7))
        _, second = _release(("triangles", backend), other_rows, derive_rng(2), derive_rng(7))
        seen = DEFAULT_RING.sub(_masked_input(first), _masked_input(second))
        inputs = DEFAULT_RING.sub(_encoded(rows), _encoded(other_rows))
        assert np.array_equal(seen, inputs)


class TestStreamingAnchors:
    """The orchestrator threads its dealer substream through every anchor."""

    @pytest.fixture(scope="class")
    def stream(self):
        return replay_stream(load_dataset("facebook", num_nodes=30), rng=0)

    @staticmethod
    def _anchor_views(stream, backend, monkeypatch, pin_dealer=False):
        recorded = []
        secure_count = TriangleStatistic.secure_count

        def recording(self, projected_rows, config, share_rng=None, dealer_rng=None, **kwargs):
            views = ViewRecorder()
            if pin_dealer:
                dealer_rng = derive_rng(11)
            recorded.append(views)
            kwargs["views"] = views
            return secure_count(
                self, projected_rows, config, share_rng=share_rng, dealer_rng=dealer_rng, **kwargs
            )

        monkeypatch.setattr(TriangleStatistic, "secure_count", recording)
        config = StreamingConfig(
            epsilon=4.0,
            release_every=60,
            anchor_every=1,
            seed=3,
            counting_backend=backend,
            batch_size=16,
            block_size=8,
        )
        result = StreamingCargo(config).run(stream)
        assert result.anchors_run == len(recorded) >= 2
        return recorded

    @pytest.mark.parametrize("backend", TRIANGLE_BACKENDS)
    def test_consecutive_anchors_share_no_opened_element(self, stream, backend, monkeypatch):
        anchors = self._anchor_views(stream, backend, monkeypatch)
        for earlier, later in zip(anchors, anchors[1:]):
            assert _shared_elements(earlier, later) == 0

    @pytest.mark.parametrize("backend", TRIANGLE_BACKENDS)
    def test_a_pinned_dealer_seed_repeats_openings(self, stream, backend, monkeypatch):
        # The control: a dealer seed pinned across anchors re-serves its
        # masks, and every opening of an unchanged input comes back.
        anchors = self._anchor_views(stream, backend, monkeypatch, pin_dealer=True)
        for earlier, later in zip(anchors, anchors[1:]):
            assert _shared_elements(earlier, later) > 0


class TestRemovedReuseOptions:
    """The options that re-served dealt material are gone, not ignored."""

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: CargoConfig(epsilon=1.0, triple_store=object()), id="cargo-store"),
            pytest.param(lambda: CargoConfig(epsilon=1.0, offline_seed=1), id="cargo-offline-seed"),
            pytest.param(
                lambda: StreamingConfig(epsilon=1.0, triple_store=object()), id="stream-store"
            ),
            pytest.param(
                lambda: StreamingConfig(epsilon=1.0, offline_seed=1), id="stream-offline-seed"
            ),
            pytest.param(
                lambda: ProtocolSweep(datasets=["facebook"], triple_store=object()),
                id="sweep-store",
            ),
            pytest.param(
                lambda: ProtocolSweep(datasets=["facebook"], offline_seed=1),
                id="sweep-offline-seed",
            ),
            pytest.param(
                lambda: ResilienceConfig(strict_integrity=True), id="resilience-strict-integrity"
            ),
            pytest.param(
                lambda: FaithfulTriangleCounter(triple_store=object()), id="faithful-store"
            ),
            pytest.param(
                lambda: BlockedMatrixTriangleCounter(triple_store=object()), id="blocked-store"
            ),
        ],
    )
    def test_option_is_rejected(self, build):
        with pytest.raises(TypeError):
            build()

    def test_strict_integrity_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--num-nodes", "24", "--strict-integrity"])
        assert exit_info.value.code == 2
        assert "--strict-integrity" in capsys.readouterr().err

    def test_store_and_pool_reuse_are_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.parallel.store")
        import repro
        import repro.parallel

        for module in (repro, repro.parallel):
            assert not hasattr(module, "TripleStore")
        for name in ("fingerprint", "export_pool", "import_pool"):
            assert not hasattr(MultiplicationGroupDealer, name)
