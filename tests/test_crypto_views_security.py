"""Simulation-style security checks (Theorem 2).

The paper argues security in the simulation paradigm: everything a server
observes during `Count` / `Perturb` is either a fresh additive share or a
mask-difference opening, both of which are uniform ring elements independent
of the secret.  These tests check the empirical counterparts:

* openings recorded in the servers' views do not depend on the secret inputs
  when the correlated randomness (masks) is held fixed, and
* over many fresh maskings, the distribution of an opening is statistically
  indistinguishable (coarsely) between two different secrets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backends import BlockedMatrixTriangleCounter
from repro.core.backends.blocked import INPUT_LABEL
from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.multiplication_groups import MultiplicationGroupDealer
from repro.crypto.ring import DEFAULT_RING
from repro.crypto.secure_ops import secure_multiply_triple
from repro.crypto.sharing import share_scalar
from repro.crypto.views import ProtocolView, ViewEntry, ViewRecorder
from repro.exceptions import ProtocolError
from repro.graph.generators import erdos_renyi_graph


class TestViewRecorder:
    def test_observe_and_read_back(self):
        recorder = ViewRecorder()
        recorder.observe(1, "opening", 42)
        recorder.observe(2, "opening", 42)
        assert recorder.view(1).values("opening") == [42]
        assert len(recorder.view(2)) == 1

    def test_views_tuple(self):
        recorder = ViewRecorder()
        view1, view2 = recorder.views()
        assert isinstance(view1, ProtocolView) and isinstance(view2, ProtocolView)

    def test_invalid_server(self):
        recorder = ViewRecorder()
        with pytest.raises(ProtocolError):
            recorder.observe(3, "x", 1)
        with pytest.raises(ProtocolError):
            recorder.view(0)

    def test_values_filter_by_label(self):
        view = ProtocolView(server_index=1, entries=[
            ViewEntry(1, "a", 1), ViewEntry(1, "b", 2), ViewEntry(1, "a", 3),
        ])
        assert view.values("a") == [1, 3]
        assert view.values() == [1, 2, 3]


class TestMergeFromHardening:
    """Malformed shards raise typed errors instead of corrupting the merge."""

    def _shard(self) -> ViewRecorder:
        shard = ViewRecorder()
        shard.observe(1, "round", 10)
        shard.observe(2, "round", 20)
        return shard

    def test_valid_shard_merges_in_order(self):
        parent = ViewRecorder()
        parent.observe(1, "first", 1)
        parent.observe(2, "first", 2)
        parent.merge_from(self._shard())
        assert parent.view(1).values() == [1, 10]
        assert parent.view(2).values() == [2, 20]

    def test_non_recorder_shard_rejected(self):
        parent = ViewRecorder()
        with pytest.raises(ProtocolError, match="expects a ViewRecorder"):
            parent.merge_from({"1": [], "2": []})

    def test_shard_missing_a_server_rejected(self):
        parent = ViewRecorder()
        shard = self._shard()
        del shard._views[2]
        with pytest.raises(ProtocolError, match="does not cover both servers"):
            parent.merge_from(shard)

    def test_shard_with_extra_server_rejected(self):
        parent = ViewRecorder()
        shard = self._shard()
        shard._views[3] = ProtocolView(server_index=3)
        with pytest.raises(ProtocolError, match="does not cover both servers"):
            parent.merge_from(shard)

    def test_shard_with_entryless_view_rejected(self):
        parent = ViewRecorder()
        shard = self._shard()
        shard._views[1] = object()  # no .entries at all
        with pytest.raises(ProtocolError, match="no entries list"):
            parent.merge_from(shard)

    def test_shard_with_non_entry_payload_rejected(self):
        parent = ViewRecorder()
        shard = self._shard()
        shard._views[1].entries.append(("not", "an", "entry"))
        with pytest.raises(ProtocolError, match="expected ViewEntry"):
            parent.merge_from(shard)

    def test_shard_with_misfiled_entry_rejected(self):
        parent = ViewRecorder()
        shard = self._shard()
        shard._views[1].entries.append(ViewEntry(2, "round", 30))
        with pytest.raises(ProtocolError, match="belongs to"):
            parent.merge_from(shard)

    def test_rejected_shard_leaves_parent_untouched(self):
        parent = ViewRecorder()
        parent.observe(1, "first", 1)
        parent.observe(2, "first", 2)
        shard = self._shard()
        shard._views[2].entries.append(ViewEntry(1, "round", 99))
        with pytest.raises(ProtocolError):
            parent.merge_from(shard)
        assert parent.view(1).values() == [1]
        assert parent.view(2).values() == [2]


def _openings_for_secret(bits, mask_seed: int) -> tuple:
    """Run one 3-way multiplication and return the (e, f, g) opening."""
    dealer = MultiplicationGroupDealer(seed=mask_seed)
    recorder = ViewRecorder()
    pairs = [share_scalar(b, rng=mask_seed * 10 + i) for i, b in enumerate(bits)]
    secure_multiply_triple(
        (pairs[0].share1, pairs[0].share2),
        (pairs[1].share1, pairs[1].share2),
        (pairs[2].share1, pairs[2].share2),
        dealer.scalar_group(),
        views=recorder,
    )
    return recorder.view(1).values("mg_opening")[0]


class TestOpeningsHideSecrets:
    def test_views_identical_for_both_servers(self):
        dealer = MultiplicationGroupDealer(seed=0)
        recorder = ViewRecorder()
        pairs = [share_scalar(bit, rng=index) for index, bit in enumerate((1, 0, 1))]
        secure_multiply_triple(
            (pairs[0].share1, pairs[0].share2),
            (pairs[1].share1, pairs[1].share2),
            (pairs[2].share1, pairs[2].share2),
            dealer.scalar_group(),
            views=recorder,
        )
        # The opening round reveals identical masked values to both servers.
        assert recorder.view(1).values() == recorder.view(2).values()

    def test_opening_changes_with_masks_not_with_secret_only(self):
        """Same secret, fresh masks -> different openings (masking is live)."""
        first = _openings_for_secret((1, 1, 1), mask_seed=1)
        second = _openings_for_secret((1, 1, 1), mask_seed=2)
        assert first != second

    def test_openings_span_large_values(self):
        """Openings of 0/1 secrets are full-range ring elements, not small ints."""
        openings = [
            value
            for seed in range(20)
            for value in _openings_for_secret((1, 0, 1), mask_seed=seed)
        ]
        assert max(openings) > 2**60

    def test_opening_distribution_similar_across_secrets(self):
        """Coarse indistinguishability: mean opening magnitude is secret-independent."""
        means = {}
        for label, bits in {"all_ones": (1, 1, 1), "all_zeros": (0, 0, 0)}.items():
            values = [
                float(np.mean(_openings_for_secret(bits, mask_seed=seed)))
                for seed in range(40)
            ]
            means[label] = np.mean(values)
        # Both averages are near the ring midpoint 2^63; allow a wide band.
        midpoint = float(DEFAULT_RING.half)
        for value in means.values():
            assert 0.5 * midpoint < value < 1.5 * midpoint


def _mask_once_views(graph, seed: int) -> ViewRecorder:
    """Both servers' views of one blocked count (the masked input and the F opening)."""
    views = ViewRecorder()
    BlockedMatrixTriangleCounter(
        dealer=BeaverTripleDealer(seed=seed), block_size=8, views=views
    ).count(graph.adjacency_matrix(), rng=seed)
    return views


def _opened(views: ViewRecorder, server: int, label: str) -> np.ndarray:
    (value,) = views.view(server).values(label)
    return np.concatenate([np.asarray(part, dtype=np.uint64) for part in value])


class TestMaskOnceOpeningsHideSecrets:
    """What the blocked kernel's servers see: the users' E = C - X, then the opened F = M - Y'."""

    LABELS = (INPUT_LABEL, "finish_opening")

    def test_views_identical_for_both_servers(self):
        views = _mask_once_views(erdos_renyi_graph(20, 0.4, seed=1), seed=2)
        for label in self.LABELS:
            assert np.array_equal(_opened(views, 1, label), _opened(views, 2, label))

    def test_openings_span_the_ring(self):
        """Openings of 0/1 adjacency and small counts are full-range ring elements."""
        views = _mask_once_views(erdos_renyi_graph(20, 1.0, seed=0), seed=3)
        for label in self.LABELS:
            values = _opened(views, 1, label)
            assert values.size == 20 * 19 // 2
            assert values.max() > 2**63 and values.min() < 2**60

    def test_opening_distribution_similar_across_secrets(self):
        """Coarse indistinguishability: an empty and a complete graph of the
        same n open values of the same mean magnitude, near the midpoint."""
        midpoint = float(DEFAULT_RING.half)
        graphs = {
            "empty": erdos_renyi_graph(24, 0.0, seed=0),
            "complete": erdos_renyi_graph(24, 1.0, seed=0),
        }
        for label in self.LABELS:
            means = {
                name: np.mean(
                    [
                        np.mean(_opened(_mask_once_views(graph, seed), 1, label).astype(float))
                        for seed in range(10)
                    ]
                )
                for name, graph in graphs.items()
            }
            for value in means.values():
                assert 0.9 * midpoint < value < 1.1 * midpoint, (label, means)
            assert abs(means["empty"] - means["complete"]) < 0.1 * midpoint, (label, means)
