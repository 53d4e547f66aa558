"""Tests for repro.graph.datasets."""

from __future__ import annotations

import pytest

from repro.exceptions import DatasetError
from repro.graph.datasets import (
    DATASET_REGISTRY,
    DEFAULT_SCALE,
    available_datasets,
    dataset_spec,
    load_dataset,
)
from repro.graph.io import write_edge_list
from repro.graph.triangles import count_triangles


class TestRegistry:
    def test_paper_datasets_present(self):
        for name in ("facebook", "wiki", "hepph", "enron"):
            assert name in DATASET_REGISTRY

    def test_table3_datasets_present(self):
        for name in ("condmat", "astroph", "hepth", "grqc"):
            assert name in DATASET_REGISTRY

    def test_available_datasets_order(self):
        assert available_datasets()[0] == "facebook"

    def test_spec_lookup_case_insensitive(self):
        assert dataset_spec("FaceBook").name == "facebook"

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError):
            dataset_spec("does-not-exist")

    def test_table4_statistics_recorded(self):
        spec = dataset_spec("enron")
        assert spec.num_nodes == 36_692
        assert spec.num_edges == 183_831
        assert spec.max_degree == 2_766
        assert spec.domain == "communication network"


class TestLoading:
    def test_num_nodes_override(self):
        graph = load_dataset("facebook", num_nodes=150)
        assert graph.num_nodes == 150

    def test_deterministic(self):
        assert load_dataset("wiki", num_nodes=120) == load_dataset("wiki", num_nodes=120)

    def test_seed_changes_graph(self):
        base = load_dataset("wiki", num_nodes=120)
        reseeded = load_dataset("wiki", num_nodes=120, seed=99)
        assert base != reseeded

    def test_options_are_keyword_only(self):
        # A positional 128 must not be read as a 128x scale.
        with pytest.raises(TypeError):
            load_dataset("facebook", 128)

    def test_scale_controls_size(self):
        spec = dataset_spec("grqc")
        graph = load_dataset("grqc", scale=0.05)
        assert graph.num_nodes == spec.scaled_nodes(0.05)

    def test_default_scale_matches_spec(self):
        spec = dataset_spec("hepth")
        graph = load_dataset("hepth")
        assert graph.num_nodes == spec.scaled_nodes(DEFAULT_SCALE)

    def test_has_many_triangles(self):
        graph = load_dataset("facebook", num_nodes=200)
        assert count_triangles(graph) > 100

    def test_invalid_scale(self):
        with pytest.raises(DatasetError):
            load_dataset("facebook", scale=0)

    def test_too_few_nodes(self):
        with pytest.raises(DatasetError):
            load_dataset("facebook", num_nodes=5)

    def test_relative_sizes_preserved(self):
        facebook = load_dataset("facebook", scale=0.05)
        enron = load_dataset("enron", scale=0.05)
        assert enron.num_nodes > facebook.num_nodes


class TestEdgeListOverride:
    def test_loads_real_edge_list_when_present(self, tmp_path):
        graph = load_dataset("grqc", num_nodes=60)
        write_edge_list(graph, tmp_path / "grqc.txt")
        loaded = load_dataset("grqc", edge_list_dir=str(tmp_path))
        assert loaded.num_edges == graph.num_edges

    def test_missing_edge_list_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset("grqc", edge_list_dir=str(tmp_path))
