"""The release benchmark's workloads: one CARGO configuration on one generated graph each.

The seed given on the command line generates the graph and derives every
release seed, so the program only ever sees generated inputs.  Why each
workload exists is recorded in ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict

import numpy as np

from repro.core import CargoConfig
from repro.crypto.mac import OpeningAuthenticator
from repro.graph import Graph, load_dataset, sparse_random_graph

#: Node count of every workload under ``--smoke``.
SMOKE_NODES = 64


def facebook_graph(num_nodes: int, seed: int) -> Graph:
    return load_dataset("facebook", num_nodes=num_nodes, seed=seed)


def sparse_graph(num_nodes: int, seed: int) -> Graph:
    return sparse_random_graph(num_nodes, 3 * num_nodes, seed=seed)


@dataclass(frozen=True)
class Workload:
    """One graph family and size plus the `CargoConfig` fields of its timed releases.

    *setups* is how many times one run builds a fresh graph and warms it up
    (``setup_s`` is their median); *min_releases* is the least number of
    timed releases per run, which ``rel_error`` is taken over so that it
    depends on the seed alone, not on how many releases fit the time budget.
    """

    name: str
    build_graph: Callable[[int, int], Graph]
    num_nodes: int
    options: Dict[str, object] = field(default_factory=dict)
    setups: int = 2
    min_releases: int = 2

    def smoke(self) -> "Workload":
        """The same workload at ``SMOKE_NODES`` nodes with one set-up and one release.

        Block sizes shrink with ``n`` so the tile schedule (and its number of
        opening rounds) keeps its shape.
        """
        options = dict(self.options)
        if "block_size" in options:
            options["block_size"] = max(1, options["block_size"] * SMOKE_NODES // self.num_nodes)
        return replace(self, num_nodes=SMOKE_NODES, options=options, setups=1, min_releases=1)

    def timed_config(self, seed: int) -> CargoConfig:
        return CargoConfig(seed=seed, **self.options)

    def check_config(self, seed: int) -> CargoConfig:
        """The in-process twin of a timed release with views, ledger and MAC counting on.

        The injected authenticator counts every MAC-checked opening round;
        honest authenticated releases are bit-identical to plain ones.
        """
        options = {
            key: value
            for key, value in self.options.items()
            if key not in ("distributed", "authenticate")
        }
        options.update(
            record_views=True,
            track_communication=True,
            authenticator=OpeningAuthenticator(seed=seed),
        )
        return CargoConfig(seed=seed, **options)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "tri-blocked-1024",
            facebook_graph,
            1024,
            {"counting_backend": "blocked", "block_size": 128},
        ),
        Workload("tri-matrix-768", facebook_graph, 768, {"counting_backend": "matrix"}),
        Workload(
            "kstars-sparse-100k",
            sparse_graph,
            100_000,
            {"statistic": "kstars", "star_k": 3, "track_communication": True},
        ),
        Workload(
            "tri-dist-auth-512",
            facebook_graph,
            512,
            {
                "counting_backend": "blocked",
                "block_size": 64,
                "authenticate": True,
                "distributed": True,
            },
            setups=3,
            min_releases=5,
        ),
    )
}


def release_seed(seed: int, index: int) -> int:
    """The seed of the *index*-th release of a run with workload seed *seed*."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def reference_count(graph: Graph, workload: Workload) -> int:
    """The exact statistic, computed without any of the program's counting code."""
    edges = np.asarray(graph.edge_list(), dtype=np.int64).reshape(-1, 2)
    if workload.options.get("statistic", "triangles") == "kstars":
        degrees = np.bincount(edges.ravel(), minlength=graph.num_nodes)
        values, counts = np.unique(degrees, return_counts=True)
        k = int(workload.options["star_k"])
        return sum(int(c) * math.comb(int(d), k) for d, c in zip(values, counts))
    adjacency = np.zeros((graph.num_nodes, graph.num_nodes))
    adjacency[edges[:, 0], edges[:, 1]] = 1.0
    adjacency[edges[:, 1], edges[:, 0]] = 1.0
    # Entries of A @ A are at most n, so float64 sums are exact here.
    return int(round(float(((adjacency @ adjacency) * adjacency).sum()) / 6))
