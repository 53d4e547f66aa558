"""Synthetic stand-ins for the SNAP datasets used in the paper.

The paper evaluates on four SNAP graphs (Facebook, Wiki-Vote, HepPh, Enron;
Table IV) and five more for the sensitivity comparison in Table III (CondMat,
AstroPh, HepPh, HepTh, GrQc).  This environment has no network access, so the
registry below generates deterministic synthetic graphs whose *shape* matches
the originals on the axes that drive every experiment in the paper:

* a heavy-tailed degree distribution with a large maximum degree,
* high clustering (many triangles, triangle homogeneity), and
* the original edge density at a configurable scale of the node count.

All graphs are produced by the Holme–Kim power-law-cluster model with the
``edges_per_node`` chosen to match the original average degree and a high
triangle-closure probability.  The default ``scale`` keeps generation and the
O(n^3) faithful secure-count tractable on a laptop; ``scale=1.0`` reproduces
the full node counts if you have the patience.

Real SNAP edge lists can still be used: pass a directory of ``<name>.txt``
files to :func:`load_dataset` via ``edge_list_dir`` and the synthetic
generation is bypassed entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from repro.exceptions import DatasetError
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list
from repro.utils.rng import stable_seed_from_name


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one dataset and the parameters of its synthetic stand-in.

    Attributes
    ----------
    name:
        Registry key (lower-case, e.g. ``"facebook"``).
    num_nodes:
        Node count of the original SNAP graph (|V| in Table IV).
    num_edges:
        Edge count of the original SNAP graph (|E| in Table IV).
    max_degree:
        Maximum degree of the original graph (d_max in Table IV).
    domain:
        The domain label reported in Table IV.
    edges_per_node:
        Holme–Kim attachment parameter for the synthetic version, chosen so
        the synthetic average degree approximates ``num_edges / num_nodes``.
    triangle_probability:
        Holme–Kim triad-closure probability; high values give the strong
        clustering these real graphs exhibit.
    """

    name: str
    num_nodes: int
    num_edges: int
    max_degree: int
    domain: str
    edges_per_node: int
    triangle_probability: float

    def scaled_nodes(self, scale: float) -> int:
        """Node count at the requested *scale* (at least ``edges_per_node + 2``)."""
        return max(int(round(self.num_nodes * scale)), self.edges_per_node + 2)


#: The datasets used in the paper's evaluation (Table IV) and Table III.
DATASET_REGISTRY: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        # Table IV — main evaluation graphs.
        DatasetSpec("facebook", 4_039, 88_234, 1_045, "social network", 22, 0.85),
        DatasetSpec("wiki", 7_115, 103_689, 1_167, "vote network", 15, 0.55),
        DatasetSpec("hepph", 12_008, 118_521, 982, "citation network", 10, 0.75),
        DatasetSpec("enron", 36_692, 183_831, 2_766, "communication network", 5, 0.65),
        # Table III — sensitivity-comparison graphs.
        DatasetSpec("condmat", 23_133, 93_497, 279, "collaboration network", 4, 0.70),
        DatasetSpec("astroph", 18_772, 198_110, 504, "collaboration network", 11, 0.70),
        DatasetSpec("hepth", 9_877, 25_998, 65, "collaboration network", 3, 0.60),
        DatasetSpec("grqc", 5_242, 14_496, 81, "collaboration network", 3, 0.70),
    )
}

#: Default fraction of the original node count used when generating synthetic
#: stand-ins.  Chosen so the largest graph stays small enough for the secure
#: protocols to run in CI while preserving the relative graph sizes.
DEFAULT_SCALE = 0.25


def available_datasets() -> list[str]:
    """Names of all registered datasets, in registry order."""
    return list(DATASET_REGISTRY)


def dataset_spec(name: str) -> DatasetSpec:
    """Return the :class:`DatasetSpec` registered under *name* (case-insensitive)."""
    key = name.lower()
    if key not in DATASET_REGISTRY:
        raise DatasetError(
            f"unknown dataset {name!r}; available: {', '.join(DATASET_REGISTRY)}"
        )
    return DATASET_REGISTRY[key]


def load_dataset(
    name: str,
    *,
    scale: float = DEFAULT_SCALE,
    num_nodes: Optional[int] = None,
    seed: Optional[int] = None,
    edge_list_dir: Optional[str] = None,
) -> Graph:
    """Load (or synthesise) the dataset registered under *name*.

    Every parameter after *name* is keyword-only: a positional node count
    (``load_dataset("facebook", 128)``) would otherwise be read as a 128×
    *scale*.

    Parameters
    ----------
    name:
        Registry key, e.g. ``"facebook"`` or ``"enron"``.
    scale:
        Fraction of the original node count to generate (ignored when
        *num_nodes* is given or a real edge list is found).  ``1.0``
        reproduces the full size of the original graph.
    num_nodes:
        Explicit node count override; takes precedence over *scale*.
    seed:
        Optional extra seed mixed into the dataset's deterministic seed.
        By default the same name always produces the same graph.
    edge_list_dir:
        If given and ``<edge_list_dir>/<name>.txt`` exists, the real edge
        list is read instead of generating a synthetic graph.
    """
    spec = dataset_spec(name)

    if edge_list_dir is not None:
        candidate = Path(edge_list_dir) / f"{spec.name}.txt"
        if candidate.exists():
            return read_edge_list(candidate)
        raise DatasetError(f"edge list for {name!r} not found at {candidate}")

    if scale <= 0:
        raise DatasetError(f"scale must be positive, got {scale}")
    target_nodes = num_nodes if num_nodes is not None else spec.scaled_nodes(scale)
    if target_nodes <= spec.edges_per_node:
        raise DatasetError(
            f"num_nodes={target_nodes} is too small for dataset {name!r} "
            f"(needs > {spec.edges_per_node})"
        )
    graph_seed = stable_seed_from_name(spec.name, base_seed=seed)
    return powerlaw_cluster_graph(
        num_nodes=target_nodes,
        edges_per_node=spec.edges_per_node,
        triangle_probability=spec.triangle_probability,
        seed=graph_seed,
    )
