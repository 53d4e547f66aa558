"""Random graph generators.

The generators are implemented directly on :class:`~repro.graph.graph.Graph`
(not via networkx) so that the library is self-contained and fully seeded.
They cover the families needed to stand in for the paper's real-world graphs:

* :func:`erdos_renyi_graph` — G(n, p) baseline with no degree heterogeneity,
* :func:`barabasi_albert_graph` — preferential attachment, heavy-tailed
  degrees but few triangles,
* :func:`powerlaw_cluster_graph` — Holme–Kim model: preferential attachment
  plus triad closure, giving both heavy-tailed degrees *and* high clustering
  (the combination exhibited by social / citation / communication graphs),
* :func:`watts_strogatz_graph` — small-world ring rewiring, very high
  clustering, near-uniform degrees,
* :func:`stochastic_block_model_graph` — community structure,
* :func:`random_regular_graph` — constant degree (useful for worst cases in
  tests).
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graph.graph import Graph
from repro.utils.rng import RandomState, derive_rng
from repro.utils.validation import check_in_range, check_probability, check_positive


def erdos_renyi_graph(num_nodes: int, edge_probability: float, seed: RandomState = None) -> Graph:
    """G(n, p): each of the ``n*(n-1)/2`` possible edges appears independently."""
    check_probability("edge_probability", edge_probability)
    if num_nodes < 0:
        raise ConfigurationError(f"num_nodes must be non-negative, got {num_nodes}")
    rng = derive_rng(seed)
    graph = Graph(num_nodes)
    if num_nodes < 2 or edge_probability == 0.0:
        return graph
    # Vectorised upper-triangular Bernoulli draw keeps generation fast for the
    # graph sizes used in benchmarks (a few thousand nodes).
    upper = np.triu(rng.random((num_nodes, num_nodes)) < edge_probability, k=1)
    rows, cols = np.nonzero(upper)
    for u, v in zip(rows.tolist(), cols.tolist()):
        graph.add_edge(int(u), int(v))
    return graph


def sparse_random_graph(
    num_nodes: int, num_edges: int, seed: RandomState = None
) -> Graph:
    """Uniform random graph with exactly *num_edges* edges in ``O(m)`` memory.

    The G(n, p) generator above draws the full ``n x n`` Bernoulli matrix,
    which stops being viable past a few thousand nodes.  This generator
    samples endpoint pairs directly (rejecting self-loops and duplicates),
    so a 100k-node sparse graph costs memory proportional to its edge count
    — the scale the sparse release path and the out-of-core benchmarks run
    at.  The result is distributed as G(n, m).

    Examples
    --------
    >>> graph = sparse_random_graph(1000, 4000, seed=7)
    >>> (graph.num_nodes, graph.num_edges)
    (1000, 4000)
    """
    if num_nodes < 0:
        raise ConfigurationError(f"num_nodes must be non-negative, got {num_nodes}")
    max_edges = num_nodes * (num_nodes - 1) // 2
    if num_edges < 0 or num_edges > max_edges:
        raise ConfigurationError(
            f"num_edges must be in [0, {max_edges}] for {num_nodes} nodes, "
            f"got {num_edges}"
        )
    rng = derive_rng(seed)
    graph = Graph(num_nodes)
    if num_edges == 0:
        return graph
    remaining = num_edges
    while remaining > 0:
        # Batched rejection sampling: draw ~15% extra pairs per round so the
        # typical sparse case finishes in one or two vectorised draws.
        batch = int(remaining * 1.15) + 16
        endpoints = rng.integers(0, num_nodes, size=(batch, 2))
        for u, v in endpoints.tolist():
            if u == v:
                continue
            if graph.add_edge(u, v):
                remaining -= 1
                if remaining == 0:
                    break
    return graph


def barabasi_albert_graph(num_nodes: int, edges_per_node: int, seed: RandomState = None) -> Graph:
    """Barabási–Albert preferential attachment with *edges_per_node* new edges."""
    check_positive("edges_per_node", edges_per_node)
    if num_nodes < edges_per_node + 1:
        raise ConfigurationError(
            f"num_nodes ({num_nodes}) must exceed edges_per_node ({edges_per_node})"
        )
    rng = derive_rng(seed)
    graph = Graph(num_nodes)
    # Start from a star over the first m+1 nodes so every node has degree >= 1.
    repeated_nodes: List[int] = []
    for node in range(1, edges_per_node + 1):
        graph.add_edge(0, node)
        repeated_nodes.extend((0, node))
    for new_node in range(edges_per_node + 1, num_nodes):
        targets: set[int] = set()
        while len(targets) < edges_per_node:
            candidate = repeated_nodes[int(rng.integers(len(repeated_nodes)))]
            if candidate != new_node:
                targets.add(candidate)
        for target in targets:
            graph.add_edge(new_node, target)
            repeated_nodes.extend((new_node, target))
    return graph


def powerlaw_cluster_graph(
    num_nodes: int,
    edges_per_node: int,
    triangle_probability: float,
    seed: RandomState = None,
) -> Graph:
    """Holme–Kim power-law cluster model.

    Like Barabási–Albert, but after each preferential-attachment edge the new
    node closes a triangle with probability *triangle_probability* by also
    linking to a random neighbour of the node it just attached to.  This is
    the workhorse generator for the synthetic SNAP stand-ins because it
    produces both a heavy-tailed degree distribution (large ``d_max``) and a
    large triangle count.
    """
    check_positive("edges_per_node", edges_per_node)
    check_probability("triangle_probability", triangle_probability)
    if num_nodes < edges_per_node + 1:
        raise ConfigurationError(
            f"num_nodes ({num_nodes}) must exceed edges_per_node ({edges_per_node})"
        )
    rng = derive_rng(seed)
    graph = Graph(num_nodes)
    repeated_nodes: List[int] = []
    for node in range(1, edges_per_node + 1):
        graph.add_edge(0, node)
        repeated_nodes.extend((0, node))
    for new_node in range(edges_per_node + 1, num_nodes):
        added = 0
        while added < edges_per_node:
            candidate = repeated_nodes[int(rng.integers(len(repeated_nodes)))]
            if candidate == new_node or graph.has_edge(new_node, candidate):
                continue
            graph.add_edge(new_node, candidate)
            repeated_nodes.extend((new_node, candidate))
            added += 1
            # Triad-closure step: try to close a triangle through `candidate`.
            if added < edges_per_node and rng.random() < triangle_probability:
                neighbours = [
                    w
                    for w in graph.neighbor_view(candidate)
                    if w != new_node and not graph.has_edge(new_node, w)
                ]
                if neighbours:
                    friend = neighbours[int(rng.integers(len(neighbours)))]
                    graph.add_edge(new_node, friend)
                    repeated_nodes.extend((new_node, friend))
                    added += 1
    return graph


def watts_strogatz_graph(
    num_nodes: int,
    nearest_neighbors: int,
    rewire_probability: float,
    seed: RandomState = None,
) -> Graph:
    """Watts–Strogatz small-world graph (ring lattice with random rewiring)."""
    check_probability("rewire_probability", rewire_probability)
    if nearest_neighbors % 2 != 0:
        raise ConfigurationError(
            f"nearest_neighbors must be even, got {nearest_neighbors}"
        )
    if nearest_neighbors >= num_nodes:
        raise ConfigurationError(
            f"nearest_neighbors ({nearest_neighbors}) must be < num_nodes ({num_nodes})"
        )
    rng = derive_rng(seed)
    graph = Graph(num_nodes)
    half = nearest_neighbors // 2
    for node in range(num_nodes):
        for offset in range(1, half + 1):
            graph.add_edge(node, (node + offset) % num_nodes)
    # Rewire each original lattice edge with the requested probability.
    for node in range(num_nodes):
        for offset in range(1, half + 1):
            neighbour = (node + offset) % num_nodes
            if rng.random() < rewire_probability:
                candidates = [
                    w
                    for w in range(num_nodes)
                    if w != node and not graph.has_edge(node, w)
                ]
                if candidates and graph.has_edge(node, neighbour):
                    new_neighbour = candidates[int(rng.integers(len(candidates)))]
                    graph.remove_edge(node, neighbour)
                    graph.add_edge(node, new_neighbour)
    return graph


def stochastic_block_model_graph(
    block_sizes: Sequence[int],
    intra_probability: float,
    inter_probability: float,
    seed: RandomState = None,
) -> Graph:
    """Stochastic block model with uniform intra- and inter-block densities."""
    check_probability("intra_probability", intra_probability)
    check_probability("inter_probability", inter_probability)
    if any(size <= 0 for size in block_sizes):
        raise ConfigurationError("every block size must be positive")
    rng = derive_rng(seed)
    num_nodes = int(sum(block_sizes))
    block_of = np.zeros(num_nodes, dtype=np.int64)
    start = 0
    for block_id, size in enumerate(block_sizes):
        block_of[start : start + size] = block_id
        start += size
    graph = Graph(num_nodes)
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            probability = (
                intra_probability if block_of[u] == block_of[v] else inter_probability
            )
            if rng.random() < probability:
                graph.add_edge(u, v)
    return graph


def _pair_stubs(num_nodes: int, degree: int, rng) -> Optional[Set[Tuple[int, int]]]:
    """One Steger–Wormald pairing: its edge set, or ``None`` when it gets stuck."""
    edges: Set[Tuple[int, int]] = set()
    stubs = np.repeat(np.arange(num_nodes), degree)
    while stubs.size:
        rng.shuffle(stubs)
        leftover = []
        for u, v in zip(stubs[0::2].tolist(), stubs[1::2].tolist()):
            edge = (min(u, v), max(u, v))
            if u != v and edge not in edges:
                edges.add(edge)
            else:
                leftover += edge
        if leftover and all(
            edge in edges for edge in itertools.combinations(sorted(set(leftover)), 2)
        ):
            return None
        stubs = np.array(leftover)
    return edges


def random_regular_graph(num_nodes: int, degree: int, seed: RandomState = None) -> Graph:
    """Random *degree*-regular graph by Steger–Wormald stub pairing.

    Pairs shuffled degree stubs and keeps every pair that makes a new simple
    edge; only the stubs of rejected pairs (a self-loop or a repeated edge)
    are reshuffled and paired again, so one collision never discards the
    whole pairing.  A pairing starts over only when its leftover stubs admit
    no new edge at all, which is rare (Steger and Wormald, 1999).
    """
    check_in_range("degree", degree, low=0)
    if (num_nodes * degree) % 2 != 0:
        raise ConfigurationError("num_nodes * degree must be even")
    if degree >= num_nodes:
        raise ConfigurationError(
            f"degree ({degree}) must be smaller than num_nodes ({num_nodes})"
        )
    rng = derive_rng(seed)
    for _ in range(1000):
        edges = _pair_stubs(num_nodes, degree, rng)
        if edges is not None:
            graph = Graph(num_nodes)
            for u, v in sorted(edges):
                graph.add_edge(u, v)
            return graph
    raise ConfigurationError(
        f"failed to realise a simple {degree}-regular graph on {num_nodes} nodes"
    )
