"""A look inside CARGO's secure triangle counting.

This example walks through the cryptographic pipeline step by step on a tiny
graph so the intermediate objects fit on screen: sharing the adjacency rows,
multiplying three shared bits with a multiplication group (Theorem 1), and
verifying that neither server's view reveals anything about the edges.

Run with::

    python examples/secure_counting_internals.py
"""

from __future__ import annotations

import numpy as np

from repro.core.backends import (
    FaithfulTriangleCounter,
    MatrixTriangleCounter,
    share_adjacency_rows,
)
from repro.crypto.multiplication_groups import MultiplicationGroupDealer
from repro.crypto.secure_ops import secure_multiply_triple
from repro.crypto.sharing import reconstruct, share_scalar
from repro.crypto.views import ViewRecorder
from repro.graph.graph import Graph
from repro.graph.triangles import count_triangles


def main() -> None:
    # The paper's running example: two triangles sharing the edge (3, 4).
    graph = Graph(5, edges=[(0, 3), (0, 4), (1, 3), (1, 4), (3, 4)])
    print(f"graph edges: {graph.edge_list()}")
    print(f"exact triangle count: {count_triangles(graph)}\n")

    # --- Step 1: each user secret-shares her adjacency bit vector -------- #
    rows = graph.adjacency_matrix()
    share1, share2 = share_adjacency_rows(rows, rng=0)
    print("user 3's true bit vector :", rows[3].tolist())
    print("share sent to server S1  :", [hex(int(x))[:8] + "…" for x in share1[3][:5]])
    print("share sent to server S2  :", [hex(int(x))[:8] + "…" for x in share2[3][:5]])
    print("(each share alone is a uniformly random ring element)\n")

    # --- Step 2: multiply three shared bits with one multiplication group #
    dealer = MultiplicationGroupDealer(seed=1)
    views = ViewRecorder()
    a = share_scalar(1, rng=2)   # a_{0,3}
    b = share_scalar(1, rng=3)   # a_{0,4}
    c = share_scalar(1, rng=4)   # a_{3,4}
    s1, s2 = secure_multiply_triple(
        (a.share1, a.share2), (b.share1, b.share2), (c.share1, c.share2),
        dealer.scalar_group(), views=views,
    )
    print("three-way product of the shared bits a_03 * a_04 * a_34:")
    print("  S1's output share :", s1)
    print("  S2's output share :", s2)
    print("  reconstruction    :", reconstruct(s1, s2), "(1 = the triple forms a triangle)")
    print("  S1 observed only  :", [f"{v:x}"[:8] + "…" for v in views.view(1).values()[0]], "\n")

    # --- Step 3: the full secure count, both backends -------------------- #
    faithful = FaithfulTriangleCounter(batch_size=16).count(rows, rng=5)
    matrix = MatrixTriangleCounter().count(rows, rng=6)
    print("faithful per-triple protocol:",
          f"shares ({faithful.share1}, {faithful.share2}) ->", faithful.reconstruct())
    print("matrix backend              :",
          f"shares ({matrix.share1}, {matrix.share2}) ->", matrix.reconstruct())
    print("\nBoth backends reconstruct the exact count; individually the shares")
    print("are meaningless, which is what lets two untrusted servers cooperate.")


if __name__ == "__main__":
    main()
