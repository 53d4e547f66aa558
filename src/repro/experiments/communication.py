"""Communication-overhead experiment (extension beyond the paper's figures).

The paper reports running time (Figures 11-12) but discusses communication
only qualitatively.  This experiment quantifies it: for each protocol phase
it reports the number of messages and bytes exchanged between the users,
the two servers and the dealer, per graph size, using the byte-accounting
runtime.  On the default ``matrix`` backend the adjacency upload is user
``i``'s ``n - 1 - i`` entries above the diagonal (the only ones the
triangle count reads) masked, to both servers, and the dealer sends each
user her two 32-byte row seeds of the mask (``input_masks``); the
share-based backends book server 1's share as the users' 32-byte seeds,
which is what crosses the wire.  It is the basis of the
`bench_ext_communication.py` benchmark; ``docs/observability.md`` reads a
release's per-phase traffic table.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.cargo import Cargo
from repro.core.config import CargoConfig
from repro.experiments.runner import ExperimentReport
from repro.graph.datasets import load_dataset


def communication_overhead(
    dataset: str = "facebook",
    user_counts: Sequence[int] = (50, 100, 200),
    epsilon: float = 2.0,
    seed: int = 0,
) -> ExperimentReport:
    """Measure CARGO's communication footprint as the number of users grows.

    Per graph size the report contains the total message count, the total
    bytes, and the bytes attributable to the adjacency-share upload (the
    dominant term, ``8 n (n - 1)`` on the default ``matrix`` backend: user
    ``i`` uploads her ``n - 1 - i`` masked elements ``a_ij - x_ij``,
    ``j > i``, to each server).  The totals include the dealer's
    ``input_masks``, ``64 n`` bytes.
    """
    report = ExperimentReport(
        name="ext-communication",
        description=f"communication overhead vs number of users on {dataset} (epsilon={epsilon})",
        columns=[
            "dataset",
            "num_users",
            "total_messages",
            "total_bytes",
            "adjacency_share_bytes",
            "noise_share_bytes",
            "bytes_per_user",
        ],
    )
    for num_users in user_counts:
        graph = load_dataset(dataset, num_nodes=num_users)
        config = CargoConfig(epsilon=epsilon, seed=seed, track_communication=True)
        result = Cargo(config).run(graph)
        total_messages = sum(entry["messages"] for entry in result.communication.values())
        total_bytes = sum(entry["bytes"] for entry in result.communication.values())
        # Every message is tagged with its protocol phase at send time, so
        # the adjacency-share/noise-share split is read straight off the
        # ledger instead of being reconstructed from message sizes.
        phases = result.communication_phases
        adjacency_bytes = phases.get("adjacency_share", {}).get("bytes", 0)
        noise_bytes = phases.get("noise_share", {}).get("bytes", 0)
        report.add_row(
            dataset=dataset,
            num_users=num_users,
            total_messages=total_messages,
            total_bytes=total_bytes,
            adjacency_share_bytes=adjacency_bytes,
            noise_share_bytes=noise_bytes,
            bytes_per_user=total_bytes / max(num_users, 1),
        )
    return report
