"""Shared configuration for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures (or an
ablation of one design choice, ``bench_ablation_*.py``) at a scaled-down
size, times it with pytest-benchmark, and prints the resulting rows so that
``pytest benchmarks/ --benchmark-only -s`` reproduces the artefacts verbatim.
"""

from __future__ import annotations

import pytest

#: Graph size used by the benchmark-scale experiments.  Small enough that the
#: whole suite runs in a few minutes; raise it for a paper-scale run.
BENCH_NUM_NODES = 150

#: Number of repeated protocol trials per benchmark cell.
BENCH_TRIALS = 2


@pytest.fixture(scope="session")
def bench_num_nodes() -> int:
    """Graph size shared by all benchmark experiments."""
    return BENCH_NUM_NODES


@pytest.fixture(scope="session")
def bench_trials() -> int:
    """Trial count shared by all benchmark experiments."""
    return BENCH_TRIALS
