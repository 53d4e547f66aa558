"""Smoke tests of the release benchmark; run with ``pytest benchmarks/release``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [workload["name"] for workload in DECLARED["workloads"]]

sys.path.insert(0, str(ROOT / "src"))


def run_smoke(*extra: str) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--seed", "0", "--smoke", *extra]
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=False
    )
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.splitlines()[-1])


def report(name: str) -> dict:
    return json.loads((HERE / "results" / f"{name}-seed0-smoke-trace.json").read_text())


@pytest.fixture(scope="module")
def untraced() -> dict:
    return run_smoke()


@pytest.fixture(scope="module")
def traced() -> dict:
    return run_smoke("--trace")


@pytest.mark.parametrize("kind,result", [("end_to_end", "untraced"), ("per_layer", "traced")])
def test_every_declared_metric_is_emitted_with_its_unit(kind, result, request):
    summary = request.getfixturevalue(result)
    assert summary["correct"] and summary["failed"] == 0
    for name in NAMES:
        emitted = summary["metrics"][name]
        assert set(emitted) == {metric["name"] for metric in DECLARED[kind]}
        for metric in DECLARED[kind]:
            assert emitted[metric["name"]]["unit"] == metric["unit"]


def test_layer_self_times_are_non_negative_and_sum_to_the_release(traced):
    for name in NAMES:
        layers = report(name)["layers"]
        assert layers and all(row["self_s"] >= 0 for row in layers.values())
        spans = json.loads(
            (HERE / "results" / f"{name}-seed0-smoke-trace-spans.json").read_text()
        )["spans"]
        (release,) = [span for span in spans if span["name"] == "release"]
        wall = release["end"] - release["start"]
        assert sum(row["self_s"] for row in layers.values()) == pytest.approx(wall)


def test_no_wrapper_is_installed_during_untraced_timing(traced):
    for name in NAMES:
        checks = [c for c in report(name)["checks"] if c["name"] == "untraced_timing_unwrapped"]
        assert len(checks) == 2 and all(check["ok"] for check in checks)


def test_traced_block_restores_every_original():
    import layers
    from repro.core import backends
    from repro.crypto.ring import Ring

    originals = (Ring.matmul, backends.share_adjacency_rows)
    with layers.traced():
        assert layers.installed() > 0
        assert Ring.matmul is not originals[0]
        assert backends.share_adjacency_rows is not originals[1]
    assert layers.installed() == 0
    assert (Ring.matmul, backends.share_adjacency_rows) == originals
