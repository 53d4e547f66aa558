"""Micro-benchmarks of the cryptographic building blocks.

Not a paper artefact, but useful for understanding where CARGO's running time
(Figures 11-12) comes from: per-triple three-way multiplications versus the
matrix-Beaver products used by the vectorised backend.

Besides the pytest-benchmark fixtures, :func:`run_crypto_primitives` produces
plain JSON rows (``benchmarks/results/crypto_primitives.json``, or
``REPRO_BENCH_CRYPTO_OUTPUT``) consumed by the CI perf-smoke regression gate.

:func:`run_ring_matmul_sweep` times ``Ring.matmul``'s two exact kernels —
numpy's int64 loop and the float64 limb-split BLAS path — on n x n products
of uniformly random ring elements (the dealer's operands), plus the two
m x 2k x n shapes of the servers' one-product Beaver combine, records the
float64 GEMMs each product runs, and writes
``benchmarks/results/ring_matmul.json`` with the crossover size that
``repro.crypto.ring.BLAS_MIN_MULTIPLY_ADDS`` cites::

    PYTHONPATH=src python benchmarks/bench_crypto_primitives.py --ring-matmul
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.crypto.beaver import BeaverTripleDealer
from repro.crypto.multiplication_groups import MultiplicationGroupDealer
from repro.crypto.ring import (
    BLAS_MIN_MULTIPLY_ADDS,
    DEFAULT_RING,
    inner_chunks,
    int64_matmul,
    limb_matmul,
    limb_pairs,
    limb_width,
)
from repro.crypto.secure_ops import secure_matrix_multiply, secure_multiply_triple
from repro.crypto.sharing import share_scalar, share_vector
from repro.telemetry.profiling import measure_peak_bytes
from repro.utils.atomic import atomic_write_json

#: Sizes for the JSON runner (kept small: these feed a CI smoke job).
VECTOR_BATCH = 10_000
MATRIX_N = 128
PROVISION_COUNT = 50_000
#: Size of the gated ring-matmul row: the matrix backend's product at n=768.
RING_MATMUL_N = 768
#: Sizes of the int64-vs-limb sweep.
RING_MATMUL_SWEEP = (32, 64, 96, 128, 192, 256, 384, 768, 1024)
#: ``(m, k, n)`` of the servers' one-product Beaver combine ``[E | X] @ [Y ; F]``
#: at the matrix backend's n=768 and the blocked backend's 128-wide tiles.
RING_MATMUL_SERVER_SHAPES = ((768, 1536, 768), (128, 256, 128))


def _best_of(callable_, reps: int) -> float:
    best = None
    for _ in range(max(reps, 1)):
        start = time.perf_counter()
        callable_()
        seconds = time.perf_counter() - start
        best = seconds if best is None else min(best, seconds)
    return best


def _random_ring_matrices(n: int, seed: int, inner=None, cols=None):
    """Random ``n x inner`` and ``inner x cols`` ring matrices (square by default)."""
    rng = np.random.default_rng(seed)
    inner = n if inner is None else inner
    cols = n if cols is None else cols
    return (
        DEFAULT_RING.random_array((n, inner), rng),
        DEFAULT_RING.random_array((inner, cols), rng),
    )


def limb_gemms(inner: int, bits: int = 64) -> int:
    """Float64 GEMMs one full-width limb product of inner dimension *inner* runs."""
    return sum(
        limb_pairs(bits, bits, limb_width(stop - start), bits)
        for start, stop in inner_chunks(inner, bits, bits, bits)
    )


def run_crypto_primitives(reps: int = 5):
    """Time each primitive *reps* times and report the minimum per row."""

    rows = []
    rng = np.random.default_rng(5)

    vec_a = share_vector(rng.integers(0, 2, VECTOR_BATCH), rng=6)
    vec_b = share_vector(rng.integers(0, 2, VECTOR_BATCH), rng=7)
    vec_c = share_vector(rng.integers(0, 2, VECTOR_BATCH), rng=8)
    mg_dealer = MultiplicationGroupDealer(seed=4)

    def vectorised_triple():
        group = mg_dealer.vector_group((VECTOR_BATCH,))
        secure_multiply_triple(
            (vec_a.share1, vec_a.share2),
            (vec_b.share1, vec_b.share2),
            (vec_c.share1, vec_c.share2),
            group,
        )

    rows.append(
        {
            "name": "vectorised_triple_multiplication",
            "size": VECTOR_BATCH,
            "seconds": _best_of(vectorised_triple, reps),
            "peak_bytes": measure_peak_bytes(vectorised_triple),
        }
    )

    def provision_groups():
        MultiplicationGroupDealer(seed=9).provision(PROVISION_COUNT)

    rows.append(
        {
            "name": "mg_dealer_provision",
            "size": PROVISION_COUNT,
            "seconds": _best_of(provision_groups, reps),
            "peak_bytes": measure_peak_bytes(provision_groups),
        }
    )

    mat_a = share_vector(rng.integers(0, 2, (MATRIX_N, MATRIX_N)), rng=11)
    mat_b = share_vector(rng.integers(0, 2, (MATRIX_N, MATRIX_N)), rng=12)
    beaver_dealer = BeaverTripleDealer(seed=9)

    def matrix_product():
        triple = beaver_dealer.matrix_triple((MATRIX_N, MATRIX_N), (MATRIX_N, MATRIX_N))
        secure_matrix_multiply(
            (mat_a.share1, mat_a.share2), (mat_b.share1, mat_b.share2), triple
        )

    rows.append(
        {
            "name": "secure_matrix_product",
            "size": MATRIX_N,
            "seconds": _best_of(matrix_product, reps),
            "peak_bytes": measure_peak_bytes(matrix_product),
        }
    )

    ring_a, ring_b = _random_ring_matrices(RING_MATMUL_N, seed=13)

    def ring_product():
        DEFAULT_RING.matmul(ring_a, ring_b)

    rows.append(
        {
            "name": f"ring_matmul_{RING_MATMUL_N}",
            "size": RING_MATMUL_N,
            "seconds": _best_of(ring_product, reps),
            "peak_bytes": measure_peak_bytes(ring_product),
        }
    )
    return rows


def run_ring_matmul_sweep(
    sizes=RING_MATMUL_SWEEP, server_shapes=RING_MATMUL_SERVER_SHAPES, reps: int = 3
) -> dict:
    """Best-of-*reps* int64 vs limb timings per shape, plus the measured crossover.

    Both kernels' products are checked bit-identical before either is timed.
    The crossover is the smallest swept n from which the limb path is faster
    at every larger swept n too; the *server_shapes* rows do not enter it.
    """
    shapes = [(n, n, n) for n in sizes] + [tuple(shape) for shape in server_shapes]
    rows = []
    for m, k, n in shapes:
        a, b = _random_ring_matrices(m, seed=m * k + n, inner=k, cols=n)
        if not np.array_equal(int64_matmul(a, b), limb_matmul(a, b)):
            raise AssertionError(f"limb_matmul differs from int64_matmul at {m}x{k}x{n}")
        chunks = inner_chunks(k, 64, 64)
        int64_s = _best_of(lambda: int64_matmul(a, b), reps)
        limb_s = _best_of(lambda: limb_matmul(a, b), reps)
        rows.append(
            {
                "m": m,
                "k": k,
                "n": n,
                "multiply_adds": m * k * n,
                "chunks": len(chunks),
                "limb_width": limb_width(chunks[0][1] - chunks[0][0]),
                "gemms": limb_gemms(k),
                "int64_s": int64_s,
                "limb_s": limb_s,
                "speedup": int64_s / limb_s,
            }
        )
        print(
            f"  {m:5d}x{k:5d}x{n:5d} chunks={len(chunks)} gemms={limb_gemms(k):2d}"
            f"  int64 {int64_s*1e3:10.3f} ms  limb {limb_s*1e3:9.3f} ms"
            f"  ({int64_s / limb_s:5.2f}x)",
            flush=True,
        )
    crossover = None
    for row in reversed(rows[: len(sizes)]):
        if row["limb_s"] >= row["int64_s"]:
            break
        crossover = row["n"]
    return {
        "benchmark": "ring_matmul",
        "host": {
            "cpus": os.cpu_count() or 1,
            "machine": platform.platform(),
            "numpy": np.__version__,
        },
        "reps": reps,
        "rows": rows,
        "crossover_n": crossover,
        "crossover_multiply_adds": None if crossover is None else crossover**3,
        "blas_min_multiply_adds": BLAS_MIN_MULTIPLY_ADDS,
    }


def write_json(rows, path=None) -> Path:
    """Persist the primitive timings for cross-commit trajectory tracking."""
    if path is None:
        path = os.environ.get(
            "REPRO_BENCH_CRYPTO_OUTPUT",
            str(Path(__file__).resolve().parent / "results" / "crypto_primitives.json"),
        )
    output = Path(path)
    atomic_write_json(output, {"benchmark": "crypto_primitives", "rows": rows})
    return output


def test_bench_scalar_triple_multiplication(benchmark):
    """One three-way product (what the faithful Count pays per candidate triple)."""
    dealer = MultiplicationGroupDealer(seed=0)
    a = share_scalar(1, rng=1)
    b = share_scalar(1, rng=2)
    c = share_scalar(0, rng=3)

    def run():
        group = dealer.scalar_group()
        return secure_multiply_triple(
            (a.share1, a.share2), (b.share1, b.share2), (c.share1, c.share2), group
        )

    s1, s2 = benchmark(run)
    assert (int(s1) + int(s2)) % 2**64 == 0


def test_bench_vectorised_triple_multiplication(benchmark):
    """A 10k-wide batch of three-way products (the batched Count's unit of work)."""
    dealer = MultiplicationGroupDealer(seed=4)
    rng = np.random.default_rng(5)
    size = 10_000
    a = share_vector(rng.integers(0, 2, size), rng=6)
    b = share_vector(rng.integers(0, 2, size), rng=7)
    c = share_vector(rng.integers(0, 2, size), rng=8)

    def run():
        group = dealer.vector_group((size,))
        return secure_multiply_triple(
            (a.share1, a.share2), (b.share1, b.share2), (c.share1, c.share2), group
        )

    s1, s2 = benchmark(run)
    assert s1.shape == (size,)


def test_bench_secure_matrix_product(benchmark):
    """One n x n secret-shared matrix product (the matrix backend's dominant cost)."""
    n = 128
    dealer = BeaverTripleDealer(seed=9)
    rng = np.random.default_rng(10)
    a = share_vector(rng.integers(0, 2, (n, n)), rng=11)
    b = share_vector(rng.integers(0, 2, (n, n)), rng=12)

    def run():
        triple = dealer.matrix_triple((n, n), (n, n))
        return secure_matrix_multiply((a.share1, a.share2), (b.share1, b.share2), triple)

    s1, s2 = benchmark(run)
    assert s1.shape == (n, n)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--ring-matmul", action="store_true", help="run the int64-vs-limb ring matmul sweep"
    )
    if parser.parse_args().ring_matmul:
        sweep = run_ring_matmul_sweep()
        destination = Path(__file__).resolve().parent / "results" / "ring_matmul.json"
        atomic_write_json(destination, sweep)
        print(f"crossover n={sweep['crossover_n']}; wrote {destination}")
    else:
        output_rows = run_crypto_primitives()
        destination = write_json(output_rows)
        print(json.dumps(output_rows, indent=2))
        print(f"wrote {destination}")
